(** Sufficient completeness, decided by pattern matrix.

    Guttag's central methodological device (section 3; the technical notion
    is developed in his thesis, cited as [8, 9]): a specification is
    {e sufficiently complete} when the axioms determine the value of every
    observer applied to every value of the type — read initially (Preston),
    when every ground observer term reduces to a constructor term.
    Incompleteness in practice means an overlooked case, most often a
    boundary condition such as [REMOVE(NEW)].

    Each observer's defining left-hand sides are read as a
    {!Pattern_matrix} over its argument sorts. A row is an executable
    axiom whose arguments are constructor contexts and whose left-hand
    side is left-linear; anything else contributes nothing to coverage.
    Every vector the matrix leaves uncovered is one {!hole}. This hole list
    is the only answer to the question: [adtc check], the [check] and
    [skeletons] verbs, the prompts of {!Heuristics} (ADT001) and ADT020
    all read it. *)

type hole = {
  op : Op.t;
  pattern : Term.t;
      (** The uncovered left-hand side: a constructor context with
          variables renamed apart, such as [REMOVE(ADD(queue, item))] —
          or, for a decided hole of an operation with non-left-linear
          axioms, the ground counterexample. *)
  witness : Term.t;
      (** [pattern] with {!Pattern_matrix.instantiate_wildcards} applied:
          ground except at parameter-sort positions, e.g. [FRONT(NEW)]. *)
  decided : bool;
      (** [false] when the operation's non-left-linear axioms might cover
          the pattern and ground enumeration (up to size 4) found no
          instance they miss. *)
}

val holes : Spec.t -> hole list
(** Every hole of every observer, in observer order. An operation with no
    axioms and no constructor-bearing argument is a parameter operation
    (such as [SAME?] on an abstract [Identifier]) and is exempt. *)
