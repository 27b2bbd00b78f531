(** Knuth–Bendix completion.

    Turns a set of equations into a confluent, terminating rewrite system
    when it can: orient each equation under an LPO precedence, then add
    oriented critical-pair consequences until none diverge. Guttag's
    conclusion points at exactly this use ("given suitable restrictions on
    the form that axiomatizations may take, a system in which
    implementations and algebraic specifications of abstract types are
    interchangeable can be constructed") — a canonical system is what makes
    the symbolic interpreter deterministic.

    The implementation is the classic naive loop with bounds on the number
    of rules and on normalization fuel; it reports failure rather than
    diverging. *)

type failure =
  | Unorientable of Term.t * Term.t
      (** An equation (after normalization) that the precedence cannot
          orient; deriving [true = false] shows up here or as
          {!Inconsistent}. *)
  | Inconsistent of Term.t * Term.t
      (** Two distinct value normal forms (constructor terms or [error])
          were equated. *)
  | Bound_exceeded

type outcome = Completed of Rewrite.system | Failed of failure

type stats = {
  iterations : int;
  rules_added : int;
  pairs_considered : int;
}

val is_value : Spec.t -> Term.t -> bool
(** Completion's value predicate: a constructor term, variables allowed,
    or [error]. It stays apart from the ground-only predicate of
    {!Consistency.inconsistencies} because completion derives non-ground
    equations, and one between two distinct constructor patterns, such as
    [S(x) = ZERO], already contradicts. *)

val complete :
  ?max_rules:int ->
  ?fuel:int ->
  precedence:Ordering.precedence ->
  is_value:(Term.t -> bool) ->
  Axiom.t list ->
  outcome * stats
(** [is_value] classifies terms whose distinct equality is a contradiction
    (normally {!is_value} of the specification); pass [fun _ -> false] to
    disable inconsistency detection. *)

val complete_spec :
  ?max_rules:int -> ?fuel:int -> Spec.t -> outcome * stats
(** Completion of a specification's axioms under the precedence that
    {!Ordering.search} settles on for it (the one ADT021 proves termination
    with). *)

val pp_outcome : outcome Fmt.t
val pp_stats : stats Fmt.t
