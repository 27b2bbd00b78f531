(** Term orderings for orienting equations.

    A lexicographic path ordering (LPO) over many-sorted terms, used by
    {!Completion} to orient equations into terminating rewrite rules and by
    callers that want a termination argument for a specification's rules.

    The builtin [if-then-else] is treated as a function symbol just above
    [error] and below every proper operation; with that placement each of
    the paper's axioms orients left to right under the call-graph ranks
    that seed {!search} (the defined operation dominates the operations its
    right-hand sides call). *)

type precedence = Op.t -> Op.t -> int
(** A total (pre)order on operation symbols; [> 0] means the first operation
    is greater. Equal operations must compare equal. *)

val of_ranks : rank:(Op.t -> int) -> precedence
(** Compare by rank, ties broken by name, then full structural compare. *)

val of_list : string list -> precedence
(** Earlier names are {e greater}; names absent from the list are smaller
    than present ones and ordered alphabetically. *)

val lpo_gt : precedence -> Term.t -> Term.t -> bool
(** Strict LPO comparison. Variables are minimal: [lpo_gt s (Var x)] holds
    iff [x] occurs in [s] and [s <> Var x]. *)

val orient :
  precedence -> Term.t * Term.t -> (Term.t * Term.t, string) result
(** Orders a pair into (greater, smaller), or explains why it cannot. *)

(** {1 Precedence search}

    The recursive-path-ordering prover behind the ADT021 termination pass:
    rather than fixing one precedence up front, search for one that
    orients every executable axiom. *)

type search_result = {
  ranks : (string * int) list;
      (** The searched precedence as operation-name ranks, sorted by name. *)
  unoriented : Axiom.t list;
      (** Executable axioms no searched precedence bump could orient;
          empty on success. *)
}

val search : Spec.t -> search_result
(** Greedy precedence search seeded from the call graph of the
    specification: operation [f] depends on [g] when [g] occurs on the
    right-hand side of an axiom whose head is [f], and the seed rank of an
    operation is the longest dependency chain below it (cycles collapse to
    one rank; constructors rank lowest). That seed already orients the
    hierarchical specifications of the paper's style, including across
    [Spec.union]. While an executable axiom fails to decrease under the
    current LPO, raise its head operation's rank just above every operation
    of its right-hand side, until every axiom orients or no bump makes
    progress (ranks are capped, so the search terminates). [unoriented = []] is a
    termination certificate for the specification's rewrite system under
    {!search_precedence}. *)

val search_precedence : search_result -> precedence
(** The precedence the search settled on ({!of_ranks} over [ranks]). *)

val oriented : search_result -> bool
(** [unoriented = []]. *)
