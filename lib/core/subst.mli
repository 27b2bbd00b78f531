(** Substitutions, matching, and syntactic unification.

    A substitution maps variable names to terms. Sorts are respected: binding
    a variable to a term of a different sort is rejected, which keeps every
    derived term well sorted (the many-sorted discipline of the paper's
    heterogeneous algebras). *)

type t

val empty : t
val singleton : string -> Term.t -> t

val bind : string -> Term.t -> t -> t option
(** [bind x t s] extends [s] with [x -> t]. Returns [None] if [x] is already
    bound to a different term. *)

val find : string -> t -> Term.t option
val mem : string -> t -> bool
val bindings : t -> (string * Term.t) list
val of_bindings : (string * Term.t) list -> t option
(** [None] on duplicate bindings of the same name to different terms. *)

val cardinal : t -> int

val apply : t -> Term.t -> Term.t
(** Simultaneous substitution. Unbound variables are left in place. *)

val compose : t -> t -> t
(** [compose s1 s2] behaves as applying [s1] first, then [s2]:
    [apply (compose s1 s2) t = apply s2 (apply s1 t)]. *)

val restrict : (string * Sort.t) list -> t -> t
(** Keep only bindings of the listed variables. *)

val equal : t -> t -> bool
val pp : t Fmt.t

(** {1 Matching} *)

val match_term : pattern:Term.t -> Term.t -> t option
(** One-way matching: finds [s] with [apply s pattern = term], treating the
    pattern's variables as match variables and the subject as rigid.
    Non-linear patterns are supported (repeated variables must match equal
    subterms). Sort mismatches fail. *)

val matches : pattern:Term.t -> Term.t -> bool

(** {1 Unification} *)

val unify : Term.t -> Term.t -> t option
(** Most general unifier of two terms sharing one variable namespace, with
    occurs check. Returns an idempotent substitution. *)

val variant : Term.t -> Term.t -> bool
(** [variant a b] holds when the two terms are equal up to renaming of
    variables. *)
