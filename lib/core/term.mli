(** Many-sorted terms, hash-consed.

    Terms are the common currency of the whole library: axioms relate terms,
    the rewriting engine normalizes terms, implementations are checked by
    mapping their concrete values to terms through the abstraction function.

    Every term is interned in a global (weak) table, striped into
    independently locked shards selected by structural hash, so two
    structurally equal terms are always the same heap value — even when
    constructed from different domains: {!equal} is physical equality, and
    each term carries a unique {!id} (dense, drawn from one atomic
    counter), a precomputed {!hash} and {!size}, and a ground flag — all
    O(1). Pattern match through {!view}; construct through the smart
    constructors.

    Beyond plain variables and applications, two builtin forms mirror the
    paper's notation:

    - [Err s] is the distinguished [error] value of sort [s]. The paper
      stipulates that "the value of any operation applied to an argument
      list containing error is error"; that strictness rule lives in
      {!Rewrite}, not here.
    - [Ite (c, t, e)] is the [if c then t else e] construct that appears on
      the right-hand sides of axioms. It is lazy in its branches (otherwise
      the strict error rule would poison, e.g., the [else] branch of
      [FRONT (ADD (q, i))] when [q = NEW]). *)

type t = private {
  node : node;  (** the head constructor; prefer {!view} *)
  id : int;  (** unique per distinct term, dense from 1 *)
  hash : int;  (** structural hash, precomputed at construction *)
  size : int;  (** number of nodes, precomputed at construction *)
  ground : bool;  (** [true] iff the term contains no variables *)
}

and node =
  | Var of string * Sort.t
  | App of Op.t * t list
  | Err of Sort.t
  | Ite of t * t * t

val view : t -> node
(** [view t] is [t.node]; the standard way to pattern match a term:
    [match Term.view t with Term.App (op, args) -> ...]. *)

val id : t -> int
(** Unique identifier of the interned term (positive, dense). *)

val hash : t -> int
(** Precomputed structural hash; deterministic across runs. Persistent
    normal-form keys carry it, so changing it means bumping
    [Persist.Store.format_version]. *)

exception Ill_sorted of string
(** Raised by the smart constructors and {!check} when an application's
    arguments do not match the operation's declared domain. *)

val var : string -> Sort.t -> t

val app : Op.t -> t list -> t
(** Checked application: raises {!Ill_sorted} on arity or sort mismatch. *)

val const : Op.t -> t
(** [const op] is [app op []]. *)

val err : Sort.t -> t
val ite : t -> t -> t -> t
(** Checked: the condition must have sort [Bool] and the branches must have
    equal sorts. Raises {!Ill_sorted} otherwise. *)

val app_unchecked : Op.t -> t list -> t
(** Interns [App (op, args)] without the arity/sort checks of {!app}. Only
    for hot paths that preserve well-sortedness by construction (applying a
    well-sorted substitution, replacing a subterm by one of equal sort). *)

val ite_unchecked : t -> t -> t -> t
(** Interns [Ite (c, t, e)] without the checks of {!ite}; same caveat as
    {!app_unchecked}. *)

val tt : t
(** The Boolean constant [true]. *)

val ff : t
(** The Boolean constant [false]. *)

val sort_of : t -> Sort.t

val check : Signature.t -> t -> (unit, string) result
(** Deep well-formedness check against a signature: every operation used is
    declared (with the same rank) and every application is well sorted. *)

(** {1 Structure} *)

val equal : t -> t -> bool
(** Physical equality — constant time. Hash-consing guarantees this
    coincides with structural equality. *)

val structural_equal : t -> t -> bool
(** Deep structural comparison that never consults ids or the intern table.
    Agrees with {!equal} by the hash-consing invariant; kept as an
    independent oracle for the differential test harness. *)

val compare : t -> t -> int
(** Total structural order (shortcuts on physical equality). *)

val size : t -> int
(** Number of nodes (variables, applications, errors, ites) — O(1). *)

val depth : t -> int

val vars : t -> (string * Sort.t) list
(** Free variables in first-occurrence order, without duplicates. *)

val var_set : t -> (string * Sort.t) list -> (string * Sort.t) list
(** [var_set t acc] accumulates variables of [t] onto [acc] (no duplicates,
    order unspecified); building block for {!vars} over several terms. *)

val is_ground : t -> bool
(** O(1): the precomputed ground flag. *)

val is_error : t -> bool

val ops : t -> Op.Set.t
(** All operation symbols occurring in the term. *)

val count_op : string -> t -> int
(** Occurrences of the named operation. *)

(** {1 Positions}

    A position is a path from the root: [[]] is the root, [i :: p] descends
    into child [i] (0-based; for [Ite] child 0 is the condition, 1 the then
    branch, 2 the else branch). *)

type position = int list

val positions : t -> position list
(** All positions, in pre-order. *)

val subterm_at : t -> position -> t option
val replace_at : t -> position -> t -> t option
val subterms : t -> t list
(** All subterms including the term itself, in pre-order. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over all subterms. *)

val rename : (string -> string) -> t -> t
(** Renames every variable. *)

val map_vars : (string -> Sort.t -> t) -> t -> t
(** Simultaneous substitution primitive: replaces each variable by the image
    term. The caller is responsible for sort preservation. Subterms whose
    variables are all mapped to themselves are returned physically
    unchanged, so substitution preserves sharing (and ids). *)

val fresh_wrt : avoid:(string * Sort.t) list -> string -> Sort.t -> string
(** [fresh_wrt ~avoid base s] is a variable name based on [base] that does
    not occur in [avoid]. *)

val intern_stats : unit -> int * int
(** [(live, total)]: live entries across all intern-table shards and the
    total number of distinct terms ever created (the current id counter). *)

val intern_fault_hook : (unit -> unit) option ref
(** Test instrumentation only: when set, the hook runs inside the intern
    critical section, so tests can inject a failure there and assert that
    the shard lock is released (exception safety of {!var}/{!app}/...).
    Must be [None] in production use. *)

val pp : t Fmt.t
(** Paper-style concrete syntax:
    [FRONT(ADD(q, i))], [if IS_EMPTY(q) then i else FRONT(q)], [error]. *)

val to_string : t -> string
