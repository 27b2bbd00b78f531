(** Equational axioms.

    An axiom is one of the paper's "relations": a left-hand side, a
    right-hand side, and an optional name for reporting (the paper numbers
    its axioms 1-20). Both sides must have the same sort and the right-hand
    side may only use variables that appear on the left (so the axiom reads
    as a rewrite rule; this is the restriction that makes Guttag's
    specifications executable by symbolic interpretation, section 5). *)

type t = private { name : string; lhs : Term.t; rhs : Term.t }

val v :
  ?name:string -> ?allow_free_rhs:bool -> lhs:Term.t -> rhs:Term.t -> unit -> t
(** Raises [Invalid_argument] when the two sides have different sorts, when
    the left-hand side is a bare variable or an [error]/[if] form, or when
    the right-hand side mentions a variable absent from the left.

    [allow_free_rhs] (default [false]) suppresses the last check: the axiom
    is then a legal {e equation} but not an executable rewrite rule — the
    parser builds axioms this way so that the static analyzer
    ([lib/analysis], rule ADT011) can diagnose the fault instead of the
    loader rejecting the whole file. {!Rewrite.of_spec} skips such axioms. *)

val name : t -> string
val lhs : t -> Term.t
val rhs : t -> Term.t

val head : t -> Op.t
(** The outermost operation of the left-hand side (the operation the axiom
    defines). *)

val vars : t -> (string * Sort.t) list
(** Variables of the axiom, in first-occurrence order on the left side. *)

val is_left_linear : t -> bool
(** No variable occurs twice in the left-hand side. *)

val free_rhs_vars : t -> (string * Sort.t) list
(** Right-hand-side variables absent from the left-hand side, in
    first-occurrence order; non-empty only for axioms built with
    [allow_free_rhs]. *)

val is_executable : t -> bool
(** The axiom reads as a rewrite rule: {!free_rhs_vars} is empty. *)

val rename : (string -> string) -> t -> t

val check : Signature.t -> t -> (unit, string) result
(** Both sides well formed in the signature. *)

val instantiate : Subst.t -> t -> Term.t * Term.t

val equal : t -> t -> bool
(** Structural equality up to names being equal too. *)

val same_equation : t -> t -> bool
(** Equality of the equations up to variable renaming, ignoring names. *)

val pp : t Fmt.t
