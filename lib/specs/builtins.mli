(** Builtin auxiliary specifications: Boolean connectives, natural numbers,
    and a small parameter type of items.

    The paper's axioms use Boolean observers and the refinement proof needs
    [NOT]; [Nat] backs [SIZE]/[HASH]-style operations; [Item] is the
    parameter type of the Queue examples ("in effect Item is a parameter of
    type Queue", section 3) made concrete with a few atoms so that
    specifications are executable and enumerable. *)

open Adt

val bool_spec : Spec.t
(** [NOT], [AND], [OR] over the builtin constants. *)

val not_ : Term.t -> Term.t
val and_ : Term.t -> Term.t -> Term.t

val nat_sort : Sort.t

val nat_spec : Spec.t
(** Constructors [ZERO], [SUCC]; observers [PLUS], [EQ_NAT?]. *)

val zero : Term.t
val succ : Term.t -> Term.t

val nat_of_int : int -> Term.t
(** Raises [Invalid_argument] on negatives. *)

val int_of_nat : Term.t -> int option
(** [None] when the term is not a numeral. *)

val plus : Term.t -> Term.t -> Term.t
val eq_nat : Term.t -> Term.t -> Term.t

val item_sort : Sort.t

val item_spec : Spec.t
(** Atoms [ITEM1] ... [ITEM4]. *)

val item : int -> Term.t
(** [item i] for [i] in 1..4. Raises [Invalid_argument] otherwise. *)
