(** The abstract type [Attributelist].

    The paper leaves [Attributelist] entirely abstract (it is the payload
    the symbol table stores). Two kinds of values make the enclosing
    specifications executable: a few opaque atoms ([ATTRS1] ...) for tests
    and enumeration, and a structured constructor
    [MK_ATTRS : Nat x Nat -> Attributelist] carrying a (type code, slot)
    pair — what the block-language compiler actually stores for a declared
    variable. [EQ_ATTRS?] decides equality for both kinds. *)

open Adt

val sort : Sort.t
val spec : Spec.t

val attrs : int -> Term.t
(** [attrs i] for [i] in 1..{!count} — the opaque atoms. *)

val count : int
val mk : ty:int -> slot:int -> Term.t
(** [MK_ATTRS(ty, slot)] with both numbers as [Nat] numerals. *)

val decode : Term.t -> (int * int) option
(** Inverse of {!mk} on constructor normal forms. *)

val mk_proc : ret:int -> params:int list -> index:int -> Term.t
(** [MK_PROC(ret, params, index)]: the attributes of a declared procedure —
    return-type code, parameter-type codes (encoded as one [Nat] numeral in
    base 3: digit 1 = int, 2 = bool, most significant first), and the
    procedure's index in the program's procedure table. *)

val decode_proc : Term.t -> (int * int list * int) option
(** Inverse of {!mk_proc} on constructor normal forms. *)

val eq : Term.t -> Term.t -> Term.t
