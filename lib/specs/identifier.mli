(** The abstract type [Identifier].

    The paper treats [Identifier] as an independently defined type whose
    specification supplies [IS_SAME?] (footnote to axiom 6) and [HASH]
    (used by the hash-table implementation of [Array]; "assumed to be
    defined in the type Identifier specification"). Here the type is made
    concrete with a finite atom universe so that symbol-table
    specifications are executable, enumerable, and provable by case
    analysis. [SAME?] is axiomatised by the complete atom-pair table and
    [HASH] maps each atom to a [Nat] bucket index. *)

open Adt

val sort : Sort.t

val default_atoms : string list
(** ["X"; "Y"; "Z"; "W"]. *)

val spec : Spec.t
(** The specification over {!default_atoms}; uses [Nat] for [HASH] with
    {!default_buckets} buckets. *)

val spec_with_atoms : ?buckets:int -> string list -> Spec.t
(** A specification with the given atom names (each becomes a constant
    constructor [ID_<name>]); [SAME?] gets the n^2 axiom table and [HASH]
    one axiom per atom ([index mod buckets]). *)

val default_buckets : int

val id : string -> Term.t
(** [id "X"] is the atom term [ID_X] (over {!default_atoms} naming scheme;
    works for any [spec_with_atoms] instance that includes the name). *)

val atom_terms : Spec.t -> Term.t list
(** All identifier atoms of a specification built by this module. *)
