(** Abstract data type specifications.

    A specification packages the two halves of Guttag's method: the
    syntactic specification (a {!Signature.t}) and the set of relations
    ({!Axiom.t} list). It additionally records which operations are
    {e constructors} — the operations whose terms generate every value of
    the type of interest (in the Queue example, [NEW] and [ADD]). The
    constructor set drives sufficient-completeness checking, ground-term
    enumeration, and generator induction.

    Specifications compose: [union] merges a specification with the
    specifications of the types it builds on, mirroring the paper's
    hierarchical step of "simply adding another level" (the Knowlist
    example of section 4). *)

type t

val v :
  name:string ->
  signature:Signature.t ->
  ?constructors:string list ->
  axioms:Axiom.t list ->
  unit ->
  t
(** Builds and validates a specification. Raises [Invalid_argument] when an
    axiom is ill formed in the signature, when a constructor name is not an
    operation of the signature, or when two axioms share a name with a
    different equation. The builtin Boolean constants [true] and [false] are
    always constructors of [Bool], so omitting [constructors] still leaves
    Bool inhabited. *)

val name : t -> string
val signature : t -> Signature.t
val axioms : t -> Axiom.t list
val constructors : t -> Op.Set.t

val constructors_of_sort : Sort.t -> t -> Op.t list
(** Constructors whose range is the given sort, in declaration order. *)

val has_constructors : Sort.t -> t -> bool

val is_constructor : Op.t -> t -> bool
val is_constructor_name : string -> t -> bool

val observers : t -> Op.t list
(** Non-constructor operations, in declaration order (builtin Boolean
    constants excluded). *)

val find_op : string -> t -> Op.t option
val find_op_exn : string -> t -> Op.t
val op_exn : t -> string -> Op.t
(** [op_exn t name] = [find_op_exn name t]; convenient for partial
    application when building terms against a fixed spec. *)

val axioms_for : Op.t -> t -> Axiom.t list
(** Axioms whose left-hand-side head is the given operation. *)

val find_axiom : string -> t -> Axiom.t option

val sorts_of_interest : t -> Sort.t list
(** Sorts for which this specification declares at least one constructor. *)

val union : ?name:string -> t -> t -> t
(** Merge signatures, constructor sets, and axiom lists. Raises
    [Invalid_argument] on operation clashes (from [Signature.union]) or on
    clashing axiom names with different equations. *)

val with_axioms : Axiom.t list -> t -> t
(** Adds axioms (validated). *)

val without_axiom : string -> t -> t
(** Removes the named axiom; useful to seed incompleteness for testing the
    checker (paper section 3: boundary conditions "are particularly likely
    to be overlooked"). *)

val is_constructor_term : t -> Term.t -> bool
(** The term is built from constructors and variables only. *)

val is_constructor_ground_term : t -> Term.t -> bool

val pp : t Fmt.t
(** Paper-style rendering of the whole specification. *)
