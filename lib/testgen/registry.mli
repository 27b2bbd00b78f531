(** The builtin implementation registry.

    Every direct implementation the library ships, packaged for the
    conformance harness: the clean implementations (expected to pass their
    generated suites) and the mutation corpus of [Faulty_impls] (expected
    to be killed by them). [adtc testgen] resolves [SPEC]/[--impl] names
    here; name matching is case-insensitive. *)

val clean : Impl.t list
(** In corpus order: Queue, Bounded Queue, Stack, the two Arrays, the two
    Symboltables, Knowlist. *)

val mutants : Impl.t list
(** The seeded-bug corpus; every entry has {!Impl.mutant_of} set. *)

val all : Impl.t list

val for_spec : ?mutants:bool -> string -> Impl.t list
(** Implementations registered for the named specification —
    clean ones by default, the mutation corpus with [~mutants:true]. *)

val find : spec:string -> impl:string -> Impl.t option
val default_for : string -> Impl.t option
(** The first clean implementation of the named specification. *)

val resolve :
  spec:string ->
  impl:string option ->
  (Impl.t, [ `Unknown_spec of string | `Unknown_impl of string ]) result
(** The implementation a [SPEC] and an optional [impl=NAME] select: the
    named one, or {!default_for} the spec when [impl] is absent. The
    error carries the message the testgen verb and [adtc testgen] print:
    [`Unknown_spec] when nothing is registered for the spec,
    [`Unknown_impl] when the spec has implementations but none of that
    name. *)

val spec_names : unit -> string list
(** Specification names with at least one registered implementation, in
    registration order, without duplicates. *)
