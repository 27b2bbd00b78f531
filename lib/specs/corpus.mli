(** The whole builtin paper corpus as one list.

    Every specification the library defines in OCaml — the paper's types
    (Queue, Stack, Array, Symboltable, Knowlist, the ring-buffer
    Boundedqueue, the Pairlist of the second representation proof) plus
    the auxiliary builtins they use — in dependency order. This is what
    [adtc lint --all] sweeps and what the corpus-wide analyses (bench
    E12, the linter's silent-on-clean-corpus test) iterate. *)

open Adt

val all : Spec.t list
(** In dependency order: auxiliaries first. *)
