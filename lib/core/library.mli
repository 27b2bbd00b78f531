(** Named collections of specifications.

    A library is the environment behind [uses]: specifications registered
    by name, so that a hierarchy of `.adt` files can be layered the way
    section 4 layers Symboltable on Identifier and Attributelist, and the
    way the Knowlist exercise "simply adds another level". The CLI loads
    every [--lib] file into one library before checking the target file. *)

type t

val empty : t

val builtin : t
(** {!empty} — the builtin Boolean machinery needs no registration; it is
    part of every signature. Provided as a named starting point. *)

val add : Spec.t -> t -> t
(** Registers (or replaces) the specification under its own name. *)

val add_all : Spec.t list -> t -> t
val find : string -> t -> Spec.t option
val mem : string -> t -> bool
val names : t -> string list
(** In registration order. *)

val specs : t -> Spec.t list

val to_env : t -> string -> Spec.t option
(** The resolver to pass to {!Parser.parse_specs}. *)

val load_source : t -> string -> (t, Parser.error) result
(** Parses every specification of the input (resolving [uses] against the
    library and against earlier specifications of the same input) and
    registers them all. *)
