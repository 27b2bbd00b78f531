(** Renderers for lint findings. Each takes the findings grouped per input
    file — [(file, diagnostics)] pairs, where [file] is the path that was
    linted (or a [builtin/<Spec>] pseudo-path for the bundled library) —
    and returns the complete output as a string (no trailing newline). *)

val text : (string * Diagnostic.t list) list -> string
(** Human-readable: one [file: CODE slug severity ...] line per finding,
    followed by a one-line summary with per-severity counts. *)

val json_lines : (string * Diagnostic.t list) list -> string
(** One JSON object per finding per line, with fields [file], [code],
    [slug], [severity], [spec], [op], [axiom], [message], [suggestion]
    ([op], [axiom], [suggestion] are [null] when absent). *)

val sarif : (string * Diagnostic.t list) list -> string
(** A complete SARIF 2.1.0 log: a single run whose tool driver publishes
    every rule of {!Diagnostic.rules} and whose results carry the file as
    the physical location and the operation as a logical location.
    Severity maps to SARIF levels as error/warning and [Info] to [note]. *)

val json_string : string -> string
(** [s] as a quoted JSON string literal: quotes, backslashes and control
    characters escaped. The one escaper of the command line and the
    benchmark harness. *)
