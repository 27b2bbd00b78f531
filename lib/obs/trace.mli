(** Span-based request tracing.

    A tracer follows one request through the engine: a root span opened at
    creation, child spans for each phase (parse → dispatch → rewrite →
    respond), and per-rule firing counts fed by the rewriting loop through
    the engine's one per-request rule hook ({!Adt.Rewrite} [?on_rule]),
    which also charges fuel and checks the deadline. Each tracer carries a
    process-unique trace ID drawn from an atomic counter, so concurrent
    connection threads can trace simultaneously and slow-request log
    entries remain attributable.

    The whole module is built around {!disabled}, a tracer that does
    nothing: every operation on it is a constant-time no-op, so tracing
    costs ~nothing when off (benchmark E11 quantifies this).

    A tracer is owned by the single thread serving its request; it is not
    itself thread-safe (the ID counter is). *)

type span = {
  span_name : string;
  dur_s : float;  (** Wall-clock duration, seconds. *)
  steps : int;  (** Rule applications attributed to this span itself,
                    children not included. *)
  children : span list;  (** In opening order. *)
}

type result = {
  id : string;  (** The trace ID, e.g. [t0042]. *)
  root : span;
  rules : (string * int) list;
      (** Rule name to firing count, sorted by name; builtin steps are
          not attributed. *)
  total_steps : int;  (** Sum over all spans = all firings. *)
}

type t

val disabled : t
(** The no-op tracer: [enabled] is false, [finish] is [None], span
    operations run their thunk and record nothing, {!rule} does
    nothing. *)

val create : ?clock:(unit -> float) -> string -> t
(** [create name] starts an enabled tracer whose root span is [name] and
    assigns the next trace ID. [clock] (default [Unix.gettimeofday])
    exists so tests can pin durations. *)

val enabled : t -> bool

val id : t -> string option

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a fresh child span of the innermost open span.
    The span is closed (and its duration fixed) even when the thunk
    raises. On {!disabled}, just runs the thunk. *)

val record_span : t -> string -> float -> unit
(** Adds an already-measured leaf span (no steps, no children) to the
    innermost open span. *)

val rule : t -> string -> unit
(** Attributes one rule firing to the innermost open span and to the
    per-rule totals. *)

val finish : t -> result option
(** Closes every span still open (root included) and returns the
    assembled result; [None] on {!disabled}. Call once. *)

val breakdown : span -> (string * float) list
(** The root's direct children as [(name, dur_s)] pairs, in order — the
    per-phase breakdown a slow-request log entry stores. *)

val result_to_json : ?meta:(string * string) list -> result -> string
(** A single-line JSON rendering: trace id, [meta] key/value string
    fields verbatim in order, total steps, per-rule counts, and the
    recursive span tree (durations in milliseconds). *)
