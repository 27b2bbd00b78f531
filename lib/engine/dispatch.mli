(** The request dispatcher: one protocol request in, one response out.

    Error isolation is the contract: whatever a request does — name an
    unloaded specification, fail to parse, exhaust its fuel or wall-clock
    budget, or trip an internal exception — the dispatcher answers with a
    structured [error] line and leaves the session intact for the next
    request. Every request updates the session's {!Metrics}.

    When the session has tracing on ({!Session.tracing}), each request is
    wrapped in an {!Obs.Trace} span tree — [parse], [dispatch] (with a
    [rewrite] child around the evaluation proper), [respond] — with
    per-rule step attribution fed by the core's [?on_rule] hooks; requests
    at or above the session's slow-log threshold are recorded into
    {!Session.slowlog}. With tracing off, the cost is one option test per
    rule application. *)

type outcome =
  | Silent  (** Blank or comment line: no response. *)
  | Reply of string  (** The rendered response line. *)
  | Closed of string
      (** A [quit] request, with its rendered reply: the server loop
          prints the reply and stops. *)

(** Per-request observation: the span tree under construction and the
    rewrite steps this request has charged (the session-wide
    [fuel_spent] cannot attribute work to a request). *)
type ctx = { trace : Obs.Trace.t; mutable fuel : int }

val handle_line :
  ?read_line:(unit -> string option) -> Session.t -> string -> outcome
(** Parse, enforce limits, evaluate, record metrics, render. Never
    raises. Safe to call concurrently from many threads on one session:
    evaluations on the same specification serialize on the entry lock,
    metrics updates on the metrics lock.

    [read_line] is the transport's body reader: a [session-edit lines=N]
    request consumes the next [N] raw lines through it (its replacement
    source text). Without a reader, body-carrying requests answer a
    protocol error; [None] from the reader mid-body (connection closed)
    does too. *)

val handle_line_obs :
  ?read_line:(unit -> string option) ->
  Session.t ->
  string ->
  outcome * Obs.Trace.result option
(** {!handle_line} plus the finished trace, when the session traces —
    what [adtc trace] prints as a JSON span tree. The trace's
    [total_steps] equals the fuel the request charged, by construction:
    both are fed from the same rule applications. *)

val handle_request :
  ?poll:(unit -> unit) ->
  ?ctx:ctx ->
  ?body:string ->
  Session.t ->
  Protocol.request ->
  Protocol.response
(** The evaluation step alone — fuel accounting included, but no
    request/error/latency counters (exposed for unit tests). [poll] is
    the deadline hook handed to every metered loop the request runs;
    {!handle_line} obtains it from {!Limits.with_deadline}. [ctx]
    defaults to a fresh untraced context. [body] is [Session_edit]'s
    replacement source (already read off the transport). *)
