(** The request dispatcher: one protocol request in, one response out.

    Error isolation is the contract: whatever a request does — name an
    unloaded specification, fail to parse, exhaust its fuel or wall-clock
    budget, or trip an internal exception — the dispatcher answers with a
    structured [error] line and leaves the session intact for the next
    request. Every request updates the session's {!Metrics}.

    Each normalize and prove request builds one rule hook, the core's
    [?on_rule] ({!Adt.Rewrite}), handed to every metered loop it runs. At
    each rule application the hook charges one step to the request's
    fuel, attributes the rule to the request's trace, then checks the
    request's deadline, so the fuel a request is charged (in [stats], the
    fuel histogram and the slow log) counts every step it took, a
    timed-out request's included.

    When the session has tracing on ({!Session.tracing}), each request is
    wrapped in an {!Obs.Trace} span tree — [parse], [dispatch] (with a
    [rewrite] child around the evaluation proper), [respond] — with
    per-rule step attribution fed by that hook; requests at or above the
    session's slow-log threshold are recorded into {!Session.slowlog}.
    With tracing off, the hook still runs, one closure call per rule
    application, and its trace step is a no-op. *)

type outcome =
  | Silent  (** Blank or comment line: no response. *)
  | Reply of string  (** The rendered response line. *)
  | Closed of string
      (** A [quit] request, with its rendered reply: the server loop
          prints the reply and stops. *)

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
    the one rule hook feeds both, step by step, before it checks the
    deadline. *)

val handle_request : Session.t -> Protocol.request -> Protocol.response
(** The evaluation step alone: untraced, with no deadline, and recording
    no metrics — no request, error, latency or fuel counters (what
    [adtc stats] uses to answer its final [stats] request without
    counting it). A [session-edit] answers a protocol error: it has no
    transport to read its body from. *)
