(** The engine's line-oriented wire protocol.

    One request per line, one response line per request, answered in
    order. Blank lines and lines starting with [#] are ignored (so batch
    scripts can be annotated). Grammar:

    {v
    request    := kind option* arg*
    option     := KEY '=' VALUE            (before the positional args)
    kind       := 'normalize' | 'check' | 'skeletons' | 'lint' | 'testgen'
                | 'prove' | 'session-open' | 'session-edit'
                | 'session-status' | 'stats' | 'metrics' | 'slowlog' | 'quit'

    normalize [fuel=N] SPEC TERM           evaluate TERM against SPEC
    check     SPEC                         completeness + consistency
    skeletons SPEC                         missing-axiom left-hand sides
    lint      SPEC                         all lint findings (one per line)
    testgen [impl=NAME] [count=N] [seed=S] SPEC
                                           run the spec's generated
                                           conformance suite against a
                                           registered implementation
    prove [fuel=N] SPEC VARS LHS == RHS    equational proof; VARS is '-'
                                           or 'q:Queue,i:Item'
    session-open SPEC                      open the versioned document for
                                           a loaded spec; full check
    session-edit lines=N SPEC              replace the document source with
                                           the N raw lines that follow;
                                           O(edit) incremental re-check
    session-status SPEC                    version + per-obligation lines
    stats [verbose=true]                   metrics counters; verbose adds
                                           wall-clock latency
    metrics                                Prometheus text exposition
    slowlog                                slow-request ring log entries
    quit                                   close the session
    v}

    Responses:

    {v
    response := 'ok' payload | 'error' CODE message
    CODE     := 'protocol' | 'unknown-spec' | 'unknown-impl' | 'parse'
              | 'fuel' | 'timeout' | 'internal'
    v}

    Payloads are single-line (term renderings are whitespace-squashed by
    {!sanitize}), with three exceptions: [metrics], [slowlog] and [lint]
    answer a first line announcing how many raw lines follow ([ok metrics
    lines=N] / [ok slowlog entries=N ...] / [ok lint SPEC findings=N])
    and then exactly that many further lines, so line-oriented clients
    can frame the body; [testgen] frames identically with [ok testgen
    SPEC impl=NAME seed=S failures=N axioms=K] followed by one line per
    axiom. An error response never kills the session — the next request
    is served normally. *)

type request =
  | Normalize of { spec : string; term : string; fuel : int option }
  | Check of { spec : string }
  | Skeletons of { spec : string }
  | Lint of { spec : string }
      (** Every lint finding for the specification, one {!Analysis}
          diagnostic line per finding. *)
  | Testgen of {
      spec : string;
      impl : string option;  (** Registry name; the spec's default if absent. *)
      count : int option;
      seed : int option;
    }
      (** Run the generated conformance suite for a builtin-registry
          implementation, one verdict line per axiom. *)
  | Prove of {
      spec : string;
      vars : (string * string) list;  (** (variable, sort name) pairs. *)
      lhs : string;
      rhs : string;
      fuel : int option;
    }
  | Session_open of { spec : string }
      (** Open (or reset) the versioned document for a loaded
          specification — checks every obligation. *)
  | Session_edit of { spec : string; lines : int }
      (** Replace the document's source with the [lines] raw body lines
          that follow the request line; only obligations inside the
          edit's invalidation cone are re-checked. *)
  | Session_status of { spec : string }
      (** The document's version and per-obligation verdict lines. *)
  | Stats of { verbose : bool }
  | Metrics  (** Prometheus text-format exposition of the session. *)
  | Slowlog  (** Dump the slow-request ring log. *)
  | Quit

type response =
  | Ok_response of string  (** The payload, without the leading [ok]. *)
  | Error_response of { code : string; message : string }

val parse : string -> (request option, string) result
(** [Ok None] for blank/comment lines; [Error message] for malformed
    requests (unknown kind, bad arity, bad option). *)

val render : response -> string
(** The response line, newline not included. *)

val kinds : string list
(** Every kind keyword, once, in the order metrics report them — the one
    list of request kinds; {!Metrics} keys its per-kind counters on it. *)

val kind_index : request -> int
(** The position of the request's kind in {!kinds}. *)

val kind_name : request -> string
(** The request's kind keyword: the {!kind_index}-th of {!kinds}. *)

val spec_name : request -> string option
(** The specification the request names, when its kind has one — what a
    slow-request log entry records. *)

val sanitize : string -> string
(** Collapses all whitespace runs (newlines included) to single spaces —
    every payload fits one protocol line. *)
