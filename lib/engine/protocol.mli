(** The engine's line-oriented wire protocol.

    One request per line, one response line per request, answered in
    order. Blank lines and lines starting with [#] are ignored (so batch
    scripts can be annotated). Grammar:

    {v
    request    := kind option* arg*
    option     := KEY '=' VALUE            (before the positional args)
    kind       := 'normalize' | 'check' | 'skeletons' | 'lint' | 'testgen'
                | 'prove' | 'stats' | 'metrics' | 'slowlog'
                | 'session-open' | 'session-edit' | 'session-status' | 'quit'

    normalize [fuel=N] SPEC TERM           evaluate TERM (the rest of the
                                           line, its spacing kept)
                                           against SPEC
    check     SPEC                         completeness + consistency
    skeletons SPEC                         missing-axiom left-hand sides
    lint      SPEC                         all lint findings (one per line)
    testgen [impl=NAME] [count=N] [seed=S] SPEC
                                           run the spec's generated
                                           conformance suite against a
                                           registered implementation
    prove [fuel=N] SPEC VARS LHS == RHS    equational proof; VARS is '-'
                                           or 'q:Queue,i:Item'
    stats [verbose=true]                   metrics counters; verbose adds
                                           wall-clock latency
    metrics                                Prometheus text exposition
    slowlog                                slow-request ring log entries
    session-open SPEC                      open the versioned document for
                                           a loaded spec; full check
    session-edit lines=N SPEC              replace the document source with
                                           the N raw lines that follow;
                                           O(edit) incremental re-check
    session-status SPEC                    version + per-obligation lines
    quit                                   close the session
    v}

    A word is a run of characters other than space and tab. A line
    whose kind is known but whose words do not fit its row is answered
    [KIND expects: USAGE], USAGE being the row's line above.

    Responses:

    {v
    response := 'ok' payload | 'error' CODE message
    CODE     := 'protocol' | 'unknown-spec' | 'unknown-impl' | 'parse'
              | 'fuel' | 'timeout' | 'internal' | 'slowlog' | 'busy'
    v}

    [slowlog] answers a [slowlog] request when the slow-request log is
    disabled; [busy] is the one line a socket server sends a client it
    turns away beyond its connection limit.

    {!render} is the one place a reply becomes protocol text: it
    sanitizes every line it prints (see {!sanitize}), so a payload, an
    error message or a framed line never carries a raw CR, LF or TAB,
    whatever request bytes or term renderings it echoes. Replies are
    one line, except for the framed bodies ({!Ok_framed}): [metrics],
    [slowlog], [lint], [testgen] and [session-status] answer a header
    line announcing how many lines follow ([ok metrics lines=N] /
    [ok slowlog entries=N ...] / [ok lint SPEC findings=N] / [ok testgen
    SPEC impl=NAME seed=S count=N size=K failures=F axioms=A] / [ok
    session-status SPEC ... obligations=N ...]) and then exactly that
    many further lines, so line-oriented clients can frame the body. An
    error response never kills the session — the next request is served
    normally. *)

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
  | Ok_framed of { header : string; body : string list }
      (** A framed reply: [ok HEADER] and then one line per [body]
          element. The header announces the body's length. *)
  | Error_response of { code : string; message : string }

val parse : string -> (request option, string) result
(** [Ok None] for blank/comment lines; [Error message] for malformed
    requests (unknown kind, bad arity, bad option). Every kind is read
    by one row of a table — its keyword, option keys, usage line and
    builder — from which {!kinds}, the unknown-request message and the
    arity errors are derived. *)

val render : response -> string
(** The response text, final newline not included: one line, or a framed
    reply's lines joined by newlines. Each line is {!sanitize}d — the
    reply invariant of the protocol is held here and nowhere else. *)

val payload : response -> string option
(** An ok reply's rendered text after [ok ]: its sanitized lines joined
    by newlines — what the result store keeps of a check, lint, testgen
    or proof reply. [None] for an error. *)

val of_payload : string -> response
(** The reply a {!payload} came from: one line is an {!Ok_response},
    several are an {!Ok_framed}. For any [p] that {!payload} returned,
    [render (of_payload p)] is ["ok " ^ p]. *)

val kinds : string list
(** Every kind keyword, once, in the order of the request table's rows,
    which is the order metrics report them — the one list of request
    kinds; {!Metrics} keys its per-kind counters on it. *)

val kind_index : request -> int
(** The position of the request's kind in {!kinds}. *)

val kind_name : request -> string
(** The request's kind keyword: the {!kind_index}-th of {!kinds}. *)

val spec_name : request -> string option
(** The specification the request names, when its kind has one — what a
    slow-request log entry records. *)

val sanitize : string -> string
(** Collapses all whitespace runs (CR, LF and TAB included) to single
    spaces and trims the ends, so the text fits one protocol line.
    {!render} applies it to every line it prints; callers build replies
    from raw text and leave it to [render]. *)
