(** Front ends: the request loop over channels and over a Unix socket.

    [serve] reads one request line at a time, answers, and flushes —
    suitable for stdio pipelines ([adtc serve]) and for expect-testable
    batch replays ([adtc batch], which echoes each input line prefixed
    with [> ] so the transcript documents itself).

    [serve_socket] is the concurrent front end: a fixed pool of OCaml 5
    domains (one per core when sized by the CLI) all accept on the shared
    listening socket, and every accepted connection gets a worker thread
    inside the domain that accepted it — all of them sharing one
    {!Session}, whose caches and metrics are striped per domain. The
    session API is the abstraction boundary (Liskov & Zilles): nothing in
    the protocol changed when the server under it became concurrent, and
    nothing changed again when it became parallel. Admission is capped
    globally across the pool; a client beyond the cap is answered
    [error busy ...] and closed immediately — bounded backpressure
    instead of an unbounded queue. SIGPIPE is ignored and client I/O
    failures are contained per-connection, so a client disconnecting
    mid-response drops that client only, never the engine. *)

val serve : ?echo:bool -> Session.t -> in_channel -> out_channel -> unit
(** Loops until end of input or a [quit] request, then flushes the
    session's store. [echo] (default false) copies every input line to
    the output prefixed with [> ], {!Protocol.sanitize}d like the replies
    below it. *)

val default_max_clients : int
(** 64. *)

val send_line : Unix.file_descr -> string -> unit
(** Best-effort write of one line (a trailing newline is appended):
    retries [EINTR], swallows every other write error — the accept loop
    uses it to refuse busy clients, and a signal or a vanished client
    must never kill the server. Exposed for the regression tests. *)

val serve_socket :
  ?max_clients:int ->
  ?domains:int ->
  ?handle_signals:bool ->
  ?stop:bool ref ->
  Session.t ->
  path:string ->
  unit
(** Binds [path] and serves until told to stop. A stale socket file at
    [path] is unlinked first; anything else already there raises
    [Failure] — the server never deletes a file it cannot have created.

    [max_clients] (default {!default_max_clients}) bounds concurrent
    connections across the whole pool; excess connections receive one
    [error busy] line and are closed. [domains] (default 1) sizes the
    accept pool: each domain runs its own accept loop on the shared
    listening socket and owns the worker threads of the connections it
    accepted ([adtc serve --domains], one per core by default). Raises
    [Invalid_argument] when either is not positive.

    [handle_signals] (default true) installs SIGINT/SIGTERM handlers
    that set [stop]; tests pass [false] and flip [stop] themselves. Once
    [stop] is observed (within ~100ms), the pool stops accepting and the
    socket is removed at once: a later client is refused, and one the
    kernel had already queued is answered [error busy] (shutting down)
    rather than reset. Then idle connections are forced to end-of-file,
    every in-flight request finishes and is answered, and the domains are
    joined — graceful drain, not abort. *)
