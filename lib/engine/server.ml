let serve ?(echo = false) session ic oc =
  let say line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  (* the dispatcher reads session-edit bodies through this, off the same
     transport the request line arrived on *)
  let read_line () =
    match input_line ic with
    | line -> Some line
    | exception End_of_file -> None
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line -> (
      if echo then say ("> " ^ Protocol.sanitize line);
      match Dispatch.handle_line ~read_line session line with
      | Dispatch.Silent -> loop ()
      | Dispatch.Reply response ->
        say response;
        loop ()
      | Dispatch.Closed response -> say response)
  in
  loop ();
  (* results computed on this connection survive the process: flush the
     session's buffered store records before the transport goes away *)
  Session.persist_flush session

(* {1 The concurrent socket server} *)

let default_max_clients = 64

(* Active connections, so shutdown can drain them: [shutdown SHUTDOWN_RECEIVE]
   forces end-of-file on a worker blocked reading its next request, while a
   worker mid-request finishes and answers before it notices — in-flight work
   drains, idle connections close. The registry is shared by every accept
   domain, so admission control is global across the pool. *)
type registry = {
  lock : Mutex.t;
  done_ : Condition.t;  (** Signalled whenever a worker retires. *)
  active : (int, Unix.file_descr) Hashtbl.t;
  mutable next_id : int;
}

let admit reg ~max_clients client =
  Mutex.protect reg.lock (fun () ->
      if Hashtbl.length reg.active >= max_clients then None
      else begin
        let id = reg.next_id in
        reg.next_id <- id + 1;
        Hashtbl.replace reg.active id client;
        Some id
      end)

let retire reg id =
  Mutex.protect reg.lock (fun () ->
      Hashtbl.remove reg.active id;
      Condition.broadcast reg.done_)

let drain reg =
  Mutex.protect reg.lock (fun () ->
      Hashtbl.iter
        (fun _ fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        reg.active;
      while Hashtbl.length reg.active > 0 do
        Condition.wait reg.done_ reg.lock
      done)

(* Best-effort write of one protocol line. EINTR is retried — a signal
   landing mid-refusal must not kill the accept loop that called us — and
   every other write failure (EPIPE, ECONNRESET, EAGAIN, ...) means the
   client is gone or unwritable: drop it, the caller closes the fd. *)
let send_line fd line =
  let bytes = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then
      match Unix.write fd bytes off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> ()
  in
  go 0

let busy message =
  Protocol.render (Protocol.Error_response { code = "busy"; message })

let busy_line max_clients =
  busy
    (Fmt.str "server is at capacity (max-clients=%d); retry later" max_clients)

(* One client, one worker thread (inside some accept domain). A disconnect —
   mid-response included — must drop this client only: SIGPIPE is ignored
   process-wide ([serve_socket]), so a write into a closed connection
   surfaces as an exception caught here. The caller owns the fd's
   retire/close epilogue. *)
let handle_client session client =
  let ic = Unix.in_channel_of_descr client in
  let oc = Unix.out_channel_of_descr client in
  (try serve session ic oc with
  | Sys_error _ | End_of_file
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
    -> ()
  | e ->
    Fmt.epr "adtc engine: client handler died: %s@." (Printexc.to_string e));
  try flush oc with Sys_error _ -> ()

let refuse_non_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ ->
    failwith
      (Fmt.str "%s exists and is not a socket; refusing to replace it" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let serve_socket ?(max_clients = default_max_clients) ?(domains = 1)
    ?(handle_signals = true) ?(stop = ref false) session ~path =
  if max_clients < 1 then
    invalid_arg "Server.serve_socket: max_clients must be positive";
  if domains < 1 then
    invalid_arg "Server.serve_socket: domains must be positive";
  refuse_non_socket path;
  (* without this, a client disconnecting mid-response kills the whole
     engine with SIGPIPE before any exception can be raised *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if handle_signals then
    List.iter
      (fun signal ->
        Sys.set_signal signal (Sys.Signal_handle (fun _ -> stop := true)))
      [ Sys.sigint; Sys.sigterm ];
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Closing a listener resets every connection still queued on it. So
     unlink the path first (a client connecting from then on gets ENOENT),
     shut the listener down (one that already found the path gets
     ECONNREFUSED), answer whatever is already queued busy, and only then
     close. *)
  let listening = ref true in
  let close_listener () =
    if !listening then begin
      listening := false;
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      (try Unix.shutdown sock Unix.SHUTDOWN_RECEIVE
       with Unix.Unix_error _ -> ());
      let rec refuse_backlog () =
        match Unix.accept sock with
        | client, _ ->
          send_line client (busy "server is shutting down; retry later");
          (try Unix.close client with Unix.Unix_error _ -> ());
          refuse_backlog ()
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          refuse_backlog ()
        | exception Unix.Unix_error _ -> ()
      in
      refuse_backlog ();
      try Unix.close sock with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect ~finally:close_listener @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock (max 8 max_clients);
  (* every domain of the pool accepts on this one fd; non-blocking, so a
     domain that loses the accept race gets EAGAIN instead of parking on a
     connection another domain already took *)
  Unix.set_nonblock sock;
  Fmt.epr "adtc engine: listening on %s (max %d clients%s)@." path max_clients
    (if domains = 1 then "" else Fmt.str ", %d domains" domains);
  let reg =
    {
      lock = Mutex.create ();
      done_ = Condition.create ();
      active = Hashtbl.create 16;
      next_id = 0;
    }
  in
  (* [stop] is a plain ref for API and signal-handler compatibility; the
     pool reads this atomic mirror instead, which the watcher loop below
     keeps in sync — cross-domain visibility of a non-atomic ref is not
     guaranteed by the memory model *)
  let stopping = Atomic.make false in
  let accepting = Atomic.make domains in
  let worker reg id client =
    (* retire strictly before close: drain shuts fds down through the
       registry, and a retired-late fd number could already be recycled
       for a different connection. Fun.protect: a raising handler must
       never leak the admission slot. *)
    Fun.protect
      ~finally:(fun () ->
        retire reg id;
        try Unix.close client with Unix.Unix_error _ -> ())
      (fun () -> handle_client session client)
  in
  let accept_loop () =
    Fun.protect ~finally:(fun () -> Atomic.decr accepting) @@ fun () ->
    while not (Atomic.get stopping) do
      (* wake at least every 100ms to observe shutdown *)
      match Unix.select [ sock ] [] [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept sock with
        | exception
            Unix.Unix_error
              ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
          -> ()
        | client, _ -> (
          (* the listener's non-blocking flag is inherited on some systems;
             workers want plain blocking reads *)
          (try Unix.clear_nonblock client with Unix.Unix_error _ -> ());
          match admit reg ~max_clients client with
          | None ->
            (* backpressure: refuse beyond capacity with a protocol error
               the client can parse, rather than queueing unboundedly *)
            send_line client (busy_line max_clients);
            (try Unix.close client with Unix.Unix_error _ -> ())
          | Some id -> (
            match Thread.create (fun () -> worker reg id client) () with
            | (_ : Thread.t) -> ()
            | exception _ ->
              (* thread exhaustion: treat like a refusal, never leak the
                 admission slot *)
              retire reg id;
              (try Unix.close client with Unix.Unix_error _ -> ()))))
    done
  in
  let pool = List.init domains (fun _ -> Domain.spawn accept_loop) in
  (* the calling thread is the only reader of [stop] (main domain: signal
     handlers run here); it mirrors the flag for the pool *)
  while not !stop do
    match Unix.select [] [] [] 0.05 with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Atomic.set stopping true;
  (* close the listener as soon as no domain accepts on it, not after the
     drain, which may take as long as the slowest in-flight request *)
  while Atomic.get accepting > 0 do
    Unix.sleepf 0.005
  done;
  close_listener ();
  Fmt.epr "adtc engine: shutting down, draining %d client(s)@."
    (Mutex.protect reg.lock (fun () -> Hashtbl.length reg.active));
  (* drain before join: a domain does not terminate until its worker
     threads do, and an idle worker only unblocks once drain forces
     end-of-file on its fd *)
  drain reg;
  List.iter Domain.join pool;
  (* workers flush per-connection, but a drain can cut a connection before
     its epilogue; one final flush makes shutdown durable *)
  Session.persist_flush session
