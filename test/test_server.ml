(* The concurrent socket server: simultaneous clients with interleaved
   requests each get their own correct responses; a client disconnecting
   mid-response drops that client only; connections beyond the cap are
   refused with [error busy]; shutdown drains gracefully; and the server
   refuses to unlink a non-socket at its path. *)

open Adt_specs
open Engine

let socket_counter = ref 0

let socket_path () =
  incr socket_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Fmt.str "adtc-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)

(* CI runs the whole suite at 1 and N domains (ADTC_TEST_DOMAINS): every
   server test below exercises the domain pool without a separate matrix
   of tests *)
let default_domains =
  match Sys.getenv_opt "ADTC_TEST_DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

let start_server ?(max_clients = 8) ?(domains = default_domains) session =
  let path = socket_path () in
  let stop = ref false in
  let thread =
    Thread.create
      (fun () ->
        Server.serve_socket ~max_clients ~domains ~handle_signals:false ~stop
          session ~path)
      ()
  in
  (path, stop, thread)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      (* a stuck server must fail the test, not hang the suite *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "server socket never came up";
      Thread.delay 0.01;
      go ()
  in
  go ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c =
  match input_line c.ic with
  | line -> line
  | exception End_of_file -> "<eof>"

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let check_prefix what prefix got =
  Alcotest.(check bool)
    (Fmt.str "%s: %S starts with %S" what got prefix)
    true
    (String.length got >= String.length prefix
    && String.equal (String.sub got 0 (String.length prefix)) prefix)

let queue_session () = Session.create [ Queue_spec.spec ]

let test_concurrent_clients () =
  let session = queue_session () in
  let path, stop, server = start_server session in
  let n = 5 in
  let clients = List.init n (fun _ -> connect path) in
  let item_of i = (i mod 3) + 1 in
  let round () =
    (* every client sends before any reads: the requests are in flight
       together, and each answer must come back on its own connection *)
    List.iteri
      (fun i c ->
        send c (Fmt.str "normalize Queue FRONT(ADD(NEW, ITEM%d))" (item_of i)))
      clients;
    List.iteri
      (fun i c ->
        let r = recv c in
        check_prefix (Fmt.str "client %d" i) "ok normalize" r;
        Alcotest.(check bool)
          (Fmt.str "client %d got its own answer: %S" i r)
          true
          (Astring_contains.contains r (Fmt.str "ITEM%d" (item_of i))))
      clients
  in
  round ();
  (* a client that pipelines a pile of requests and vanishes without
     reading: the server's writes into the dead connection must drop this
     client only *)
  let rude = connect path in
  for _ = 1 to 100 do
    send rude "normalize Queue FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2)))"
  done;
  close rude;
  (* everyone else is still being served, repeatedly *)
  round ();
  round ();
  (* graceful shutdown: drains the still-connected idle clients *)
  stop := true;
  Thread.join server;
  List.iter close clients;
  Alcotest.(check bool) "socket removed on exit" false (Sys.file_exists path)

let test_busy_backpressure () =
  let session = queue_session () in
  let path, stop, server = start_server ~max_clients:1 session in
  let a = connect path in
  send a "normalize Queue IS_EMPTY?(NEW)";
  check_prefix "first client is served" "ok normalize" (recv a);
  (* the slot is taken: the next connection is refused, not queued *)
  let b = connect path in
  Alcotest.(check string) "busy reply"
    "error busy server is at capacity (max-clients=1); retry later" (recv b);
  Alcotest.(check string) "refused connection is closed" "<eof>" (recv b);
  close b;
  (* the first client releases its slot; a later client gets served, and
     the session it sees is the same one (its cache is already warm) *)
  send a "quit";
  Alcotest.(check string) "quit" "ok bye" (recv a);
  close a;
  let deadline = Unix.gettimeofday () +. 10. in
  let rec served () =
    let c = connect path in
    (* while the slot is still taken, the refusal may close the connection
       before the request is written (EPIPE); the busy line is read all
       the same *)
    (try send c "normalize Queue IS_EMPTY?(NEW)" with Sys_error _ -> ());
    let r = recv c in
    close c;
    if String.length r >= 10 && String.sub r 0 10 = "error busy" then begin
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "slot never freed after quit";
      Thread.delay 0.01;
      served ()
    end
    else r
  in
  (* interpreter memos are per-domain slots: a warm hit (steps=0) is only
     guaranteed when one domain serves both connections *)
  if default_domains = 1 then
    Alcotest.(check string) "warm cache across connections"
      "ok normalize steps=0 true" (served ())
  else check_prefix "served across connections" "ok normalize" (served ());
  stop := true;
  Thread.join server

let test_concurrent_tracing () =
  (* threshold 0: every request enters the slow-request ring, so the log
     is a complete record of what the concurrent clients did *)
  let session = Session.create ~slowlog_ms:0. [ Queue_spec.spec ] in
  let path, stop, server = start_server session in
  let n_clients = 4 and rounds = 5 in
  let clients = List.init n_clients (fun _ -> connect path) in
  for _ = 1 to rounds do
    List.iter
      (fun c -> send c "normalize Queue FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2)))")
      clients;
    List.iter (fun c -> check_prefix "answered" "ok normalize" (recv c)) clients
  done;
  (* read the ring over the wire: a first line announcing the entry
     count, then one line per entry *)
  let reader = List.hd clients in
  send reader "slowlog";
  let header = recv reader in
  let announced =
    try Scanf.sscanf header "ok slowlog entries=%d" Fun.id
    with Scanf.Scan_failure _ | End_of_file ->
      Alcotest.failf "unexpected slowlog header %S" header
  in
  Alcotest.(check int) "every request was logged" (n_clients * rounds) announced;
  let entries = List.init announced (fun _ -> recv reader) in
  stop := true;
  List.iter close clients;
  Thread.join server;
  let trace_ids =
    List.map
      (fun line ->
        check_prefix "entry" "slow trace=" line;
        (* trace IDs are process-unique even under concurrency, and every
           entry carries the nested per-phase span breakdown *)
        List.iter
          (fun fragment ->
            Alcotest.(check bool)
              (Fmt.str "%S has %S" line fragment)
              true
              (Astring_contains.contains line fragment))
          [ "kind=normalize"; "spec=Queue"; "spans=parse:"; "dispatch:"; "respond:" ];
        Scanf.sscanf line "slow trace=%s@ " Fun.id)
      entries
  in
  Alcotest.(check int) "concurrent trace ids are distinct" announced
    (List.length (List.sort_uniq String.compare trace_ids))

(* Regression (PR 7): send_line only caught EPIPE/ECONNRESET, so an
   EINTR/EAGAIN while refusing a busy client propagated into the accept
   loop and killed the server. It must swallow every write failure and
   retry EINTR. *)
let test_send_line_errors () =
  (* serve_socket installs this process-wide; this test may run first *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a vanished client: the peer is closed, the write raises EPIPE or
     ECONNRESET — send_line must return, not raise *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  Server.send_line a "error busy server is at capacity";
  Server.send_line a "error busy server is at capacity";
  Unix.close a;
  (* an unwritable client: the send buffer is full and the fd non-blocking,
     the write raises EAGAIN — dropped client, not a dead server *)
  let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock c;
  let junk = Bytes.make 65536 'x' in
  (try
     while true do
       ignore (Unix.write c junk 0 (Bytes.length junk))
     done
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  Server.send_line c "error busy server is at capacity";
  Unix.close c;
  Unix.close d

(* Regression (PR 7): the busy-refusal write happens on the accept path;
   a signal storm landing EINTR mid-refusal must not kill the server. *)
let test_busy_refusal_under_signal_pressure () =
  let previous = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigusr1 previous)
  @@ fun () ->
  let session = queue_session () in
  let path, stop, server = start_server ~max_clients:1 session in
  let a = connect path in
  send a "normalize Queue IS_EMPTY?(NEW)";
  check_prefix "slot holder served" "ok normalize" (recv a);
  let pid = Unix.getpid () in
  let storming = Atomic.make true in
  let pounder =
    Thread.create
      (fun () ->
        while Atomic.get storming do
          Unix.kill pid Sys.sigusr1;
          Thread.delay 0.0005
        done)
      ()
  in
  (* every refusal happens while signals fly; each must be a clean busy
     line + close, and the server must survive all of them *)
  for i = 1 to 30 do
    let b = connect path in
    (match recv b with
    | r -> check_prefix (Fmt.str "refusal %d" i) "error busy" r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    close b
  done;
  Atomic.set storming false;
  Thread.join pounder;
  (* the accept loop is alive: the slot frees and a new client is served *)
  send a "quit";
  Alcotest.(check string) "quit" "ok bye" (recv a);
  close a;
  let deadline = Unix.gettimeofday () +. 10. in
  let rec served () =
    let c = connect path in
    (* while the slot is still taken, the refusal may close the connection
       before the request is written (EPIPE); the busy line is read all
       the same *)
    (try send c "normalize Queue IS_EMPTY?(NEW)" with Sys_error _ -> ());
    let r = recv c in
    close c;
    if String.length r >= 10 && String.sub r 0 10 = "error busy" then begin
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "server died under signal pressure";
      Thread.delay 0.01;
      served ()
    end
    else r
  in
  check_prefix "served after the storm" "ok normalize" (served ());
  stop := true;
  Thread.join server

(* Regression (PR 7): workers closed the client fd before retiring it from
   the registry, so a drain racing a disconnect could shutdown a recycled
   descriptor owned by a different connection. Under load, stop mid-traffic:
   every client must end with a complete answer or a clean EOF, and the
   server must drain and join. *)
let test_drain_retire_race_under_load () =
  let session = queue_session () in
  let path, stop, server = start_server ~max_clients:16 session in
  let n = 8 in
  let anomalies = Array.make n "" in
  (* answers are checked on the main thread after the join *)
  let answers = Array.make n [] in
  let clients =
    Array.init n (fun i ->
        Thread.create
          (fun () ->
            (* churn: short-lived connections so fd numbers recycle while
               drain may be walking the registry *)
            try
              while not !stop do
                let c = connect path in
                (match send c "normalize Queue FRONT(ADD(NEW, ITEM1))" with
                | () -> (
                  match recv c with
                  | "<eof>" -> () (* drained before the answer was read *)
                  | r
                    when String.length r >= 10
                         && String.equal (String.sub r 0 10) "error busy" ->
                    (* closed connections linger in the registry until their
                       worker retires them, so churn can transiently hit the
                       cap: busy is backpressure, not an anomaly *)
                    ()
                  | r -> answers.(i) <- r :: answers.(i)
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
                | exception Sys_error _ ->
                  () (* drain closed the connection under our write *));
                close c
              done
            with
            | Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
              () (* the listener is already gone: clean shutdown *)
            | e -> anomalies.(i) <- Printexc.to_string e)
          ())
  in
  Thread.delay 0.3;
  stop := true;
  (* the server must drain every in-flight worker and join its domains *)
  Thread.join server;
  Array.iter Thread.join clients;
  Array.iteri
    (fun i a ->
      if not (String.equal a "") then
        Alcotest.failf "client %d saw an anomaly during drain: %s" i a)
    anomalies;
  Array.iter
    (List.iter (check_prefix "mid-load answer" "ok normalize"))
    answers;
  Alcotest.(check bool) "socket removed after drain" false
    (Sys.file_exists path)

(* Regression: the accept domains stopped at shutdown, but the listener
   stayed open until the drain finished, so the kernel kept queuing
   connections nobody would accept, and closing the listener reset them.
   Hold the drain open with one request that runs into its 2 s deadline,
   connect a second client after the stop: it must be refused outright or
   get one well-formed error line, never a reset. *)
let pingpong_src =
  {|spec Pingpong
  sort P
  ops
    Z : -> P
    PING : P -> P
    PONG : P -> P
  constructors Z
  vars
    p : P
  axioms
    [ping] PING(p) = PONG(p)
    [pong] PONG(p) = PING(p)
end|}

let test_no_reset_after_stop () =
  let spec =
    match Adt.Parser.parse_spec pingpong_src with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "parse: %a" Adt.Parser.pp_error e
  in
  let session = Session.create ~fuel:100_000_000 ~timeout:2.0 [ spec ] in
  let path, stop, server = start_server session in
  let slow = connect path in
  send slow "normalize Pingpong PING(Z)";
  Thread.delay 0.2;
  stop := true;
  (* the server sees the stop within 50 ms and its accept loops within
     100 ms more; the slow request still has well over a second to run *)
  Thread.delay 0.4;
  let late =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
          ->
          "refused"
        | () -> (
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          let c =
            {
              fd;
              ic = Unix.in_channel_of_descr fd;
              oc = Unix.out_channel_of_descr fd;
            }
          in
          (* the server may close before the request arrives: EPIPE *)
          (try send c "normalize Pingpong Z" with Sys_error _ -> ());
          match recv c with
          | line -> line
          | exception Sys_error e -> "exception: " ^ e))
  in
  let slow_reply = recv slow in
  close slow;
  Thread.join server;
  if not (String.equal late "refused") then
    check_prefix "late client" "error busy" late;
  check_prefix "the in-flight request is answered" "error timeout" slow_reply;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path)

(* The merge-law acceptance: after a concurrent multi-domain run, the
   scraped Prometheus counters equal the exact sum of what the clients
   did — nothing lost to striping, nothing double-counted. *)
let test_multi_domain_exact_metrics () =
  let session = Session.create [ Queue_spec.spec ] in
  let path, stop, server = start_server ~domains:4 ~max_clients:32 session in
  let k = 6 and per = 25 in
  (* workers collect their replies; the assertions run after the join *)
  let replies = Array.make k [] in
  let workers =
    List.init k (fun i ->
        Thread.create
          (fun () ->
            let c = connect path in
            for _ = 1 to per do
              send c
                (Fmt.str "normalize Queue FRONT(ADD(NEW, ITEM%d))"
                   ((i mod 3) + 1));
              replies.(i) <- recv c :: replies.(i)
            done;
            close c)
          ())
  in
  List.iter Thread.join workers;
  Array.iter (List.iter (check_prefix "answered" "ok normalize")) replies;
  let scraper = connect path in
  send scraper "metrics";
  let header = recv scraper in
  let lines =
    try Scanf.sscanf header "ok metrics lines=%d" Fun.id
    with Scanf.Scan_failure _ | End_of_file ->
      Alcotest.failf "unexpected metrics header %S" header
  in
  let body = List.init lines (fun _ -> recv scraper) in
  close scraper;
  stop := true;
  Thread.join server;
  let value_of name =
    let prefix = name ^ " " in
    match
      List.find_opt
        (fun l ->
          String.length l > String.length prefix
          && String.equal (String.sub l 0 (String.length prefix)) prefix)
        body
    with
    | None -> Alcotest.failf "series %s not scraped" name
    | Some l ->
      float_of_string
        (String.sub l (String.length prefix)
           (String.length l - String.length prefix))
  in
  (* k*per normalizes + the metrics request itself, counted before its
     own snapshot *)
  Alcotest.(check (float 0.0))
    "requests_total is the exact sum across stripes"
    (float_of_int ((k * per) + 1))
    (value_of "adtc_requests_total");
  Alcotest.(check (float 0.0))
    "per-kind normalize counter is exact"
    (float_of_int (k * per))
    (value_of "adtc_requests_kind_total{kind=\"normalize\"}");
  (* the scrape's own latency is observed only after its response was
     rendered, so the histogram holds exactly the k*per normalizes *)
  Alcotest.(check (float 0.0))
    "latency histogram lost no observation"
    (float_of_int (k * per))
    (value_of "adtc_request_latency_seconds_count");
  Alcotest.(check (float 0.0))
    "no errors under concurrency" 0.
    (value_of "adtc_errors_total")

let test_refuses_non_socket () =
  let path = Filename.temp_file "adtc-not-a-socket" ".txt" in
  let oc = open_out path in
  output_string oc "precious data\n";
  close_out oc;
  let session = queue_session () in
  (match Server.serve_socket ~handle_signals:false session ~path with
  | () -> Alcotest.fail "serve_socket bound over a regular file"
  | exception Failure message ->
    Alcotest.(check bool)
      (Fmt.str "refusal names the problem: %S" message)
      true
      (Astring_contains.contains message "refusing"));
  (* and the file is untouched *)
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "file survived" "precious data" line

let suite =
  [
    Helpers.case "concurrent clients get isolated responses, disconnects survive"
      test_concurrent_clients;
    Helpers.case "busy backpressure beyond max-clients" test_busy_backpressure;
    Helpers.case "concurrent tracing: distinct ids, nested spans in the slowlog"
      test_concurrent_tracing;
    Helpers.case "send_line swallows EPIPE/EAGAIN and survives" test_send_line_errors;
    Helpers.case "busy refusal survives signal pressure"
      test_busy_refusal_under_signal_pressure;
    Helpers.case "drain vs retire: no fd race under churn"
      test_drain_retire_race_under_load;
    Helpers.case "a client connecting after stop is never reset"
      test_no_reset_after_stop;
    Helpers.case "multi-domain metrics merge exactly on scrape"
      test_multi_domain_exact_metrics;
    Helpers.case "refuses to unlink a non-socket path" test_refuses_non_socket;
  ]
