(* Child processes: the `adtc serve` servers and the replay processes.
   Every child is tracked until it has been waited for, so a run that
   fails part-way can still stop them all. *)

let children : int list ref = ref []

(* Standard output and error go to [out]. The environment is passed on
   as it is: run.py has already dropped the settings that would change
   what is measured. *)
let spawn ~exe ~args ~out =
  let fd =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd;
        Unix.close null)
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) null fd fd)
  in
  children := pid :: !children;
  pid

let forget pid = children := List.filter (fun p -> p <> pid) !children

let describe = function
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "exited with code %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "stopped by signal %d" n)

(* The child's exit, waiting at most [timeout] seconds before ending it. *)
let wait ~timeout pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.002;
      go ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Error (Printf.sprintf "did not exit within %g s" timeout)
    | _, status -> describe status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let result = go () in
  forget pid;
  result

(* On the way out of a failed run. *)
let end_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* {1 The server} *)

type server = { pid : int; probe : Client.conn; setup_s : float }

(* Readiness is a successful connect, retried until the server listens;
   a server that exits first fails the run. *)
let connect_when_ready ~pid path =
  let deadline = Unix.gettimeofday () +. 120. in
  let rec go () =
    match Client.connect path with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _, status ->
        forget pid;
        failwith
          ("adtc serve exited during start-up: "
          ^ match describe status with Ok () -> "code 0" | Error e -> e));
      if Unix.gettimeofday () > deadline then
        failwith "adtc serve did not accept connections within 120 s";
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

(* Set-up time runs from the spawn to the first reply, a [stats] probe
   that touches no cache and no store. *)
let start ~exe ~args ~socket ~log =
  let t0 = Stats.now_ns () in
  let pid = spawn ~exe ~args ~out:log in
  let probe = connect_when_ready ~pid socket in
  Client.send probe "stats";
  let reply = Client.read_line probe in
  let setup_s = float_of_int (Stats.now_ns () - t0) *. 1e-9 in
  if not (String.starts_with ~prefix:"ok stats" reply) then
    failwith ("unexpected reply to the stats probe: " ^ reply);
  { pid; probe; setup_s }

(* SIGTERM makes the server drain its connections and flush its store. *)
let stop pid =
  Unix.kill pid Sys.sigterm;
  match wait ~timeout:30. pid with
  | Ok () -> ()
  | Error e -> failwith ("adtc serve " ^ e)

let peak_rss_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        let line = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" Fun.id
        else go ()
      in
      go ())
