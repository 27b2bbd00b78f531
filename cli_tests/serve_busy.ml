(* Drives a real [adtc serve --socket --max-clients 1 --domains 1]
   subprocess through its busy-backpressure and graceful-shutdown paths,
   printing a deterministic transcript for the expect test:

   - client A takes the single slot and is served;
   - client B is refused with [error busy] and closed;
   - A quits, freeing the slot, and a later client C is served from the
     same session (the shared cache is already warm: steps=0 — memos are
     per domain, so this holds with the one domain the server is given);
   - SIGTERM shuts the server down gracefully and removes its socket. *)

let die fmt =
  Fmt.kstr
    (fun message ->
      prerr_endline ("serve_busy: " ^ message);
      exit 1)
    fmt

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      (* a stuck server must fail the test, not hang the build *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline then
        die "server socket never came up";
      ignore (Unix.select [] [] [] 0.01);
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

let () =
  if Array.length Sys.argv <> 3 then die "usage: serve_busy ADTC SPEC";
  let adtc = Sys.argv.(1) and spec = Sys.argv.(2) in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "adtc-busy-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let pid =
    Unix.create_process adtc
      [| adtc; "serve"; spec; "--socket"; path; "--max-clients"; "1";
         "--domains"; "1" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let a = connect path in
  send a "normalize Queue IS_EMPTY?(NEW)";
  print_endline ("A: " ^ recv a);
  (* the single slot is taken: the next connection is refused, not queued *)
  let b = connect path in
  print_endline ("B: " ^ recv b);
  print_endline ("B: " ^ recv b);
  close b;
  send a "quit";
  print_endline ("A: " ^ recv a);
  close a;
  (* the slot frees when A's worker retires; retry until admitted. The
     session survives across connections: C hits the warm shared cache. *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec served () =
    let c = connect path in
    send c "normalize Queue IS_EMPTY?(NEW)";
    let r = recv c in
    close c;
    if String.length r >= 10 && String.equal (String.sub r 0 10) "error busy"
    then begin
      if Unix.gettimeofday () > deadline then die "slot never freed";
      ignore (Unix.select [] [] [] 0.01);
      served ()
    end
    else r
  in
  print_endline ("C: " ^ served ());
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> Fmt.pr "server exit: %d@." code
  | _, Unix.WSIGNALED signal -> Fmt.pr "server killed by signal %d@." signal
  | _, Unix.WSTOPPED _ -> die "server stopped unexpectedly");
  Fmt.pr "socket removed: %b@." (not (Sys.file_exists path))
