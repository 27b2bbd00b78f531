(* The benchmark program. [run] measures one workload end to end against a
   real `adtc serve --socket` process (or, with --trace 1, reports the
   per-layer numbers of the traced replay); [replay] is that in-process
   replay, which [run] starts as a separate process; [selftest] checks the
   oracle against the reference rewriter. run.py builds the program and
   calls [run]; see NOTES.md. *)

let usage =
  "bench.exe run --workload W --seed N --seconds S --trace 0|1 --adtc PATH\n\
   bench.exe replay --workload W --seed N --sent N --traced 0|1 [--store DIR]\n\
   bench.exe selftest [--seed N]"

(* extra server starts per run, half before the timed phase and half
   after it, so set-up time is a median of 41 *)
let setup_trials = 40

(* requests per workload part checked against the reference each run *)
let selftest_sample = 8

(* the same, by the stand-alone self-test *)
let selftest_full_sample = 50

let work_dir = Replay.work_dir

(* {1 Files} *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* A store directory's entry files, without its lock. *)
let copy_store src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun n ->
      if Filename.check_suffix n ".adtc" then
        let data = In_channel.with_open_bin (Filename.concat src n) In_channel.input_all in
        Out_channel.with_open_bin (Filename.concat dst n) (fun oc -> output_string oc data))
    (Sys.readdir src)

(* {1 The end-to-end measurement} *)

let server_args (plan : Workload.plan) ~socket ~store =
  [ "serve"; "--socket"; socket; "--domains"; "1" ]
  @ (match plan.cache_capacity with
    | Some n -> [ "--cache-capacity"; string_of_int n ]
    | None -> [])
  @ (match store with Some dir -> [ "--cache-dir"; dir ] | None -> [])
  @ Workload.spec_files

type e2e = {
  args : string list;
  latency_us : Float.Array.t;  (** Sorted. *)
  sent : int;  (** Timed requests. *)
  failed : int;
  untimed_failed : int;  (** Preparation and warm-up replies. *)
  elapsed_s : float;
  setups : float list;
  peak_rss_kb : int;
  server_stats : string;  (** The reply to [stats] after the timed phase. *)
}

let measure ~adtc ~tmp w ~seed ~seconds ~on_prepared =
  let plan = Workload.plan w seed in
  let socket = Filename.concat tmp "adtc.sock" in
  let store = if plan.uses_store then Some (Filename.concat tmp "store") else None in
  let args = server_args plan ~socket ~store in
  let log = Filename.concat tmp "server.log" in
  let start () = Proc.start ~exe:adtc ~args ~socket ~log in
  let failed = ref 0 and untimed_failed = ref 0 and reported = ref 0 in
  let judge counter (r : Workload.req) line =
    if not (Client.reply_matches ~expect:r.expect line) then begin
      incr counter;
      if !reported < 3 then begin
        incr reported;
        Printf.eprintf "reply differs from the oracle\n  request:  %s\n  expected: %s\n  got:      %s\n%!"
          r.line r.expect line
      end
    end
  in
  let untimed conn reqs =
    ignore
      (Client.drive conn ~next:(Client.of_list reqs) ~on_reply:(fun r line _ ->
           judge untimed_failed r line))
  in
  (* restart-db: a first server process fills the store and flushes it on
     SIGTERM, so the measured server starts warm *)
  if plan.prepare <> [] then begin
    let s = start () in
    untimed s.probe plan.prepare;
    Client.close s.probe;
    Proc.stop s.pid
  end;
  on_prepared store;
  (* The host's speed drifts over seconds, so the set-up samples are spread
     over the run. They all load the same copy of the prepared store: the
     measured server adds to the store itself. *)
  let setup_args =
    let copy dir =
      let d = Filename.concat tmp "setup-store" in
      copy_store dir d;
      d
    in
    server_args plan ~socket ~store:(Option.map copy store)
  in
  let setup_runs n =
    List.init n (fun _ ->
        let s = Proc.start ~exe:adtc ~args:setup_args ~socket ~log in
        Client.close s.probe;
        Proc.stop s.pid;
        s.setup_s)
  in
  let setups_before = setup_runs (setup_trials / 2) in
  let s = start () in
  untimed s.probe plan.warmup;
  let latency = Stats.Samples.create () in
  let t0 = Stats.now_ns () in
  let sent =
    Client.drive s.probe
      ~deadline_ns:(t0 + int_of_float (seconds *. 1e9))
      ~next:(fun () -> Some (plan.stream ()))
      ~on_reply:(fun r line ns ->
        Stats.Samples.add latency (float_of_int ns /. 1e3);
        judge failed r line)
  in
  let elapsed_s = float_of_int (Stats.now_ns () - t0) *. 1e-9 in
  (* the server's own counters (memo, persist) after the timed phase *)
  Client.send s.probe "stats";
  let server_stats = Client.read_line s.probe in
  let peak_rss_kb = Proc.peak_rss_kb s.pid in
  Client.close s.probe;
  Proc.stop s.pid;
  let setups_after = setup_runs (setup_trials - (setup_trials / 2)) in
  {
    args;
    latency_us = Stats.Samples.sorted latency;
    sent;
    failed = !failed;
    untimed_failed = !untimed_failed;
    elapsed_s;
    setups = (s.setup_s :: setups_before) @ setups_after;
    peak_rss_kb;
    server_stats;
  }

let median_of l =
  let a = Float.Array.of_list l in
  Float.Array.sort Float.compare a;
  Stats.quantile a 0.5

let end_to_end e =
  let attempted = e.sent in
  [
    ("latency_p50_us", "us", Stats.quantile e.latency_us 0.5);
    ("latency_p99_us", "us", Stats.quantile e.latency_us 0.99);
    ("throughput_rps", "1/s", float_of_int (Float.Array.length e.latency_us) /. e.elapsed_s);
    ("setup_s", "s", median_of e.setups);
    ("peak_rss_mb", "MB", float_of_int e.peak_rss_kb /. 1024.);
    ("ok_frac", "frac", float_of_int (attempted - e.failed) /. float_of_int attempted);
  ]

(* {1 The traced replay} *)

let replay_process ~tmp w ~seed ~sent ~traced ~store =
  let out = Filename.concat tmp (Printf.sprintf "replay-%b.txt" traced) in
  let args =
    [
      "replay"; "--workload"; Workload.name w; "--seed"; string_of_int seed;
      "--sent"; string_of_int sent;
      "--traced"; (if traced then "1" else "0");
    ]
    @ match store with Some dir -> [ "--store"; dir ] | None -> []
  in
  let pid = Proc.spawn ~exe:Sys.executable_name ~args ~out in
  let text = fun () -> In_channel.with_open_bin out In_channel.input_all in
  (match Proc.wait ~timeout:150. pid with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "the replay %s:\n%s" e (text ())));
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; v ] -> Option.map (fun v -> (name, v)) (float_of_string_opt v)
      | _ -> None)
    (String.split_on_char '\n' (text ()))

(* Per-layer metrics: (name, unit), from the replays. *)
let per_layer =
  [
    ("protocol.parse_us", "us"); ("protocol.render_us", "us");
    ("protocol.reply_bytes", "bytes"); ("session.find_us", "us");
    ("parser.parse_term_us", "us"); ("parser.term_nodes", "count");
    ("interp.eval_us", "us"); ("rewrite.steps", "count");
    ("memo.hit_ratio", "ratio"); ("memo.evictions", "count");
    ("persist.find_us", "us"); ("persist.hit_ratio", "ratio");
    ("persist.record_us", "us"); ("persist.flush_ms", "ms");
    ("persist.store_bytes", "bytes"); ("persist.load_s", "s");
    ("rewrite.compile_ms", "ms"); ("gc.minor_words_per_req", "words");
    ("gc.major_collections", "count"); ("term.intern_live", "count");
    ("server.residue_us", "us"); ("trace.overhead_frac", "frac");
  ]

let layer_metrics e ~untraced ~traced =
  let get l name =
    match List.assoc_opt name l with
    | Some v -> v
    | None -> failwith ("the replay did not report " ^ name)
  in
  List.map
    (fun (name, unit) ->
      let v =
        match name with
        | "server.residue_us" ->
          (* the time no layer accounts for: socket, threads, domain pool *)
          Stats.quantile e.latency_us 0.5 -. get traced "layer_sum_us"
        | "trace.overhead_frac" -> (get traced "total_s" /. get untraced "total_s") -. 1.
        | "gc.minor_words_per_req" | "gc.major_collections" | "term.intern_live" ->
          (* memory as the engine uses it, without the tracer's own *)
          get untraced name
        | _ -> get traced name
      in
      (name, unit, v))
    per_layer

(* {1 Output} *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "a metric is not a finite number"

let json_strings l = "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") l) ^ "]"

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let run w ~seed ~seconds ~trace ~adtc =
  (* the oracle must agree with the reference rewriter before it judges *)
  let disagreements, checked = Selftest.check w ~seed ~n:selftest_sample in
  List.iter
    (fun ((r : Workload.req), v) ->
      Printf.eprintf "the oracle disagrees with Rewrite.Reference\n  request:   %s\n  model:     %s\n  reference: %s\n%!"
        r.line r.expect v)
    disagreements;
  let tmp =
    Filename.concat work_dir
      (Printf.sprintf "run-%s-%d" (Workload.name w) (Unix.getpid ()))
  in
  mkdir_p tmp;
  Fun.protect ~finally:(fun () ->
      Proc.end_all ();
      rm_rf tmp)
  @@ fun () ->
  let replay_stores = ref (None, None) in
  let on_prepared store =
    match store with
    | Some dir when trace ->
      let copy i =
        let d = Filename.concat tmp (Printf.sprintf "replay-store-%d" i) in
        copy_store dir d;
        Some d
      in
      let a = copy 0 in
      let b = copy 1 in
      replay_stores := (a, b)
    | _ -> ()
  in
  let e = measure ~adtc ~tmp w ~seed ~seconds ~on_prepared in
  let p99 = Stats.quantile e.latency_us 0.99 in
  let above_p99 = Stats.count_above e.latency_us p99 in
  if above_p99 < 10 then
    Printf.eprintf "only %d samples above p99: the run is too short\n%!" above_p99;
  let attempted, failed, metrics =
    if not trace then (e.sent, e.failed, end_to_end e)
    else begin
      let untraced =
        replay_process ~tmp w ~seed ~sent:e.sent ~traced:false ~store:(fst !replay_stores)
      in
      let traced =
        replay_process ~tmp w ~seed ~sent:e.sent ~traced:true ~store:(snd !replay_stores)
      in
      let replayed = int_of_float (List.assoc "requests" traced) in
      let replay_failed = int_of_float (List.assoc "failed" traced) in
      ( e.sent + replayed,
        e.failed + replay_failed,
        layer_metrics e ~untraced ~traced )
    end
  in
  Printf.printf
    "# meta {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
     \"ocaml\": %S, \"adtc_serve_flags\": %s, \
     \"latency_samples\": %d, \"samples_above_p99\": %d, \"setup_samples\": %d, \
     \"selftest_checked\": %d, \"server_stats\": %S}\n"
    (Workload.name w) seed (json_number seconds) trace Sys.ocaml_version
    (json_strings e.args)
    (Float.Array.length e.latency_us) above_p99 (List.length e.setups) checked
    e.server_stats;
  let correct =
    failed = 0 && e.untimed_failed = 0 && disagreements = [] && above_p99 >= 10
  in
  print_result ~correct ~attempted ~failed metrics

let selftest ~seed =
  let lib = Selftest.library () in
  let ok =
    List.for_all
      (fun w ->
        let bad, checked = Selftest.check ~lib w ~seed ~n:selftest_full_sample in
        Printf.printf "%s: %d requests, %d disagreements with Rewrite.Reference\n"
          (Workload.name w) checked (List.length bad);
        List.iter
          (fun ((r : Workload.req), v) ->
            Printf.printf "  %s\n    model:     %s\n    reference: %s\n" r.line r.expect v)
          bad;
        bad = [])
      Workload.all
  in
  if not ok then exit 1

let () =
  let command = ref "" in
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let adtc = ref "" and sent = ref 0 and traced = ref 0 in
  let store = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME hot-queue, cold-symtab or restart-db");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer ones");
      ("--adtc", Arg.Set_string adtc, "PATH the adtc executable");
      ("--sent", Arg.Set_int sent, "N timed requests the client sent (replay)");
      ("--traced", Arg.Set_int traced, "0|1 record spans (replay)");
      ("--store", Arg.Set_string store, "DIR store directory (replay)");
    ]
  in
  Arg.parse specs (fun a -> command := a) usage;
  let workload () =
    match Workload.of_name !workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  let opt s = if String.equal s "" then None else Some s in
  try
    match !command with
    | "run" ->
      if !adtc = "" then failwith "--adtc is required";
      run (workload ()) ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~adtc:!adtc
    | "replay" ->
      Replay.run (workload ()) ~seed:!seed ~sent:!sent ~traced:(!traced = 1)
        ~store_dir:(opt !store)
    | "selftest" -> selftest ~seed:!seed
    | _ ->
      prerr_endline usage;
      exit 2
  with Failure message | Sys_error message ->
    prerr_endline ("bench: " ^ message);
    exit 1
