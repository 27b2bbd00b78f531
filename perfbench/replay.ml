(* The traced run: the socket client's request stream replayed in this
   process through the engine's public functions, in the order Dispatch
   calls them, with one span per call. Spans are kept in memory and
   written out when the replay ends. The layer spans are leaves under one
   request span, so a layer's self time is its span's duration and the
   request's self time is what the layers leave over. *)

open Engine

let layers =
  [|
    "protocol.parse";
    "session.find";
    "parser.parse_term";
    "persist.find";
    "interp.eval";
    "persist.record";
    "protocol.render";
  |]

(* the kind of the request span, after the layers *)
let request = Array.length layers

(* a replay covers at most this many timed requests: the first ones the
   client sent *)
let max_requests = 10_000

(* the benchmark's working directory, beside the build *)
let work_dir = ".bench_build"

(* where a traced replay writes its spans *)
let spans_file w = Filename.concat work_dir ("trace-" ^ Workload.name w ^ ".tsv")

type recorder = {
  traced : bool;
  layer_us : Stats.Samples.t array;
  trace_id : int array;
  kind : int array;
  start : int array;
  dur : int array;
  mutable spans : int;
}

let recorder ~traced ~requests =
  let cap = if traced then requests * (request + 1) else 0 in
  {
    traced;
    layer_us = Array.init request (fun _ -> Stats.Samples.create ());
    trace_id = Array.make cap 0;
    kind = Array.make cap 0;
    start = Array.make cap 0;
    dur = Array.make cap 0;
    spans = 0;
  }

let log r ~id ~kind ~start ~dur =
  let i = r.spans in
  r.trace_id.(i) <- id;
  r.kind.(i) <- kind;
  r.start.(i) <- start;
  r.dur.(i) <- dur;
  r.spans <- i + 1

let span r ~id kind f =
  if not r.traced then f ()
  else begin
    let t0 = Stats.now_ns () in
    let x = f () in
    let dur = Stats.now_ns () - t0 in
    log r ~id ~kind ~start:t0 ~dur;
    Stats.Samples.add r.layer_us.(kind) (float_of_int dur /. 1e3);
    x
  end

(* Counts taken at the same boundaries as the spans. *)
type counts = {
  mutable failed : int;
  mutable nodes : int;
  mutable evals : int;
  mutable steps : int;
  mutable reply_bytes : int;
  flush_us : Stats.Samples.t;
      (** persist.record calls that wrote the entry file back *)
}

let counts () =
  {
    failed = 0;
    nodes = 0;
    evals = 0;
    steps = 0;
    reply_bytes = 0;
    flush_us = Stats.Samples.create ();
  }

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Entry-file sizes by specification name: a recording that changes its
   entry's size was a flush (the store rewrites the whole file). *)
type entry_files = (string, string * int ref) Hashtbl.t

let entry_files session store : entry_files =
  let files = Hashtbl.create 8 in
  (match store with
  | None -> ()
  | Some store ->
    List.iter
      (fun name ->
        match Session.find session name with
        | None -> ()
        | Some e ->
          let path =
            Persist.Store.entry_path store
              ~digest:(Adt.Spec_digest.spec (Session.entry_spec e))
          in
          Hashtbl.replace files name (path, ref (file_size path)))
      (Session.spec_names session));
  files

let flushed (files : entry_files) name =
  match Hashtbl.find_opt files name with
  | None -> false
  | Some (path, size) ->
    let now = file_size path in
    let changed = now <> !size in
    size := now;
    changed

let handle session files r c ~id (req : Workload.req) =
  let reply =
    match span r ~id 0 (fun () -> Protocol.parse req.line) with
    | Ok (Some (Protocol.Normalize { spec; term; fuel })) -> (
      match span r ~id 1 (fun () -> Session.find session spec) with
      | None -> None
      | Some entry -> (
        match
          span r ~id 2 (fun () ->
              Adt.Parser.parse_term (Session.entry_spec entry) term)
        with
        | Error _ -> None
        | Ok t -> (
          c.nodes <- c.nodes + Adt.Term.size t;
          let outcome =
            match span r ~id 3 (fun () -> Session.persist_find entry t) with
            | Some (value, _) -> Some (value, 0)
            | None -> (
              let fuel = Limits.effective_fuel (Session.limits session) fuel in
              let value, steps =
                span r ~id 4 (fun () ->
                    Session.with_interp entry (fun i ->
                        Adt.Interp.eval_count ~fuel i t))
              in
              c.evals <- c.evals + 1;
              c.steps <- c.steps + steps;
              match value with
              | Adt.Interp.Diverged -> None
              | value ->
                let before = r.spans in
                span r ~id 5 (fun () ->
                    Session.persist_record session entry t value steps);
                if r.traced && flushed files spec then
                  Stats.Samples.add c.flush_us
                    (float_of_int r.dur.(before) /. 1e3);
                Some (value, steps))
          in
          match outcome with
          | None -> None
          | Some (value, steps) ->
            Some
              (span r ~id 6 (fun () ->
                   Protocol.render
                     (Protocol.Ok_response
                        (Fmt.str "normalize steps=%d %s" steps
                           (Protocol.sanitize
                              (Fmt.str "%a" Adt.Interp.pp_value value))))))))
      )
    | _ -> None
  in
  match reply with
  | Some line when Client.reply_matches ~expect:req.expect line ->
    c.reply_bytes <- c.reply_bytes + String.length line
  | _ -> c.failed <- c.failed + 1

let write_spans r path =
  let requests = if r.spans = 0 then 0 else r.trace_id.(r.spans - 1) + 1 in
  let children = Array.make (max 1 requests) 0 in
  for i = 0 to r.spans - 1 do
    if r.kind.(i) <> request then
      children.(r.trace_id.(i)) <- children.(r.trace_id.(i)) + r.dur.(i)
  done;
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "trace\tspan\tparent\tstart_ns\tdur_ns\tself_ns\n";
      for i = 0 to r.spans - 1 do
        let id = r.trace_id.(i) in
        let name, parent, self =
          if r.kind.(i) = request then
            ("request", "-", r.dur.(i) - children.(id))
          else (layers.(r.kind.(i)), "request", r.dur.(i))
        in
        Printf.fprintf oc "%d\t%s\t%s\t%d\t%d\t%d\n" id name parent r.start.(i)
          r.dur.(i) self
      done)

let seconds_since t0 = float_of_int (Stats.now_ns () - t0) *. 1e-9

(* Prints one "name value" line per measurement. *)
let run w ~seed ~sent ~traced ~store_dir =
  let plan = Workload.plan w seed in
  let timed = Array.init (min max_requests sent) (fun _ -> plan.stream ()) in
  let total = Array.length timed in
  let lib = Selftest.library () in
  let specs = Adt.Library.specs lib in
  let t0 = Stats.now_ns () in
  let store = Option.map (fun dir -> Persist.Store.open_ dir) store_dir in
  let session =
    Session.create ?cache_capacity:plan.cache_capacity ?store
      ~env:(Adt.Library.to_env lib) specs
  in
  let load_s = seconds_since t0 in
  let compile_ms =
    List.fold_left
      (fun acc spec ->
        let t = Stats.now_ns () in
        ignore (Sys.opaque_identity (Adt.Rewrite.of_spec spec));
        acc +. (seconds_since t *. 1e3))
      0. specs
  in
  let files = entry_files session store in
  let quiet = recorder ~traced:false ~requests:0 in
  List.iter (handle session files quiet (counts ()) ~id:0) plan.warmup;
  let memo0 = Session.cache_totals session in
  let persist0 = Session.persist_totals session in
  let gc0 = Gc.quick_stat () in
  let r = recorder ~traced ~requests:total in
  let c = counts () in
  let t0 = Stats.now_ns () in
  Array.iteri
    (fun id req ->
      if traced then begin
        let start = Stats.now_ns () in
        handle session files r c ~id req;
        log r ~id ~kind:request ~start ~dur:(Stats.now_ns () - start)
      end
      else handle session files r c ~id req)
    timed;
  let total_s = seconds_since t0 in
  let gc1 = Gc.quick_stat () in
  let t = Stats.now_ns () in
  Session.persist_flush session;
  let final_flush_us = seconds_since t *. 1e6 in
  if List.exists (fun name -> flushed files name) (Session.spec_names session) then
    Stats.Samples.add c.flush_us final_flush_us;
  let memo1 = Session.cache_totals session in
  let persist1 = Session.persist_totals session in
  Option.iter Persist.Store.close store;
  if traced then write_spans r (spans_file w);
  let ratio hits misses =
    if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)
  in
  let per n x = if n = 0 then 0. else float_of_int x /. float_of_int n in
  let medians = Array.map Stats.median r.layer_us in
  let print name v = Printf.printf "%s %.17g\n" name v in
  print "requests" (float_of_int total);
  print "failed" (float_of_int c.failed);
  print "total_s" total_s;
  Array.iteri (fun k name -> print (name ^ "_us") medians.(k)) layers;
  print "layer_sum_us" (Array.fold_left ( +. ) 0. medians);
  print "protocol.reply_bytes" (per (total - c.failed) c.reply_bytes);
  print "parser.term_nodes" (per total c.nodes);
  print "rewrite.steps" (per c.evals c.steps);
  print "memo.hit_ratio"
    (ratio
       (memo1.Session.hits - memo0.Session.hits)
       (memo1.Session.misses - memo0.Session.misses));
  print "memo.evictions"
    (float_of_int (memo1.Session.evictions - memo0.Session.evictions));
  (match (persist0, persist1) with
  | Some (p0 : Session.persist_totals), Some (p1 : Session.persist_totals) ->
    print "persist.hit_ratio" (ratio (p1.hits - p0.hits) (p1.misses - p0.misses));
    print "persist.store_bytes" (float_of_int p1.bytes)
  | _ ->
    print "persist.hit_ratio" 0.;
    print "persist.store_bytes" 0.);
  print "persist.flush_ms" (Stats.median c.flush_us /. 1e3);
  print "persist.load_s" load_s;
  print "rewrite.compile_ms" compile_ms;
  print "gc.minor_words_per_req"
    (if total = 0 then 0. else (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int total);
  print "gc.major_collections"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  print "term.intern_live" (float_of_int (fst (Adt.Term.intern_stats ())))
