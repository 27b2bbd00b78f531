(* lib/obs: fixed-bucket histograms, span tracing, the slow-request ring,
   and Prometheus export — plus their integration with the engine: kind
   counters stay total over the protocol, the exposition carries real
   histogram series, and a traced request's step total is exactly the
   fuel the stats counter charged for it. *)

open Adt_specs
open Engine

let contains = Astring_contains.contains

(* {1 Hist} *)

let test_hist_boundaries () =
  let h = Obs.Hist.create ~bounds:[| 1.; 2.; 5. |] in
  (* le is inclusive: a value exactly on a bound lands in that bucket *)
  List.iter (Obs.Hist.observe h) [ 1.0; 1.5; 5.0; 5.1 ];
  Alcotest.(check (array int))
    "per-bucket counts, overflow last"
    [| 1; 1; 1; 1 |]
    (Obs.Hist.bucket_counts h);
  Alcotest.(check (list (pair (float 0.) int)))
    "cumulative series"
    [ (1., 1); (2., 2); (5., 3) ]
    (Obs.Hist.cumulative h);
  Alcotest.(check int) "count" 4 (Obs.Hist.count h);
  Alcotest.(check (float 1e-9)) "sum" 12.6 (Obs.Hist.sum h);
  Alcotest.(check (float 0.)) "max" 5.1 (Obs.Hist.max_value h)

let test_hist_validation () =
  List.iter
    (fun bounds ->
      match Obs.Hist.create ~bounds with
      | _ -> Alcotest.fail "invalid bounds accepted"
      | exception Invalid_argument _ -> ())
    [ [||]; [| 1.; 1. |]; [| 2.; 1. |] ];
  let a = Obs.Hist.create ~bounds:[| 1.; 2. |] in
  let b = Obs.Hist.create ~bounds:[| 1.; 3. |] in
  match Obs.Hist.merge a b with
  | _ -> Alcotest.fail "merge across different bounds accepted"
  | exception Invalid_argument _ -> ()

(* merging two histograms is exactly observing the concatenation: integer
   values keep the float sums exact, so equality is checkable verbatim *)
let test_hist_merge_is_concat =
  let bounds = [| 1.; 2.; 4.; 8. |] in
  let of_ints xs =
    let h = Obs.Hist.create ~bounds in
    List.iter (fun n -> Obs.Hist.observe h (float_of_int n)) xs;
    h
  in
  Helpers.qcheck "hist: merge xs ys = observe (xs @ ys)"
    QCheck2.Gen.(pair (small_list (int_bound 12)) (small_list (int_bound 12)))
    (fun (xs, ys) ->
      let merged = Obs.Hist.merge (of_ints xs) (of_ints ys) in
      let whole = of_ints (xs @ ys) in
      Obs.Hist.bucket_counts merged = Obs.Hist.bucket_counts whole
      && Obs.Hist.count merged = Obs.Hist.count whole
      && Float.equal (Obs.Hist.sum merged) (Obs.Hist.sum whole)
      && Float.equal (Obs.Hist.max_value merged) (Obs.Hist.max_value whole))

(* {1 Slowlog} *)

let entry ?(trace = "t0000") latency_s =
  {
    Obs.Slowlog.trace_id = trace;
    kind = "normalize";
    spec = "Queue";
    latency_s;
    fuel = 1;
    spans = [ ("dispatch", latency_s) ];
  }

let test_slowlog_threshold () =
  let sl = Obs.Slowlog.create ~threshold_s:0.5 () in
  Alcotest.(check bool) "below threshold skipped" false
    (Obs.Slowlog.observe sl (entry 0.4));
  Alcotest.(check bool) "at threshold recorded" true
    (Obs.Slowlog.observe sl (entry 0.5));
  Alcotest.(check int) "one entry held" 1 (Obs.Slowlog.length sl)

let test_slowlog_ring_eviction () =
  let sl = Obs.Slowlog.create ~capacity:3 ~threshold_s:0. () in
  List.iter
    (fun i ->
      ignore
        (Obs.Slowlog.observe sl (entry ~trace:(Fmt.str "t%04d" i) 0.01)))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "full ring" 3 (Obs.Slowlog.length sl);
  Alcotest.(check (list string))
    "oldest evicted first, survivors oldest-first"
    [ "t0003"; "t0004"; "t0005" ]
    (List.map
       (fun e -> e.Obs.Slowlog.trace_id)
       (Obs.Slowlog.entries sl))

let test_slowlog_validation () =
  List.iter
    (fun mk ->
      match mk () with
      | _ -> Alcotest.fail "invalid slowlog accepted"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Obs.Slowlog.create ~capacity:0 ~threshold_s:0. ());
      (fun () -> Obs.Slowlog.create ~threshold_s:(-1.) ());
    ]

(* {1 Trace} *)

let test_trace_spans_nest () =
  let now = ref 0. in
  let clock () = !now in
  let t = Obs.Trace.create ~clock "request" in
  Alcotest.(check bool) "enabled" true (Obs.Trace.enabled t);
  Obs.Trace.with_span t "parse" (fun () -> now := !now +. 0.001);
  Obs.Trace.with_span t "dispatch" (fun () ->
      Obs.Trace.with_span t "rewrite" (fun () ->
          Obs.Trace.rule t "a1";
          Obs.Trace.rule t "a1";
          Obs.Trace.rule t "a2";
          now := !now +. 0.004);
      now := !now +. 0.001);
  Obs.Trace.rule t "a3";
  let r = Option.get (Obs.Trace.finish t) in
  Alcotest.(check int) "total steps" 4 r.Obs.Trace.total_steps;
  Alcotest.(check (list (pair string int)))
    "per-rule counts, sorted"
    [ ("a1", 2); ("a2", 1); ("a3", 1) ]
    r.Obs.Trace.rules;
  let root = r.Obs.Trace.root in
  Alcotest.(check (list string))
    "children in opening order" [ "parse"; "dispatch" ]
    (List.map (fun s -> s.Obs.Trace.span_name) root.Obs.Trace.children);
  let dispatch = List.nth root.Obs.Trace.children 1 in
  let rewrite = List.hd dispatch.Obs.Trace.children in
  Alcotest.(check string) "nested span" "rewrite" rewrite.Obs.Trace.span_name;
  Alcotest.(check int) "steps land on the innermost span" 3
    rewrite.Obs.Trace.steps;
  Alcotest.(check int) "late rule lands on the root" 1 root.Obs.Trace.steps;
  Alcotest.(check (float 1e-9)) "rewrite duration" 0.004 rewrite.Obs.Trace.dur_s;
  Alcotest.(check (float 1e-9)) "dispatch includes its child" 0.005
    dispatch.Obs.Trace.dur_s;
  Alcotest.(check (list (pair string (float 1e-9))))
    "breakdown lists the direct children"
    [ ("parse", 0.001); ("dispatch", 0.005) ]
    (Obs.Trace.breakdown root);
  let json = Obs.Trace.result_to_json ~meta:[ ("request", "demo") ] r in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (Fmt.str "json has %S" fragment) true
        (contains json fragment))
    [
      "\"trace_id\":";
      "\"request\":\"demo\"";
      "\"steps\":4";
      "{\"rule\":\"a1\",\"count\":2}";
      "\"name\":\"rewrite\"";
    ]

let test_trace_disabled_is_inert () =
  let t = Obs.Trace.disabled in
  Alcotest.(check bool) "disabled" false (Obs.Trace.enabled t);
  Alcotest.(check bool) "no id" true (Option.is_none (Obs.Trace.id t));
  Alcotest.(check int) "with_span still runs the thunk" 7
    (Obs.Trace.with_span t "x" (fun () -> 7));
  Obs.Trace.rule t "a";
  Alcotest.(check bool) "nothing to finish" true
    (Option.is_none (Obs.Trace.finish t))

let test_trace_ids_unique_concurrently () =
  let per_thread = 50 and threads = 8 in
  let results = Array.make threads [] in
  let worker i =
    results.(i) <-
      List.init per_thread (fun _ ->
          Option.get (Obs.Trace.id (Obs.Trace.create "request")))
  in
  let ts = List.init threads (fun i -> Thread.create worker i) in
  List.iter Thread.join ts;
  let all = List.concat (Array.to_list results) in
  let distinct = List.sort_uniq String.compare all in
  Alcotest.(check int) "every concurrent tracer got its own id"
    (threads * per_thread) (List.length distinct)

(* {1 Export} *)

let test_export_rendering () =
  let h = Obs.Hist.create ~bounds:[| 0.1; 1. |] in
  List.iter (Obs.Hist.observe h) [ 0.05; 0.5; 2. ];
  let buf = Buffer.create 256 in
  Obs.Export.counter buf ~name:"x_total" ~help:"Total x." 3.;
  Obs.Export.gauge buf ~name:"x_live" ~help:"Live x." 2.;
  Obs.Export.counter buf ~name:"x_kind_total" ~help:"By kind."
    ~labelled:[ ([ ("kind", "a\"b") ], 1.) ]
    0.;
  Obs.Export.histogram buf ~name:"x_seconds" ~help:"X latency." h;
  Alcotest.(check string) "exact exposition"
    "# HELP x_total Total x.\n\
     # TYPE x_total counter\n\
     x_total 3\n\
     # HELP x_live Live x.\n\
     # TYPE x_live gauge\n\
     x_live 2\n\
     # HELP x_kind_total By kind.\n\
     # TYPE x_kind_total counter\n\
     x_kind_total{kind=\"a\\\"b\"} 1\n\
     # HELP x_seconds X latency.\n\
     # TYPE x_seconds histogram\n\
     x_seconds_bucket{le=\"0.1\"} 1\n\
     x_seconds_bucket{le=\"1\"} 2\n\
     x_seconds_bucket{le=\"+Inf\"} 3\n\
     x_seconds_sum 2.55\n\
     x_seconds_count 3\n"
    (Buffer.contents buf)

(* {1 Engine integration} *)

let queue_session ?slowlog_ms ?tracing ?timeout () =
  Session.create ?slowlog_ms ?tracing ?timeout [ Queue_spec.spec ]

let reply session line =
  match Dispatch.handle_line session line with
  | Dispatch.Reply r -> r
  | _ -> Alcotest.failf "expected a reply for %S" line

(* one request of every protocol kind, with its keyword written out
   independently of Protocol; the test fails when a kind is added to
   Protocol.kinds without a request here *)
let one_of_each =
  [
    ( "normalize",
      Protocol.Normalize { spec = "Queue"; term = "NEW"; fuel = None } );
    ("check", Protocol.Check { spec = "Queue" });
    ("skeletons", Protocol.Skeletons { spec = "Queue" });
    ("lint", Protocol.Lint { spec = "Queue" });
    ( "testgen",
      Protocol.Testgen { spec = "Queue"; impl = None; count = None; seed = None } );
    ( "prove",
      Protocol.Prove
        { spec = "Queue"; vars = []; lhs = "NEW"; rhs = "NEW"; fuel = None } );
    ("session-open", Protocol.Session_open { spec = "Queue" });
    ("session-edit", Protocol.Session_edit { spec = "Queue"; lines = 1 });
    ("session-status", Protocol.Session_status { spec = "Queue" });
    ("stats", Protocol.Stats { verbose = false });
    ("metrics", Protocol.Metrics);
    ("slowlog", Protocol.Slowlog);
    ("quit", Protocol.Quit);
  ]

let test_kind_counters () =
  Alcotest.(check (list int))
    "one request of every kind"
    (List.init (List.length Protocol.kinds) Fun.id)
    (List.sort compare
       (List.map (fun (_, r) -> Protocol.kind_index r) one_of_each));
  List.iter
    (fun (kind, r) ->
      Alcotest.(check string) "kind_name" kind (Protocol.kind_name r);
      let m = Metrics.create () in
      Metrics.record_request m r;
      Alcotest.(check (list (pair string int)))
        (Fmt.str "%s bumps exactly its own entry" kind)
        (List.map
           (fun k -> (k, if String.equal k kind then 1 else 0))
           Protocol.kinds)
        (Metrics.by_kind (Metrics.snapshot m)))
    one_of_each

let test_malformed_counter () =
  let session = queue_session () in
  ignore (reply session "frobnicate Queue NEW");
  ignore (reply session "normalize Queue FRONT(");
  let m = Metrics.snapshot (Session.metrics session) in
  Alcotest.(check int) "malformed lines counted" 1 m.Metrics.malformed;
  Alcotest.(check int) "malformed also errors" 2 m.Metrics.errors;
  Alcotest.(check int) "malformed also requests" 2 m.Metrics.requests;
  Alcotest.(check bool) "stats line reports malformed" true
    (contains (reply session "stats") "malformed=1")

(* the memoized step count for FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2))):
   the memo loop re-derives sub-cutoff redexes (the second IS_EMPTY?(NEW))
   instead of probing the cache for them, so it charges all 6 rule
   applications, as the unmemoized normalization does *)
let memoized_steps = 6

let test_prometheus_exposition () =
  let session = queue_session () in
  ignore (reply session "normalize Queue FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2)))");
  let body = Session.prometheus session in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (Fmt.str "exposition has %S" fragment) true
        (contains body fragment))
    [
      "# TYPE adtc_request_latency_seconds histogram";
      "adtc_request_latency_seconds_bucket{le=\"";
      "adtc_request_latency_seconds_bucket{le=\"+Inf\"} 1";
      "adtc_request_latency_seconds_count 1";
      Fmt.str "adtc_request_fuel_steps_sum %d" memoized_steps;
      "adtc_requests_kind_total{kind=\"normalize\"} 1";
      Fmt.str "adtc_fuel_steps_total %d" memoized_steps;
      "adtc_malformed_requests_total 0";
      "adtc_cache_misses_total";
      "adtc_specs_loaded 1";
    ];
  (* the metrics verb frames the same body for line-oriented clients *)
  let framed = reply session "metrics" in
  (match String.index_opt framed '\n' with
  | None -> Alcotest.fail "metrics response is not multi-line"
  | Some i ->
    let first = String.sub framed 0 i in
    let rest = String.sub framed (i + 1) (String.length framed - i - 1) in
    let announced = Scanf.sscanf first "ok metrics lines=%d" Fun.id in
    Alcotest.(check int) "announced line count frames the body" announced
      (List.length (String.split_on_char '\n' rest)))

let test_slowlog_verb () =
  let off = queue_session () in
  Alcotest.(check bool) "disabled log answers an error" true
    (contains (reply off "slowlog") "error slowlog");
  let on = queue_session ~slowlog_ms:0. () in
  ignore (reply on "normalize Queue IS_EMPTY?(NEW)");
  let r = reply on "slowlog" in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (Fmt.str "slowlog has %S" fragment) true
        (contains r fragment))
    [
      "ok slowlog entries=1 threshold_ms=0 capacity=64";
      "kind=normalize";
      "spec=Queue";
      "spans=parse:";
    ]

let check_trace_steps_match_fuel session =
  let line = "normalize Queue FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2)))" in
  let outcome, result = Dispatch.handle_line_obs session line in
  (match outcome with
  | Dispatch.Reply r ->
    Alcotest.(check string) "answered"
      (Fmt.str "ok normalize steps=%d ITEM2" memoized_steps)
      r
  | _ -> Alcotest.fail "expected a reply");
  let r = Option.get result in
  let m = Session.metrics session in
  let fuel = (Metrics.snapshot m).Metrics.fuel_spent in
  Alcotest.(check int) "trace step total is the stats fuel counter" fuel
    r.Obs.Trace.total_steps;
  Alcotest.(check int) "which is the response's step count"
    memoized_steps r.Obs.Trace.total_steps;
  Alcotest.(check int) "every firing is attributed to a rule"
    memoized_steps
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Obs.Trace.rules);
  (* prove requests meter through the same hook *)
  let _, proved =
    Dispatch.handle_line_obs session
      "prove Queue q:Queue,i:Item IS_EMPTY?(REMOVE(ADD(q, i))) == IS_EMPTY?(q)"
  in
  let p = Option.get proved in
  let fuel' = (Metrics.snapshot m).Metrics.fuel_spent in
  Alcotest.(check int) "prove trace steps are its fuel charge"
    (fuel' - fuel) p.Obs.Trace.total_steps;
  Alcotest.(check bool) "the proof search did rewrite" true
    (p.Obs.Trace.total_steps > 0)

(* without a deadline and under one, whose check is the rule hook's third
   part: it must not change what the first two charge and attribute *)
let test_trace_steps_match_fuel () =
  List.iter check_trace_steps_match_fuel
    [
      queue_session ~tracing:true ();
      queue_session ~tracing:true ~timeout:60. ();
    ]

let suite =
  [
    Helpers.case "histogram bucket boundaries are inclusive" test_hist_boundaries;
    Helpers.case "histogram and merge validation" test_hist_validation;
    test_hist_merge_is_concat;
    Helpers.case "slowlog records at or above the threshold" test_slowlog_threshold;
    Helpers.case "slowlog ring evicts oldest-first" test_slowlog_ring_eviction;
    Helpers.case "slowlog validation" test_slowlog_validation;
    Helpers.case "trace spans nest and attribute steps" test_trace_spans_nest;
    Helpers.case "disabled tracer is inert" test_trace_disabled_is_inert;
    Helpers.case "concurrent tracers get distinct ids"
      test_trace_ids_unique_concurrently;
    Helpers.case "Prometheus text rendering, exactly" test_export_rendering;
    Helpers.case "each kind bumps its own counter" test_kind_counters;
    Helpers.case "malformed lines have their own counter" test_malformed_counter;
    Helpers.case "the exposition carries real histograms" test_prometheus_exposition;
    Helpers.case "the slowlog verb dumps the ring" test_slowlog_verb;
    Helpers.case "a traced request's steps equal its fuel charge"
      test_trace_steps_match_fuel;
  ]
