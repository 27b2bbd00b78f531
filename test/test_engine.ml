(* The evaluation engine: protocol parsing, dispatch, error isolation,
   limits, and metrics. The end-to-end batch transcript is pinned by the
   cli_tests expect test; these tests exercise the pieces directly. *)

open Adt_specs
open Engine

let reply session line =
  match Dispatch.handle_line session line with
  | Dispatch.Reply r -> r
  | Dispatch.Silent -> Alcotest.failf "unexpected Silent for %S" line
  | Dispatch.Closed -> Alcotest.failf "unexpected Closed for %S" line

let contains = Astring_contains.contains

let check_prefix what prefix got =
  Alcotest.(check bool)
    (Fmt.str "%s: %S starts with %S" what got prefix)
    true
    (String.length got >= String.length prefix
    && String.equal (String.sub got 0 (String.length prefix)) prefix)

let queue_session ?fuel ?timeout ?cache_capacity () =
  Session.create ?fuel ?timeout ?cache_capacity [ Queue_spec.spec ]

(* {1 Protocol} *)

let test_parse_blank_and_comment () =
  List.iter
    (fun line ->
      match Protocol.parse line with
      | Ok None -> ()
      | _ -> Alcotest.failf "%S should be silent" line)
    [ ""; "   "; "# a comment"; "  # indented comment" ]

let test_parse_normalize () =
  match Protocol.parse "normalize fuel=7 Queue FRONT(ADD(NEW, ITEM1))" with
  | Ok (Some (Protocol.Normalize { spec; term; fuel })) ->
    Alcotest.(check string) "spec" "Queue" spec;
    Alcotest.(check string) "term" "FRONT(ADD(NEW, ITEM1))" term;
    Alcotest.(check (option int)) "fuel" (Some 7) fuel
  | _ -> Alcotest.fail "normalize did not parse"

let test_parse_prove () =
  match
    Protocol.parse "prove Queue q:Queue,i:Item IS_EMPTY?(ADD(q, i)) == false"
  with
  | Ok (Some (Protocol.Prove { spec; vars; lhs; rhs; fuel = None })) ->
    Alcotest.(check string) "spec" "Queue" spec;
    Alcotest.(check (list (pair string string)))
      "vars"
      [ ("q", "Queue"); ("i", "Item") ]
      vars;
    Alcotest.(check string) "lhs" "IS_EMPTY?(ADD(q, i))" lhs;
    Alcotest.(check string) "rhs" "false" rhs
  | _ -> Alcotest.fail "prove did not parse"

let test_parse_errors () =
  List.iter
    (fun line ->
      match Protocol.parse line with
      | Error _ -> ()
      | _ -> Alcotest.failf "%S should be rejected" line)
    [
      "frobnicate Queue";
      "normalize Queue";
      "normalize fuel=zero Queue NEW";
      "normalize volume=11 Queue NEW";
      "check";
      "check Queue Extra";
      "prove Queue q:Queue IS_EMPTY?(q)";
      "prove Queue q IS_EMPTY?(q) == true";
      "stats Queue";
      "quit now";
    ]

let test_sanitize () =
  Alcotest.(check string)
    "squashed" "a b c"
    (Protocol.sanitize "  a\n\tb \r\n  c  ")

(* {1 Dispatch} *)

let test_cross_request_cache () =
  let session = queue_session () in
  let first = reply session "normalize Queue FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2)))" in
  check_prefix "first" "ok normalize steps=" first;
  Alcotest.(check bool) "first run rewrites" false
    (contains first "steps=0");
  let second = reply session "normalize Queue FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2)))" in
  Alcotest.(check string) "cached answer is free" "ok normalize steps=0 ITEM2"
    second;
  let totals = Session.cache_totals session in
  Alcotest.(check bool) "cache hits recorded" true (totals.Session.hits > 0)

let test_error_isolation () =
  let session = queue_session () in
  check_prefix "protocol error" "error protocol" (reply session "frobnicate x");
  check_prefix "unknown spec" "error unknown-spec"
    (reply session "normalize Nope NEW");
  check_prefix "parse error" "error parse" (reply session "normalize Queue FRONT(");
  (* the session is still fully functional *)
  Alcotest.(check string) "still serving" "ok normalize steps=1 true"
    (reply session "normalize Queue IS_EMPTY?(NEW)");
  let m = Metrics.snapshot (Session.metrics session) in
  Alcotest.(check int) "errors counted" 3 m.Metrics.errors;
  Alcotest.(check int) "requests counted" 4 m.Metrics.requests

let test_fuel_limit () =
  let session = queue_session () in
  let r = reply session
      "normalize fuel=2 Queue FRONT(REMOVE(ADD(ADD(ADD(NEW, ITEM1), ITEM2), ITEM3)))"
  in
  Alcotest.(check string) "fuel error" "error fuel normalization exceeded 2 rewrite steps" r;
  (* rejected request charged its budget, session survives *)
  check_prefix "survives" "ok normalize" (reply session "normalize Queue IS_EMPTY?(NEW)")

let test_session_fuel_ceiling () =
  (* a request may lower the session ceiling but never raise it *)
  let session = queue_session ~fuel:2 () in
  let r = reply session
      "normalize fuel=1000000 Queue FRONT(REMOVE(ADD(ADD(ADD(NEW, ITEM1), ITEM2), ITEM3)))"
  in
  Alcotest.(check string) "capped" "error fuel normalization exceeded 2 rewrite steps" r

let test_stats_counters () =
  let session = queue_session () in
  ignore (reply session "normalize Queue IS_EMPTY?(NEW)");
  ignore (reply session "check Queue");
  ignore (reply session "skeletons Queue");
  ignore (reply session "nonsense");
  let r = reply session "stats" in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (Fmt.str "stats has %S" fragment) true
        (contains r fragment))
    [
      "requests=5"; "normalize=1"; "check=1"; "skeletons=1"; "stats=1";
      "errors=1"; "cache.evictions=0"; "cache.capacity=";
    ]

let test_prove_request () =
  let session = queue_session () in
  check_prefix "proved" "ok prove Queue proved"
    (reply session "prove Queue q:Queue,i:Item IS_EMPTY?(REMOVE(ADD(q, i))) == IS_EMPTY?(q)");
  check_prefix "unprovable goal answers unknown" "ok prove Queue unknown"
    (reply session "prove Queue q:Queue IS_EMPTY?(q) == true")

let test_quit_and_silent () =
  let session = queue_session () in
  (match Dispatch.handle_line session "# just a comment" with
  | Dispatch.Silent -> ()
  | _ -> Alcotest.fail "comment should be silent");
  match Dispatch.handle_line session "quit" with
  | Dispatch.Closed -> ()
  | _ -> Alcotest.fail "quit should close"

let test_bounded_session_cache () =
  let session = queue_session ~cache_capacity:4 () in
  (* more distinct roots than the cache holds: every query's root term is
     memoized whatever its size, so six distinct queries must evict *)
  ignore (reply session "normalize Queue FRONT(REMOVE(ADD(ADD(ADD(NEW, ITEM1), ITEM2), ITEM3)))");
  ignore (reply session "normalize Queue FRONT(ADD(ADD(NEW, ITEM2), ITEM3))");
  ignore (reply session "normalize Queue FRONT(ADD(NEW, ITEM1))");
  ignore (reply session "normalize Queue FRONT(ADD(ADD(NEW, ITEM1), ITEM2))");
  ignore (reply session "normalize Queue FRONT(ADD(ADD(NEW, ITEM3), ITEM1))");
  ignore (reply session "normalize Queue FRONT(ADD(ADD(NEW, ITEM1), ITEM3))");
  let totals = Session.cache_totals session in
  Alcotest.(check bool) "entries bounded" true (totals.Session.entries <= 4);
  Alcotest.(check bool) "evictions counted" true (totals.Session.evictions > 0)

(* {1 Limits} *)

let test_with_deadline () =
  (match
     Limits.with_deadline None (fun poll ->
         Alcotest.(check bool) "no deadline, no poll" true (Option.is_none poll);
         42)
   with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "no-limit run changed its answer");
  (match Limits.with_deadline (Some 5.0) (fun _ -> "fast") with
  | Ok "fast" -> ()
  | _ -> Alcotest.fail "fast run within budget failed");
  (* the old SIGALRM disarm race, pinned as semantics: work that finishes
     without polling is returned as its result even when it overran the
     deadline — a timeout can only ever interrupt a poll point, so no stray
     exception escapes after the fact to be misreported as error internal *)
  (match
     Limits.with_deadline (Some 0.005) (fun _ ->
         Unix.sleepf 0.02;
         "late but done")
   with
  | Ok "late but done" -> ()
  | _ -> Alcotest.fail "finished work was misclassified");
  match
    Limits.with_deadline (Some 0.02) (fun poll ->
        let poll = Option.get poll in
        while true do
          poll ()
        done)
  with
  | Error `Timeout -> ()
  | Ok _ -> Alcotest.fail "endless polling loop terminated"

(* a queue term expensive enough to normalize that a millisecond deadline
   fires long before fuel or completion: a modest ADD chain wrapped in a
   stack of REMOVEs multiplies the rewrite work (every REMOVE walks the
   whole chain) while the source term itself stays small and cheap to
   parse *)
let expensive_queue_term ~adds ~removes =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "FRONT(";
  for _ = 1 to removes do
    Buffer.add_string buf "REMOVE("
  done;
  for _ = 1 to adds do
    Buffer.add_string buf "ADD("
  done;
  Buffer.add_string buf "NEW";
  for i = 1 to adds do
    Buffer.add_string buf (Fmt.str ", ITEM%d)" ((i mod 3) + 1))
  done;
  for _ = 1 to removes do
    Buffer.add_char buf ')'
  done;
  Buffer.add_char buf ')';
  Buffer.contents buf

let test_timeout_classification () =
  let session = queue_session ~timeout:0.001 () in
  let term = expensive_queue_term ~adds:300 ~removes:250 in
  let r = reply session ("normalize Queue " ^ term) in
  check_prefix "deadline answers error timeout, never internal" "error timeout" r;
  (* the session and its cache survive the interrupted request *)
  Alcotest.(check string) "still serving" "ok normalize steps=1 true"
    (reply session "normalize Queue IS_EMPTY?(NEW)")

let test_prove_fuel_clamp () =
  let goal =
    "prove fuel=1000000 Queue q:Queue,i:Item IS_EMPTY?(REMOVE(ADD(q, i))) == \
     IS_EMPTY?(q)"
  in
  (* with room the goal is provable... *)
  let roomy = queue_session () in
  check_prefix "provable with room" "ok prove Queue proved" (reply roomy goal);
  (* ...but fuel=1000000 must not raise a tiny session ceiling: clamped to
     1 step per normalization, the proof search comes back empty-handed *)
  let tight = queue_session ~fuel:1 () in
  check_prefix "request fuel clamped to the ceiling" "ok prove Queue unknown"
    (reply tight goal);
  (* prove charges its rewrite steps to the session metrics like normalize *)
  let spent session =
    (Metrics.snapshot (Session.metrics session)).Metrics.fuel_spent
  in
  Alcotest.(check bool) "prove charges fuel" true (spent roomy > 0);
  Alcotest.(check bool) "clamped prove still meters" true (spent tight > 0)

let test_effective_fuel () =
  let limits = Limits.v ~fuel:100 () in
  Alcotest.(check int) "default" 100 (Limits.effective_fuel limits None);
  Alcotest.(check int) "lowered" 10 (Limits.effective_fuel limits (Some 10));
  Alcotest.(check int) "capped" 100 (Limits.effective_fuel limits (Some 1000))

(* session-edit's two failures answer distinct codes: an unopened name is
   unknown-spec, an unparseable body is parse *)
let test_session_edit_errors () =
  let session = queue_session () in
  let edit name body =
    let pending = ref body in
    let read_line () =
      match !pending with
      | [] -> None
      | l :: rest ->
        pending := rest;
        Some l
    in
    match
      Dispatch.handle_line ~read_line session
        (Fmt.str "session-edit lines=%d %s" (List.length body) name)
    with
    | Dispatch.Reply r -> r
    | _ -> Alcotest.fail "session-edit gave no reply"
  in
  check_prefix "unopened document" "error unknown-spec no open document"
    (edit "Queue" [ "spec Queue sort Queue end" ]);
  check_prefix "opened" "ok session-open Queue" (reply session "session-open Queue");
  check_prefix "unparseable body" "error parse"
    (edit "Queue" [ "spec Queue"; "  sort" ])

let suite =
  [
    Helpers.case "blank and comment lines are silent" test_parse_blank_and_comment;
    Helpers.case "normalize requests parse" test_parse_normalize;
    Helpers.case "prove requests parse" test_parse_prove;
    Helpers.case "malformed requests are rejected" test_parse_errors;
    Helpers.case "payload sanitization" test_sanitize;
    Helpers.case "repeated requests hit the shared cache" test_cross_request_cache;
    Helpers.case "errors never kill the session" test_error_isolation;
    Helpers.case "per-request fuel limits" test_fuel_limit;
    Helpers.case "session fuel is a ceiling" test_session_fuel_ceiling;
    Helpers.case "stats reports every counter" test_stats_counters;
    Helpers.case "prove requests" test_prove_request;
    Helpers.case "quit closes, comments are silent" test_quit_and_silent;
    Helpers.case "session cache stays bounded" test_bounded_session_cache;
    Helpers.case "deadlines interrupt polling work, never finished work"
      test_with_deadline;
    Helpers.case "timeouts answer error timeout" test_timeout_classification;
    Helpers.case "prove fuel is clamped and metered" test_prove_fuel_clamp;
    Helpers.case "effective fuel caps at the session ceiling" test_effective_fuel;
    Helpers.case "session-edit errors are typed" test_session_edit_errors;
  ]
