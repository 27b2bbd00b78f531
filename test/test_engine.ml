(* The evaluation engine: protocol parsing, dispatch, error isolation,
   limits, and metrics. The end-to-end batch transcript is pinned by the
   cli_tests expect test; these tests exercise the pieces directly. *)

open Adt_specs
open Engine

let reply session line =
  match Dispatch.handle_line session line with
  | Dispatch.Reply r -> r
  | Dispatch.Silent -> Alcotest.failf "unexpected Silent for %S" line
  | Dispatch.Closed _ -> Alcotest.failf "unexpected Closed for %S" line

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
  (match Protocol.parse "normalize fuel=7 Queue FRONT(ADD(NEW, ITEM1))" with
  | Ok (Some (Protocol.Normalize { spec; term; fuel })) ->
    Alcotest.(check string) "spec" "Queue" spec;
    Alcotest.(check string) "term" "FRONT(ADD(NEW, ITEM1))" term;
    Alcotest.(check (option int)) "fuel" (Some 7) fuel
  | _ -> Alcotest.fail "normalize did not parse");
  (* the term is the rest of the line after SPEC, its spacing kept *)
  match Protocol.parse "normalize  Queue \t FRONT(ADD(NEW,\t ITEM1))  " with
  | Ok (Some (Protocol.Normalize { spec = "Queue"; term; fuel = None })) ->
    Alcotest.(check string) "unsplit term" "FRONT(ADD(NEW,\t ITEM1))" term
  | _ -> Alcotest.fail "normalize with blanks did not parse"

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

(* {2 Generated request lines}

   An independent model of the request grammar: per kind, its option
   keys with good and bad values, the positional-word counts that fit it
   (given the option keys present), and its usage line. Lines are built
   from this vocabulary — each keyword or an unknown one, options, 0-4
   positional words, runs of spaces and tabs — and a third of them get a
   single-byte mutation. The model's keywords must be [Protocol.kinds],
   so a new kind fails here until the model learns it. *)

type grammar_row = {
  kind : string;
  keys : (string * (string list * string list)) list;
  fits : string list -> int -> bool;
  usage : string;
}

let positive_values = ([ "1"; "7"; "250" ], [ "0"; "-3"; "x"; "" ])
let spec_only kind =
  { kind; keys = []; fits = (fun _ n -> n = 1); usage = kind ^ " SPEC" }

let bare kind = { kind; keys = []; fits = (fun _ n -> n = 0); usage = kind }

let grammar =
  [
    { kind = "normalize"; keys = [ ("fuel", positive_values) ];
      fits = (fun _ n -> n >= 2); usage = "normalize [fuel=N] SPEC TERM" };
    spec_only "check"; spec_only "skeletons"; spec_only "lint";
    { kind = "testgen";
      keys =
        [ ("count", positive_values); ("seed", ([ "0"; "-5"; "42" ], [ "x"; "1.5" ]));
          ("impl", ([ "queue" ], [])) ];
      fits = (fun _ n -> n = 1);
      usage = "testgen [impl=NAME] [count=N] [seed=S] SPEC" };
    { kind = "prove"; keys = [ ("fuel", positive_values) ];
      fits = (fun _ n -> n >= 2);
      usage = "prove [fuel=N] SPEC VARS LHS == RHS (VARS is '-' or name:Sort,...)" };
    { kind = "stats"; keys = [ ("verbose", ([ "true"; "false" ], [ "yes"; "1" ])) ];
      fits = (fun _ n -> n = 0); usage = "stats [verbose=true]" };
    bare "metrics"; bare "slowlog"; spec_only "session-open";
    { kind = "session-edit"; keys = [ ("lines", positive_values) ];
      fits = (fun keys n -> List.mem "lines" keys && n = 1);
      usage = "session-edit lines=N SPEC, followed by N raw body lines" };
    spec_only "session-status"; bare "quit";
  ]

let test_grammar_model () =
  Alcotest.(check (list string)) "model keywords" Protocol.kinds
    (List.map (fun g -> g.kind) grammar)

(* a word containing '=' right after the options would be read as one,
   so "==" only follows the first positional word *)
let first_words = [ "Queue"; "NEW"; "FRONT(ADD(NEW,"; "q:Queue,i:Item"; "-"; "#"; "x,y" ]
let later_words = "==" :: "ITEM1))" :: "IS_EMPTY?(q)" :: "false" :: first_words

let line_words line =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
  |> List.filter (( <> ) "")

type generated = {
  row : grammar_row option;  (** [None]: an unknown keyword. *)
  keyword : string;
  present : string list;  (** Option keys on the line. *)
  all_good : bool;  (** Every option is accepted and well-valued. *)
  positional : int;
  mutated : bool;
  line : string;
}

let generate st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let blanks () = pick [ " "; "  "; "\t"; " \t"; "\t \t " ] in
  let row = if Random.State.int st 10 = 0 then None else Some (pick grammar) in
  let keyword =
    match row with Some g -> g.kind | None -> pick [ "frobnicate"; "Normalize"; "stat" ]
  in
  let keys = match row with Some g -> g.keys | None -> [] in
  let opts =
    List.filter_map
      (fun (key, (good, bad)) ->
        if Random.State.bool st then None
        else
          let ok = bad = [] || Random.State.int st 4 > 0 in
          Some (key, ok, pick (if ok then good else bad)))
      keys
  in
  (* a key no kind accepts *)
  let opts =
    if Random.State.int st 10 = 0 then opts @ [ ("volume", false, "11") ]
    else opts
  in
  let positional = Random.State.int st 5 in
  let words =
    List.init positional (fun i -> pick (if i = 0 then first_words else later_words))
  in
  let b = Buffer.create 64 in
  if Random.State.int st 4 = 0 then Buffer.add_string b (blanks ());
  Buffer.add_string b keyword;
  List.iter (fun (k, _, v) -> Buffer.add_string b (blanks () ^ k ^ "=" ^ v)) opts;
  List.iter (fun w -> Buffer.add_string b (blanks () ^ w)) words;
  if Random.State.int st 4 = 0 then Buffer.add_string b (blanks ());
  let line = Buffer.contents b in
  let mutated = Random.State.int st 3 = 0 in
  let line =
    if not mutated then line
    else
      let i = Random.State.int st (String.length line) in
      let byte =
        String.make 1
          (pick
             [ ' '; '\t'; '='; '#'; ','; ':'; '\n'; '\r';
               Char.chr (Random.State.int st 256) ])
      in
      let before = String.sub line 0 i
      and after k = String.sub line k (String.length line - k) in
      match Random.State.int st 3 with
      | 0 -> before ^ byte ^ after (i + 1)
      | 1 -> before ^ byte ^ after i
      | _ -> before ^ after (i + 1)
  in
  {
    row; keyword; line; positional; mutated;
    present = List.map (fun (k, _, _) -> k) opts;
    all_good = List.for_all (fun (_, ok, _) -> ok) opts;
  }

(* one protocol line: no CR, LF or TAB inside it *)
let one_line reply =
  not (String.exists (function '\r' | '\n' | '\t' -> true | _ -> false) reply)

let parse_property g =
  let fail fmt = QCheck2.Test.fail_reportf ("%S: " ^^ fmt) g.line in
  match Protocol.parse g.line with
  | exception e -> fail "raised %s" (Printexc.to_string e)
  | result ->
    (* a refused line's reply is one well-formed line, whatever bytes the
       message echoes *)
    (match result with
    | Error message ->
      let reply =
        Protocol.render (Protocol.Error_response { code = "protocol"; message })
      in
      if not (one_line reply) then fail "refusal rendered as %S" reply
    | Ok _ -> ());
    (match result with
    | Ok (Some r)
      when Some (Protocol.kind_name r)
           <> List.nth_opt (line_words (String.trim g.line)) 0 ->
      fail "parsed as a %s request" (Protocol.kind_name r)
    | _ -> ());
    (match g.row with
    | _ when g.mutated -> ()
    | None -> (
      match result with
      | Error m when String.starts_with ~prefix:("unknown request " ^ g.keyword) m -> ()
      | _ -> fail "an unknown keyword was not refused")
    | Some _ when not g.all_good -> ()
    | Some row when not (row.fits g.present g.positional) ->
      if result <> Error (row.kind ^ " expects: " ^ row.usage) then
        fail "wrong arity answered %s"
          (match result with Error m -> m | Ok _ -> "a request")
    | Some row -> (
      match result with
      | Ok (Some _) -> ()
      | Error _ when String.equal row.kind "prove" -> ()
      | Error m -> fail "well-formed line refused: %s" m
      | Ok None -> fail "well-formed line silent"));
    true

let parse_line_count = if Helpers.long_mode then 50_000 else 5_000

let test_parse_generated =
  Helpers.qcheck ~count:parse_line_count "generated request lines"
    (QCheck2.Gen.map
       (fun seed -> generate (Random.State.make [| seed; 0x70c01 |]))
       QCheck2.Gen.(int_range 0 max_int))
    parse_property

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

(* request bytes echoed into an error message never break the reply line:
   a CR inside a word reaches the message, and the reply still is one
   line *)
let test_echoed_bytes_stay_one_line () =
  let session = queue_session () in
  List.iter
    (fun (line, expected) ->
      let r = reply session line in
      Alcotest.(check bool) (Fmt.str "%S answers one line" line) true (one_line r);
      check_prefix (Fmt.str "%S" line) expected r)
    [
      ("frob\rnicate Queue", "error protocol unknown request frob nicate (expected ");
      ("check Qu\reue", "error unknown-spec no specification named Qu eue is loaded");
      ( "session-status a\rb",
        "error unknown-spec no open document named a b (session-open it first)" );
    ]

(* the batch transcript echoes each request through the reply sanitizer,
   so a CR inside a request word reaches neither the echo nor the reply *)
let test_batch_echo_sanitized () =
  let session = queue_session () in
  let input = Filename.temp_file "adtc-echo" ".requests"
  and output = Filename.temp_file "adtc-echo" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove input; Sys.remove output)
  @@ fun () ->
  Out_channel.with_open_bin input (fun oc ->
      output_string oc "frob\rnicate Queue\ncheck Qu\reue\nsession-status a\rb\n");
  In_channel.with_open_bin input (fun ic ->
      Out_channel.with_open_bin output (fun oc ->
          Server.serve ~echo:true session ic oc));
  let transcript = In_channel.with_open_bin output In_channel.input_all in
  Alcotest.(check bool) "no CR byte" false (String.contains transcript '\r');
  Alcotest.(check (list string))
    "sanitized echoes"
    [ "> frob nicate Queue"; "> check Qu eue"; "> session-status a b" ]
    (List.filter
       (fun l -> String.starts_with ~prefix:"> " l)
       (String.split_on_char '\n' transcript))

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
  | Dispatch.Closed reply -> Alcotest.(check string) "quit reply" "ok bye" reply
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

(* the number after [key=] in a reply or exposition line *)
let field_after key text =
  let k = String.length key in
  let rec find i =
    if i + k > String.length text then Alcotest.failf "no %S in %S" key text
    else if String.equal (String.sub text i k) key then
      Scanf.sscanf (String.sub text (i + k) (String.length text - i - k))
        "%f" Float.to_int
    else find (i + 1)
  in
  find 0

(* a timed-out request is charged the steps it ran: the rule hook charges
   each step before it checks the deadline, so the slow log, the stats
   counter, the fuel histogram and the trace all read the same nonzero
   count *)
let test_timeout_charges_fuel () =
  let session =
    Session.create ~timeout:0.001 ~slowlog_ms:0. [ Queue_spec.spec ]
  in
  let term = expensive_queue_term ~adds:300 ~removes:250 in
  let outcome, trace =
    Dispatch.handle_line_obs session ("normalize Queue " ^ term)
  in
  (match outcome with
  | Dispatch.Reply r -> check_prefix "deadline answers" "error timeout" r
  | _ -> Alcotest.fail "expected a reply");
  let slow = reply session "slowlog" in
  let logged = field_after " fuel=" slow in
  Alcotest.(check bool)
    (Fmt.str "slowlog charges the steps run (%d)" logged)
    true (logged >= 1);
  Alcotest.(check int) "stats fuel is the slowlog fuel" logged
    (field_after " fuel=" (reply session "stats"));
  Alcotest.(check int) "trace steps are the slowlog fuel" logged
    (Option.get trace).Obs.Trace.total_steps;
  Alcotest.(check int) "the fuel histogram sums the slowlog fuel" logged
    (field_after "adtc_request_fuel_steps_sum " (Session.prometheus session));
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
    Helpers.case "the grammar model covers every kind" test_grammar_model;
    test_parse_generated;
    Helpers.case "repeated requests hit the shared cache" test_cross_request_cache;
    Helpers.case "errors never kill the session" test_error_isolation;
    Helpers.case "echoed request bytes stay on one reply line"
      test_echoed_bytes_stay_one_line;
    Helpers.case "the batch echo is sanitized" test_batch_echo_sanitized;
    Helpers.case "per-request fuel limits" test_fuel_limit;
    Helpers.case "session fuel is a ceiling" test_session_fuel_ceiling;
    Helpers.case "stats reports every counter" test_stats_counters;
    Helpers.case "prove requests" test_prove_request;
    Helpers.case "quit closes, comments are silent" test_quit_and_silent;
    Helpers.case "session cache stays bounded" test_bounded_session_cache;
    Helpers.case "deadlines interrupt polling work, never finished work"
      test_with_deadline;
    Helpers.case "timeouts answer error timeout" test_timeout_classification;
    Helpers.case "a timed-out request is charged its steps"
      test_timeout_charges_fuel;
    Helpers.case "prove fuel is clamped and metered" test_prove_fuel_clamp;
    Helpers.case "effective fuel caps at the session ceiling" test_effective_fuel;
    Helpers.case "session-edit errors are typed" test_session_edit_errors;
  ]
