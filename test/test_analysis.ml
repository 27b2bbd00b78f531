(* The lint subsystem: one test block per ADTxxx rule (each against the
   shape seeded in specs/faulty/), the driver's filtering and counting,
   the renderers, and the engine's lint verb. The CLI transcripts are
   pinned by cli_tests; these tests exercise the pieces directly. *)

open Adt
open Analysis

let contains = Astring_contains.contains

let parse src =
  match Parser.parse_spec src with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "parse: %a" Parser.pp_error e

(* the same seeded faults as specs/faulty/*.adt, one string per file, so
   the unit tests need no filesystem access *)

let missing_case_src =
  {|
spec Elem
  sort Elem
  ops
    E1 : -> Elem
    E2 : -> Elem
  constructors E1 E2
end
spec LeakyQueue
  uses Elem
  sort LeakyQueue
  ops
    NEWQ : -> LeakyQueue
    PUSH : LeakyQueue Elem -> LeakyQueue
    POP : LeakyQueue -> LeakyQueue
    PEEK : LeakyQueue -> Elem
  constructors NEWQ PUSH
  vars
    q : LeakyQueue
    e : Elem
  axioms
    [pop_push] POP(PUSH(q, e)) = q
    [peek_push] PEEK(PUSH(q, e)) = e
end
|}

let divergent_src =
  {|
spec Toggle
  sort Toggle
  ops
    ON : -> Toggle
    OFF : -> Toggle
    FLIP : Toggle -> Toggle
    LIT? : Toggle -> Bool
  constructors ON OFF
  vars
    t : Toggle
  axioms
    [flip_on] FLIP(ON) = OFF
    [flip_off] FLIP(OFF) = ON
    [lit_on] LIT?(ON) = true
    [lit_off] LIT?(OFF) = false
    [flip_lit] LIT?(FLIP(t)) = LIT?(t)
end
|}

let nonlinear_src =
  {|
spec Sym
  sort Sym
  ops
    A : -> Sym
    B : -> Sym
    SAME? : Sym Sym -> Bool
  constructors A B
  vars
    s : Sym
  axioms
    [eq] SAME?(s, s) = true
end
|}

let free_rhs_src =
  {|
spec Counter
  sort Counter
  ops
    ZERO : -> Counter
    INC : Counter -> Counter
    SEED : -> Counter
  constructors ZERO INC
  vars
    c : Counter
  axioms
    [seed] SEED = INC(c)
end
|}

let dead_axiom_src =
  {|
spec Blip
  sort Blip
  ops
    INIT : -> Blip
    STATUS : Blip -> Bool
  constructors INIT
  vars
    b : Blip
  axioms
    [status_any] STATUS(b) = true
    [status_init] STATUS(INIT) = false
end
|}

let unreachable_src =
  {|
spec Loop
  sort Loop
  ops
    SPIN : Loop -> Loop
    DONE? : Loop -> Bool
  constructors SPIN
  vars
    l : Loop
  axioms
    [spin] DONE?(SPIN(l)) = false
end
|}

let strict_error_src =
  {|
spec Widget
  sort Widget
  ops
    W1 : -> Widget
    W2 : -> Widget
  constructors W1 W2
end
spec Sink
  uses Widget
  sort Sink
  ops
    NEWS : -> Sink
    PUT : Sink Widget -> Sink
    GET : Sink -> Widget
  constructors NEWS PUT
  vars
    s : Sink
    w : Widget
  axioms
    [get_err] GET(error) = W1
    [get_put] GET(PUT(s, w)) = w
end
|}

let blend_incomplete_src =
  {|
spec Light
  sort Light
  ops
    RED : -> Light
    GREEN : -> Light
    BLEND : Light Light -> Light
  constructors RED GREEN
  vars
    l : Light
  axioms
    [rr] BLEND(RED, RED) = RED
    [rg] BLEND(RED, GREEN) = GREEN
    [gr] BLEND(GREEN, RED) = GREEN
end
|}

let unorientable_src =
  {|
spec Flow
  sort Flow
  ops
    SRC : -> Flow
    PIPE : Flow -> Flow
    MERGE : Flow Flow -> Flow
  constructors SRC PIPE
  vars
    a : Flow
    b : Flow
  axioms
    [comm] MERGE(a, b) = MERGE(b, a)
end
|}

let nonconfluent_src =
  {|
spec Tally
  sort Tally
  ops
    Z : -> Tally
    S : Tally -> Tally
  constructors Z S
  vars
    x : Tally
  axioms
    [wrap3] S(S(S(x))) = Z
    [drop2] S(S(x)) = x
end
|}

let codes_of diags = List.map (fun d -> d.Diagnostic.code) diags

let count code diags =
  List.length (List.filter (fun d -> String.equal d.Diagnostic.code code) diags)

(* {1 Diagnostic} *)

let test_diagnostic_rejects_unpublished_code () =
  Alcotest.check_raises "unpublished code"
    (Invalid_argument "Diagnostic.v: unpublished rule code ADT999") (fun () ->
      ignore
        (Diagnostic.v ~code:"ADT999" ~severity:Diagnostic.Error ~spec:"X" "m"))

let test_severity_order () =
  Alcotest.(check bool) "error >= warning" true
    (Diagnostic.severity_at_least Diagnostic.Error
       ~threshold:Diagnostic.Warning);
  Alcotest.(check bool) "info < warning" false
    (Diagnostic.severity_at_least Diagnostic.Info ~threshold:Diagnostic.Warning);
  Alcotest.(check (option string))
    "round trip" (Some "warning")
    (Option.map Diagnostic.severity_name
       (Diagnostic.severity_of_string "warning"))

let test_rule_table () =
  Alcotest.(check (list string))
    "published codes"
    [
      "ADT001"; "ADT002"; "ADT010"; "ADT011"; "ADT012"; "ADT013"; "ADT014";
      "ADT020"; "ADT021"; "ADT022";
    ]
    Diagnostic.codes;
  Alcotest.(check string) "slug" "dead-axiom" (Diagnostic.slug_of_code "ADT012")

let test_to_line_format () =
  let d =
    Diagnostic.v ~code:"ADT010" ~severity:Diagnostic.Warning ~spec:"Sym"
      ~op:"SAME?" ~axiom:"eq" ~suggestion:"split it" "not left-linear"
  in
  Alcotest.(check string)
    "line"
    "ADT010 non-left-linear warning Sym, op SAME?, axiom [eq]: not \
     left-linear (suggest: split it)"
    (Diagnostic.to_line d)

(* {1 The passes, one faulty input each} *)

let test_left_linear () =
  match Left_linear.check (parse nonlinear_src) with
  | [ d ] ->
    Alcotest.(check string) "code" "ADT010" d.Diagnostic.code;
    Alcotest.(check bool) "warning" true
      (d.Diagnostic.severity = Diagnostic.Warning);
    Alcotest.(check (option string)) "op" (Some "SAME?") d.Diagnostic.locus.Diagnostic.op;
    Alcotest.(check (option string))
      "axiom" (Some "eq") d.Diagnostic.locus.Diagnostic.axiom
  | other -> Alcotest.failf "expected 1 finding, got %d" (List.length other)

let test_free_rhs () =
  match Free_rhs.check (parse free_rhs_src) with
  | [ d ] ->
    Alcotest.(check string) "code" "ADT011" d.Diagnostic.code;
    Alcotest.(check bool) "error" true (d.Diagnostic.severity = Diagnostic.Error);
    Alcotest.(check bool) "names the variable" true
      (contains d.Diagnostic.message "variable c")
  | other -> Alcotest.failf "expected 1 finding, got %d" (List.length other)

let test_dead_axiom () =
  match Dead_axiom.check (parse dead_axiom_src) with
  | [ d ] ->
    Alcotest.(check string) "code" "ADT012" d.Diagnostic.code;
    Alcotest.(check (option string))
      "the dead one" (Some "status_init") d.Diagnostic.locus.Diagnostic.axiom;
    Alcotest.(check bool) "names the subsumer" true
      (contains d.Diagnostic.message "status_any")
  | other -> Alcotest.failf "expected 1 finding, got %d" (List.length other)

let test_dead_axiom_order_sensitivity () =
  (* the specific case first is the idiomatic order and is not dead *)
  let reordered =
    parse
      {|
spec Blip
  sort Blip
  ops
    INIT : -> Blip
    STATUS : Blip -> Bool
  constructors INIT
  vars
    b : Blip
  axioms
    [status_init] STATUS(INIT) = false
    [status_any] STATUS(b) = true
end
|}
  in
  Alcotest.(check int) "specific-first is live" 0
    (List.length (Dead_axiom.check reordered))

let test_reachability () =
  match Reachability.check (parse unreachable_src) with
  | [ d ] ->
    Alcotest.(check string) "code" "ADT013" d.Diagnostic.code;
    Alcotest.(check bool) "error" true (d.Diagnostic.severity = Diagnostic.Error);
    Alcotest.(check bool) "names the sort" true
      (contains d.Diagnostic.message "sort Loop")
  | other -> Alcotest.failf "expected 1 finding, got %d" (List.length other)

let test_reachability_fixpoint_through_layers () =
  (* inhabitation must propagate: Box is inhabited only via Base, which a
     one-round check would miss if it visited Box first *)
  let layered =
    parse
      {|
spec Layered
  sort Base
  sort Box
  ops
    B0 : -> Base
    WRAP : Base -> Box
    UNWRAP : Box -> Base
  constructors B0 WRAP
  vars
    x : Box
  axioms
    [u] UNWRAP(x) = B0
end
|}
  in
  Alcotest.(check int) "both sorts inhabited" 0
    (List.length (Reachability.check layered))

let test_strict_error () =
  match Strict_error.check (parse strict_error_src) with
  | [ d ] ->
    Alcotest.(check string) "code" "ADT014" d.Diagnostic.code;
    Alcotest.(check (option string))
      "axiom" (Some "get_err") d.Diagnostic.locus.Diagnostic.axiom
  | other -> Alcotest.failf "expected 1 finding, got %d" (List.length other)

(* {1 The adapted rules} *)

let test_missing_case_adapter () =
  let diags = Lint.run (parse missing_case_src) in
  Alcotest.(check int) "two missing boundary cases" 2 (count "ADT001" diags);
  List.iter
    (fun d ->
      Alcotest.(check bool) "suggests an error stub" true
        (match d.Diagnostic.suggestion with
        | Some s -> contains s "error"
        | None -> false))
    (List.filter (fun d -> String.equal d.Diagnostic.code "ADT001") diags)

let test_critical_pair_adapter () =
  let diags = Lint.run (parse divergent_src) in
  Alcotest.(check int) "two divergent pairs" 2 (count "ADT002" diags);
  List.iter
    (fun d ->
      Alcotest.(check bool) "inconsistency is error severity" true
        (d.Diagnostic.severity = Diagnostic.Error))
    (List.filter (fun d -> String.equal d.Diagnostic.code "ADT002") diags)

(* {1 The driver} *)

let test_every_rule_fires_on_its_faulty_input () =
  List.iter
    (fun (src, code) ->
      let diags = Lint.run (parse src) in
      Alcotest.(check bool)
        (Fmt.str "%s fires" code)
        true
        (List.mem code (codes_of diags)))
    [
      (missing_case_src, "ADT001");
      (divergent_src, "ADT002");
      (nonlinear_src, "ADT010");
      (free_rhs_src, "ADT011");
      (dead_axiom_src, "ADT012");
      (unreachable_src, "ADT013");
      (strict_error_src, "ADT014");
      (blend_incomplete_src, "ADT020");
      (unorientable_src, "ADT021");
      (nonconfluent_src, "ADT022");
    ]

let test_silent_on_the_paper_corpus () =
  Alcotest.(check bool)
    "corpus is non-empty" true
    (List.length Adt_specs.Corpus.all >= 10);
  List.iter
    (fun spec ->
      Alcotest.(check (list string))
        (Fmt.str "%s is clean" (Spec.name spec))
        []
        (codes_of (Lint.run spec)))
    Adt_specs.Corpus.all

let test_rule_filter () =
  let config = { Lint.only = Some [ "ADT010" ]; fuel = None } in
  let diags = Lint.run ~config (parse nonlinear_src) in
  Alcotest.(check (list string)) "only ADT010" [ "ADT010" ] (codes_of diags);
  Alcotest.check_raises "unknown code"
    (Invalid_argument "Lint.run: unknown rule code ADT9") (fun () ->
      ignore
        (Lint.run ~config:{ Lint.only = Some [ "ADT9" ]; fuel = None }
           (parse nonlinear_src)))

let test_static_subset () =
  let diags = Lint.static (parse strict_error_src) in
  (* ADT001 would fire on a full run; static must leave it out *)
  Alcotest.(check (list string)) "static only" [ "ADT014" ] (codes_of diags)

let test_counts_by_rule () =
  let diags = Lint.run (parse nonlinear_src) in
  let counts = Lint.counts_by_rule diags in
  Alcotest.(check int) "every code listed" (List.length Diagnostic.codes)
    (List.length counts);
  Alcotest.(check (option int)) "ADT010" (Some 1)
    (List.assoc_opt "ADT010" counts);
  Alcotest.(check (option int)) "ADT012 zero" (Some 0)
    (List.assoc_opt "ADT012" counts);
  Alcotest.(check int) "counts sum to findings" (List.length diags)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 counts)

let test_max_severity () =
  Alcotest.(check bool) "clean spec has no severity" true
    (Lint.max_severity (Lint.run (parse {|
spec T
  sort T
  ops
    MK : -> T
  constructors MK
end
|})) = None);
  Alcotest.(check bool) "nonlinear peaks at error (ADT001)" true
    (Lint.max_severity (Lint.run (parse nonlinear_src))
    = Some Diagnostic.Error)

(* {1 Renderers} *)

let test_text_render () =
  let groups = [ ("f.adt", Lint.run (parse nonlinear_src)) ] in
  let out = Render.text groups in
  Alcotest.(check bool) "file prefix" true (contains out "f.adt: ADT");
  (* ADT001 + ADT020 (errors) and ADT010 (warning) on the nonlinear seed *)
  Alcotest.(check bool) "summary" true
    (contains out "3 findings (2 errors, 1 warning, 0 info)")

let test_json_render_escapes () =
  let d =
    Diagnostic.v ~code:"ADT001" ~severity:Diagnostic.Info ~spec:"S"
      "a \"quoted\"\nmessage"
  in
  let line = Render.json_lines [ ("f.adt", [ d ]) ] in
  Alcotest.(check bool) "escaped quote" true (contains line {|a \"quoted\"|});
  Alcotest.(check bool) "escaped newline" true (contains line {|\nmessage|});
  Alcotest.(check bool) "null op" true (contains line {|"op":null|})

let test_json_render_one_object_per_finding () =
  let diags = Lint.run (parse divergent_src) in
  let out = Render.json_lines [ ("d.adt", diags) ] in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "one line per finding" (List.length diags)
    (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "looks like an object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

let test_sarif_render () =
  let infod = Diagnostic.v ~code:"ADT002" ~severity:Diagnostic.Info ~spec:"S" "t" in
  let out =
    Render.sarif
      [
        ("d.adt", Lint.run (parse divergent_src));
        ("i.adt", [ infod ]);
      ]
  in
  Alcotest.(check bool) "version" true (contains out {|"version":"2.1.0"|});
  Alcotest.(check bool) "schema" true (contains out "sarif-2.1.0.json");
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (Fmt.str "rule %s published" code)
        true
        (contains out (Fmt.str {|"id":"%s"|} code)))
    Diagnostic.codes;
  Alcotest.(check bool) "error level" true (contains out {|"level":"error"|});
  Alcotest.(check bool) "info maps to note" true
    (contains out {|"level":"note"|});
  Alcotest.(check bool) "physical location" true
    (contains out {|"artifactLocation":{"uri":"d.adt"}|})

(* {1 Heuristics on the faulty corpus (the ADT001 feeder)} *)

let test_prompts_boundary_classification_on_faulty () =
  match Heuristics.prompts (parse missing_case_src) with
  | [ p1; p2 ] ->
    List.iter
      (fun (p : Heuristics.prompt) ->
        Alcotest.(check bool) "boundary kind" true
          (p.Heuristics.kind = Heuristics.Boundary);
        Alcotest.(check bool) "boundary wording" true
          (contains p.Heuristics.question "boundary"))
      [ p1; p2 ]
  | other -> Alcotest.failf "expected 2 prompts, got %d" (List.length other)

let test_prompts_general_classification_on_faulty () =
  (* SEED is a hole with no constructor in it: a general case. On Sym the
     non-left-linear [eq] leaves the ground pair SAME?(A, B), a boundary
     case. *)
  (match Heuristics.prompts (parse free_rhs_src) with
  | [ p ] ->
    Alcotest.(check bool) "general kind" true
      (p.Heuristics.kind = Heuristics.General)
  | other -> Alcotest.failf "expected 1 prompt, got %d" (List.length other));
  match Heuristics.prompts (parse nonlinear_src) with
  | [ p ] ->
    Alcotest.(check string) "the ground counterexample" "SAME?(A, B)"
      (Term.to_string p.Heuristics.missing_lhs);
    Alcotest.(check bool) "boundary kind" true
      (p.Heuristics.kind = Heuristics.Boundary)
  | other -> Alcotest.failf "expected 1 prompt, got %d" (List.length other)

let test_stub_axioms_on_faulty () =
  let spec = parse missing_case_src in
  let stubs = Heuristics.stub_axioms spec in
  Alcotest.(check int) "one stub per missing case" 2 (List.length stubs);
  List.iter
    (fun ax ->
      Alcotest.(check bool) "stub rhs is error" true
        (Term.is_error (Axiom.rhs ax)))
    stubs;
  let completed = Heuristics.complete_with_stubs spec in
  Alcotest.(check int) "stubs silence ADT001" 0
    (count "ADT001" (Lint.run completed))

(* {1 The engine's lint verb} *)

let faulty_session () =
  match Parser.parse_specs divergent_src with
  | Ok specs -> Engine.Session.create specs
  | Error e -> Alcotest.failf "parse: %a" Parser.pp_error e

let reply session line =
  match Engine.Dispatch.handle_line session line with
  | Engine.Dispatch.Reply r -> r
  | _ -> Alcotest.failf "expected a reply for %S" line

let test_lint_verb_frames_findings () =
  let session = faulty_session () in
  let r = reply session "lint Toggle" in
  let lines = String.split_on_char '\n' r in
  (* Toggle: two divergent critical pairs (ADT002) plus the confluence
     verdict they refute (ADT022) *)
  (match lines with
  | header :: body ->
    Alcotest.(check string) "header" "ok lint Toggle findings=3" header;
    Alcotest.(check int) "framed body" 3 (List.length body);
    List.iter
      (fun l ->
        Alcotest.(check bool) "body lines are diagnostics" true
          (contains l "ADT0"))
      body
  | [] -> Alcotest.fail "empty reply");
  let m = Engine.Metrics.snapshot (Engine.Session.metrics session) in
  Alcotest.(check (option int))
    "rule hit counter" (Some 2)
    (List.assoc_opt "ADT002" m.Engine.Metrics.rule_hits);
  Alcotest.(check (option int))
    "confluence rule hit counter" (Some 1)
    (List.assoc_opt "ADT022" m.Engine.Metrics.rule_hits);
  Alcotest.(check (option int))
    "lint kind counted" (Some 1)
    (List.assoc_opt "lint" (Engine.Metrics.by_kind m))

let test_lint_verb_unknown_spec () =
  let session = faulty_session () in
  let r = reply session "lint Nope" in
  Alcotest.(check bool) "unknown-spec error" true
    (contains r "error unknown-spec")

let test_lint_verb_agrees_with_direct_run () =
  let spec = parse divergent_src in
  let direct = List.length (Lint.run spec) in
  let session = faulty_session () in
  let r = reply session "lint Toggle" in
  Alcotest.(check bool)
    "findings count matches Lint.run" true
    (contains r (Fmt.str "findings=%d" direct))

let suite =
  [
    Alcotest.test_case "diagnostic: unpublished code" `Quick
      test_diagnostic_rejects_unpublished_code;
    Alcotest.test_case "diagnostic: severity order" `Quick test_severity_order;
    Alcotest.test_case "diagnostic: rule table" `Quick test_rule_table;
    Alcotest.test_case "diagnostic: to_line" `Quick test_to_line_format;
    Alcotest.test_case "ADT010 non-left-linear" `Quick test_left_linear;
    Alcotest.test_case "ADT011 free-rhs-variable" `Quick test_free_rhs;
    Alcotest.test_case "ADT012 dead-axiom" `Quick test_dead_axiom;
    Alcotest.test_case "ADT012 order sensitivity" `Quick
      test_dead_axiom_order_sensitivity;
    Alcotest.test_case "ADT013 unreachable-sort" `Quick test_reachability;
    Alcotest.test_case "ADT013 fixpoint through layers" `Quick
      test_reachability_fixpoint_through_layers;
    Alcotest.test_case "ADT014 non-strict-error" `Quick test_strict_error;
    Alcotest.test_case "ADT001 adapter" `Quick test_missing_case_adapter;
    Alcotest.test_case "ADT002 adapter" `Quick test_critical_pair_adapter;
    Alcotest.test_case "every rule fires on its faulty input" `Quick
      test_every_rule_fires_on_its_faulty_input;
    Alcotest.test_case "silent on the paper corpus" `Quick
      test_silent_on_the_paper_corpus;
    Alcotest.test_case "driver: rule filter" `Quick test_rule_filter;
    Alcotest.test_case "driver: static subset" `Quick test_static_subset;
    Alcotest.test_case "driver: counts by rule" `Quick test_counts_by_rule;
    Alcotest.test_case "driver: max severity" `Quick test_max_severity;
    Alcotest.test_case "render: text" `Quick test_text_render;
    Alcotest.test_case "render: json escaping" `Quick test_json_render_escapes;
    Alcotest.test_case "render: json one object per finding" `Quick
      test_json_render_one_object_per_finding;
    Alcotest.test_case "render: sarif" `Quick test_sarif_render;
    Alcotest.test_case "heuristics: boundary prompts on faulty corpus" `Quick
      test_prompts_boundary_classification_on_faulty;
    Alcotest.test_case "heuristics: general prompts on faulty corpus" `Quick
      test_prompts_general_classification_on_faulty;
    Alcotest.test_case "heuristics: stub axioms on faulty corpus" `Quick
      test_stub_axioms_on_faulty;
    Alcotest.test_case "engine: lint verb framing and metrics" `Quick
      test_lint_verb_frames_findings;
    Alcotest.test_case "engine: lint verb unknown spec" `Quick
      test_lint_verb_unknown_spec;
    Alcotest.test_case "engine: lint verb agrees with Lint.run" `Quick
      test_lint_verb_agrees_with_direct_run;
  ]
