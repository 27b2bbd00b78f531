open Adt
open Helpers

let norm t = Rewrite.normalize nat_system t

let test_normalize_ground () =
  check_term "0+0" z (norm (plus z z));
  check_term "2+3" (church 5) (norm (plus (church 2) (church 3)));
  check_term "nested" (church 4) (norm (plus (plus (church 1) (church 1)) (church 2)))

let test_normalize_open () =
  check_term "0+n" (v "n") (norm (plus z (v "n")));
  check_term "s under plus" (s (plus (v "m") (v "n")))
    (norm (plus (s (v "m")) (v "n")));
  check_term "irreducible" (plus (v "m") (v "n")) (norm (plus (v "m") (v "n")))

let test_outermost_agrees_here () =
  let t = plus (church 2) (plus (church 1) (church 1)) in
  check_term "same result" (norm t)
    (Rewrite.Reference.normalize ~strategy:Rewrite.Outermost nat_system t)

let test_error_propagation () =
  check_term "strict op" (Term.err nat) (norm (s (Term.err nat)));
  check_term "deep" (Term.err nat) (norm (plus (church 2) (s (Term.err nat))));
  Alcotest.(check bool) "bool result too" true
    (Term.is_error (norm (isz (Term.err nat))))

let test_ite_semantics () =
  check_term "true branch" z (norm (Term.ite (isz z) z (s z)));
  check_term "false branch" (s z) (norm (Term.ite (isz (s z)) z (s z)));
  check_term "error condition" (Term.err nat)
    (norm (Term.ite (isz (Term.err nat)) z (s z)))

let test_ite_lazy () =
  (* the unselected branch may be erroneous without poisoning the result *)
  check_term "lazy else" z (norm (Term.ite (isz z) z (Term.err nat)));
  check_term "lazy then" z (norm (Term.ite (isz (s z)) (Term.err nat) z))

let test_stuck_ite_frozen () =
  (* an undecided condition freezes the branches *)
  let t = Term.ite (isz (v "x")) (plus z z) (plus z (s z)) in
  let nf = norm t in
  check_term "frozen" t nf;
  Alcotest.(check bool) "normal form" true (Rewrite.is_normal_form nat_system nf)

let test_rule_priority () =
  (* an added rule with the same head takes priority *)
  let override = Rewrite.rule ~name:"ov" ~lhs:(isz z) ~rhs:Term.ff () in
  let sys = Rewrite.add_rules [ override ] nat_system in
  check_term "override wins" Term.ff (Rewrite.normalize sys (isz z))

let test_out_of_fuel () =
  let loop = Rewrite.rule ~name:"loop" ~lhs:(isz (v "x")) ~rhs:(isz (s (v "x"))) () in
  let sys = Rewrite.of_rules [ loop ] in
  Alcotest.(check bool) "opt is None" true
    (Rewrite.normalize_opt ~fuel:100 sys (isz z) = None);
  match Rewrite.normalize ~fuel:100 sys (isz z) with
  | exception Rewrite.Out_of_fuel _ -> ()
  | t -> Alcotest.failf "terminated at %a" Term.pp t

(* every normalization entry point carries the term it was given, with or
   without a memo in the engine, under either strategy in the oracle; only
   a trace carries the term it reached *)
let test_out_of_fuel_payload () =
  let loop = Rewrite.rule ~name:"loop" ~lhs:(isz (v "x")) ~rhs:(isz (s (v "x"))) () in
  let sys = Rewrite.of_rules [ loop ] in
  let t = isz z and fuel = 20 in
  let payload f =
    match f () with
    | _ -> Alcotest.fail "terminated"
    | exception Rewrite.Out_of_fuel reached -> reached
  in
  List.iter
    (fun (label, f) -> check_term label t (payload f))
    [
      ("innermost", fun () -> Rewrite.normalize ~fuel sys t);
      ( "innermost, memoized",
        fun () -> Rewrite.normalize ~memo:(Rewrite.Memo.create ()) ~fuel sys t );
      ("reference innermost", fun () -> Rewrite.Reference.normalize ~fuel sys t);
      ( "reference outermost",
        fun () ->
          Rewrite.Reference.normalize ~strategy:Rewrite.Outermost ~fuel sys t );
    ];
  check_term "trace" (isz (church fuel))
    (payload (fun () -> fst (Rewrite.trace ~fuel sys t)))

let test_normalize_count () =
  let _, n = Rewrite.normalize_count nat_system (plus (church 3) z) in
  (* ps fires 3 times, then p0 once *)
  Alcotest.(check int) "rule applications" 4 n;
  let _, n0 = Rewrite.normalize_count nat_system z in
  Alcotest.(check int) "already normal" 0 n0

let test_joinable () =
  Alcotest.(check bool) "joinable" true
    (Rewrite.joinable nat_system (plus (church 1) (church 1)) (church 2));
  Alcotest.(check bool) "not joinable" false
    (Rewrite.joinable nat_system (church 1) (church 2))

let test_step_and_trace () =
  let t = plus (church 1) z in
  (match Rewrite.step nat_system t with
  | Some e ->
    Alcotest.(check string) "first rule" "ps" e.Rewrite.rule_used;
    check_term "before" t e.Rewrite.before
  | None -> Alcotest.fail "no step");
  let nf, events = Rewrite.trace nat_system t in
  check_term "trace reaches nf" (church 1) nf;
  Alcotest.(check int) "two proper steps" 2 (List.length events);
  (* the trace is connected: each after equals the next before *)
  let rec connected = function
    | a :: (b :: _ as rest) ->
      Term.equal a.Rewrite.after b.Rewrite.before && connected rest
    | _ -> true
  in
  Alcotest.(check bool) "connected" true (connected events)

let test_trace_includes_builtin_steps () =
  let t = Term.ite (isz z) z (s z) in
  let nf, events = Rewrite.trace nat_system t in
  check_term "nf" z nf;
  Alcotest.(check bool) "has <if> step" true
    (List.exists (fun e -> e.Rewrite.rule_used = "<if>") events)

(* trace meters fuel exactly as normalize does, charging rule
   applications only: the <if> / <error> events of this Queue term are
   free, so it traces within the budget it normalizes in and runs out one
   step below it *)
let test_trace_fuel_matches_normalize () =
  let spec = Adt_specs.Queue_spec.spec in
  let sys = Rewrite.of_spec spec in
  let t = parse_term_exn spec "FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2)))" in
  let nf, steps = Rewrite.normalize_count sys t in
  let traced, events = Rewrite.trace ~fuel:steps sys t in
  check_term "same normal form at the exact budget" nf traced;
  Alcotest.(check bool) "the trace has builtin events" true
    (List.exists (fun e -> e.Rewrite.rule_used = "<if>") events);
  let out_of_fuel f =
    match f () with
    | _ -> false
    | exception Rewrite.Out_of_fuel _ -> true
  in
  Alcotest.(check bool) "normalize runs out one step below" true
    (out_of_fuel (fun () -> Rewrite.normalize ~fuel:(steps - 1) sys t));
  Alcotest.(check bool) "and so does trace" true
    (out_of_fuel (fun () -> Rewrite.trace ~fuel:(steps - 1) sys t))

let test_is_normal_form () =
  Alcotest.(check bool) "value" true (Rewrite.is_normal_form nat_system (church 2));
  Alcotest.(check bool) "redex" false
    (Rewrite.is_normal_form nat_system (plus z z));
  Alcotest.(check bool) "inner redex" false
    (Rewrite.is_normal_form nat_system (s (plus z z)))

(* per-rule firing counts, through the [on_rule] attribution hook *)
let test_stats () =
  let counts = Hashtbl.create 4 in
  let on_rule name =
    Hashtbl.replace counts name
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
  in
  let _, total =
    Rewrite.normalize_count ~on_rule nat_system (plus (church 2) (church 2))
  in
  Alcotest.(check int) "total" 3 total;
  Alcotest.(check (list (pair string int)))
    "per rule"
    [ ("p0", 1); ("ps", 2) ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq counts)))

let test_rule_validation () =
  (match Rewrite.rule ~lhs:(v "x") ~rhs:z () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "variable lhs accepted");
  match Rewrite.rule ~lhs:(s z) ~rhs:(v "y") () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unbound rhs variable accepted"

let test_system_building () =
  Alcotest.(check int) "of_spec size" 4 (Rewrite.size nat_system);
  let extra = Rewrite.rule ~name:"x" ~lhs:(isz z) ~rhs:Term.tt () in
  Alcotest.(check int) "add_rules" 5
    (Rewrite.size (Rewrite.add_rules [ extra ] nat_system));
  let axiom = Axiom.v ~name:"a" ~lhs:(isz z) ~rhs:Term.tt () in
  Alcotest.(check int) "add_axioms" 5
    (Rewrite.size (Rewrite.add_axioms [ axiom ] nat_system))

let suite =
  [
    case "ground normalization" test_normalize_ground;
    case "open-term normalization" test_normalize_open;
    case "outermost agrees on a confluent system" test_outermost_agrees_here;
    case "strict error propagation" test_error_propagation;
    case "if-then-else selection" test_ite_semantics;
    case "if-then-else is lazy in branches" test_ite_lazy;
    case "stuck conditionals freeze their branches" test_stuck_ite_frozen;
    case "added rules take priority" test_rule_priority;
    case "fuel exhaustion" test_out_of_fuel;
    case "out of fuel carries the input" test_out_of_fuel_payload;
    case "rule application counting" test_normalize_count;
    case "joinability" test_joinable;
    case "single steps and traces" test_step_and_trace;
    case "traces record builtin steps" test_trace_includes_builtin_steps;
    case "trace fuel = normalize fuel" test_trace_fuel_matches_normalize;
    case "normal-form recognition" test_is_normal_form;
    case "firing statistics" test_stats;
    case "rule validation" test_rule_validation;
    case "system construction" test_system_building;
  ]
