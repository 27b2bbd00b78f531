open Adt
open Helpers

let nat_precedence = Ordering.search_precedence (Ordering.search nat_spec)

let test_canonical_spec_completes_unchanged () =
  let outcome, stats = Completion.complete_spec nat_spec in
  (match outcome with
  | Completion.Completed sys ->
    Alcotest.(check int) "same four rules" 4 (Rewrite.size sys);
    check_term "still computes" (church 4)
      (Rewrite.normalize sys (plus (church 2) (church 2)))
  | Completion.Failed _ -> Alcotest.fail "Nat should complete");
  Alcotest.(check bool) "did some work" true (stats.Completion.iterations >= 4)

let test_queue_completes () =
  match fst (Completion.complete_spec Adt_specs.Queue_spec.spec) with
  | Completion.Completed sys ->
    Alcotest.(check bool) "rules retained" true (Rewrite.size sys >= 6)
  | Completion.Failed _ -> Alcotest.fail "Queue should complete"

let test_joins_redundant_equation () =
  (* an equation that normalizes to triviality is dropped *)
  let redundant = Axiom.v ~name:"red" ~lhs:(plus z z) ~rhs:z () in
  let outcome, _ =
    Completion.complete
      ~precedence:nat_precedence
      ~is_value:(Completion.is_value nat_spec)
      (Spec.axioms nat_spec @ [ redundant ])
  in
  match outcome with
  | Completion.Completed sys -> Alcotest.(check int) "four rules" 4 (Rewrite.size sys)
  | Completion.Failed _ -> Alcotest.fail "should complete"

let test_derives_missing_rule () =
  (* given plus-z on the RIGHT (n = plus(n, z) oriented the other way),
     completion must orient it into a rule *)
  let extra = Axiom.v ~name:"comm0" ~lhs:(plus (v "n") z) ~rhs:(v "n") () in
  let outcome, _ =
    Completion.complete
      ~precedence:nat_precedence
      ~is_value:(Completion.is_value nat_spec)
      (Spec.axioms nat_spec @ [ extra ])
  in
  match outcome with
  | Completion.Completed sys ->
    check_term "right-zero law usable" (v "n")
      (Rewrite.normalize sys (plus (v "n") z))
  | Completion.Failed _ -> Alcotest.fail "should complete"

let test_detects_inconsistency () =
  let evil = Axiom.v ~name:"evil" ~lhs:(isz z) ~rhs:Term.ff () in
  let outcome, _ =
    Completion.complete
      ~precedence:nat_precedence
      ~is_value:(Completion.is_value nat_spec)
      (Spec.axioms nat_spec @ [ evil ])
  in
  match outcome with
  | Completion.Failed (Completion.Inconsistent (a, b)) ->
    let rendered = List.sort compare [ Term.to_string a; Term.to_string b ] in
    Alcotest.(check (list string)) "true = false" [ "false"; "true" ] rendered
  | Completion.Failed other ->
    Alcotest.failf "wrong failure: %a" Completion.pp_outcome (Completion.Failed other)
  | Completion.Completed _ -> Alcotest.fail "inconsistency slipped through"

let test_unorientable_reported () =
  (* commutativity cannot be oriented by an LPO *)
  let comm = Axiom.v ~name:"comm" ~lhs:(plus (v "a") (v "b")) ~rhs:(plus (v "b") (v "a")) () in
  let outcome, _ =
    Completion.complete
      ~precedence:nat_precedence
      ~is_value:(fun _ -> false)
      [ comm ]
  in
  match outcome with
  | Completion.Failed (Completion.Unorientable _) -> ()
  | other -> Alcotest.failf "expected Unorientable, got %a" Completion.pp_outcome other

let test_bound_respected () =
  (* an equation that loops forever under naive completion is cut off *)
  let f_op = Op.v "f" ~args:[ nat ] ~result:nat in
  let g_op = Op.v "g" ~args:[ nat ] ~result:nat in
  let f t = Term.app f_op [ t ] and g t = Term.app g_op [ t ] in
  let ax = Axiom.v ~name:"fg" ~lhs:(f (g (v "x"))) ~rhs:(g (f (v "x"))) () in
  let prec = Ordering.of_list [ "f"; "g" ] in
  let outcome, stats =
    Completion.complete ~max_rules:8 ~precedence:prec ~is_value:(fun _ -> false) [ ax ]
  in
  (match outcome with
  | Completion.Failed Completion.Bound_exceeded -> ()
  | Completion.Completed _ -> () (* acceptable if the system happens to close *)
  | Completion.Failed _ as other ->
    Alcotest.failf "unexpected: %a" Completion.pp_outcome other);
  Alcotest.(check bool) "bounded work" true (stats.Completion.rules_added <= 9)

let suite =
  [
    case "a canonical system completes to itself"
      test_canonical_spec_completes_unchanged;
    case "the Queue spec completes" test_queue_completes;
    case "redundant equations are dropped" test_joins_redundant_equation;
    case "new equations are oriented into rules" test_derives_missing_rule;
    case "inconsistent axioms are detected" test_detects_inconsistency;
    case "unorientable equations are reported" test_unorientable_reported;
    case "bounds stop divergent completions" test_bound_respected;
  ]
