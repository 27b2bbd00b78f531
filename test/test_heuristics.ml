open Adt
open Helpers
open Adt_specs

let test_no_prompts_when_complete () =
  Alcotest.(check int) "queue" 0 (List.length (Heuristics.prompts Queue_spec.spec));
  Alcotest.(check int) "symboltable" 0
    (List.length (Heuristics.prompts Symboltable_spec.spec))

let test_boundary_classified_and_first () =
  let broken =
    Spec.without_axiom "3" (Spec.without_axiom "6" Queue_spec.spec)
  in
  match Heuristics.prompts broken with
  | [ first; second ] ->
    Alcotest.(check bool) "boundary first" true
      (first.Heuristics.kind = Heuristics.Boundary);
    Alcotest.(check string) "FRONT(NEW)" "FRONT(NEW)"
      (Term.to_string first.Heuristics.missing_lhs);
    Alcotest.(check bool) "general second" true
      (second.Heuristics.kind = Heuristics.General)
  | other -> Alcotest.failf "expected 2 prompts, got %d" (List.length other)

let test_question_text () =
  let broken = Spec.without_axiom "5" Queue_spec.spec in
  match Heuristics.prompts broken with
  | [ p ] ->
    Alcotest.(check bool) "asks for the case" true
      (Astring_contains.contains p.Heuristics.question "REMOVE(NEW)");
    Alcotest.(check bool) "flags boundary" true
      (Astring_contains.contains p.Heuristics.question "boundary")
  | _ -> Alcotest.fail "expected exactly one prompt"

let test_forced_rhs_suggestion () =
  (* result sort with a single constant constructor: the suggestion is
     forced *)
  let unit_sort = Sort.v "U" in
  let sg =
    List.fold_left
      (fun sg op -> Signature.add_op op sg)
      (Signature.add_sort unit_sort (Signature.add_sort nat Signature.empty))
      [
        zero_op;
        succ_op;
        Op.v "unit" ~args:[] ~result:unit_sort;
        Op.v "observe" ~args:[ nat ] ~result:unit_sort;
      ]
  in
  let spec =
    Spec.v ~name:"U" ~signature:sg ~constructors:[ "z"; "s"; "unit" ] ~axioms:[] ()
  in
  match Heuristics.prompts spec with
  | prompts ->
    Alcotest.(check bool) "has prompts" true (prompts <> []);
    List.iter
      (fun p ->
        match p.Heuristics.suggested_rhs with
        | Some t -> Alcotest.(check string) "suggests unit" "unit" (Term.to_string t)
        | None -> Alcotest.fail "expected a forced suggestion")
      prompts

let test_stub_axioms_complete_the_spec () =
  let broken =
    Spec.without_axiom "3" (Spec.without_axiom "5" Queue_spec.spec)
  in
  let stubs = Heuristics.stub_axioms broken in
  Alcotest.(check int) "one stub per hole" 2 (List.length stubs);
  let repaired = Heuristics.complete_with_stubs broken in
  Alcotest.(check bool) "now complete" true
    (Completeness.holes repaired = []);
  (* the stubs say error, which is what the paper's axioms say here *)
  let interp = Interp.create repaired in
  let front_new = parse_term_exn repaired "FRONT(NEW)" in
  Alcotest.(check bool) "stub behaves like the original axiom" true
    (match Interp.eval interp front_new with
    | Interp.Error_value _ -> true
    | _ -> false)

let test_skeletons_for_fresh_op () =
  (* an operation with no axioms yet is one hole, and the prompts propose
     one split of its first constructor-bearing argument *)
  let even_op = Op.v "even" ~args:[ nat ] ~result:Sort.bool in
  let sg = Signature.add_op even_op base_signature in
  let spec =
    Spec.v ~name:"N" ~signature:sg ~constructors:[ "z"; "s" ]
      ~axioms:nat_axioms ()
  in
  Alcotest.(check (list string)) "even skeletons" [ "even(z)"; "even(s(n))" ]
    (List.map
       (fun p -> Term.to_string p.Heuristics.missing_lhs)
       (Heuristics.prompts spec))

let test_skeletons_follow_existing_axioms () =
  (* with axioms present, the prompts follow their case analysis: FRONT
     keeps its [ADD] case, so only the [NEW] case is asked for, and the
     split stays within the existing axioms' constructor depth *)
  let broken = Spec.without_axiom "3" Queue_spec.spec in
  Alcotest.(check (list string)) "FRONT(NEW) only" [ "FRONT(NEW)" ]
    (List.map
       (fun p -> Term.to_string p.Heuristics.missing_lhs)
       (Heuristics.prompts broken));
  let recursive = Spec.without_axiom "4" Queue_spec.spec in
  Alcotest.(check (list string)) "FRONT(ADD(queue, item)) only"
    [ "FRONT(ADD(queue, item))" ]
    (List.map
       (fun p -> Term.to_string p.Heuristics.missing_lhs)
       (Heuristics.prompts recursive))

let test_stubs_are_left_linear () =
  (* the matrix names every wildcard of a sort alike; the prompts rename
     them apart, so BLEND's stub is not BLEND(light, light) *)
  let light = Sort.v "Light" in
  let red = Op.v "RED" ~args:[] ~result:light in
  let green = Op.v "GREEN" ~args:[] ~result:light in
  let blend = Op.v "BLEND" ~args:[ light; light ] ~result:light in
  let sg =
    List.fold_left
      (fun sg op -> Signature.add_op op sg)
      (Signature.add_sort light Signature.empty)
      [ red; green; blend ]
  in
  let spec =
    Spec.v ~name:"Light" ~signature:sg ~constructors:[ "RED"; "GREEN" ]
      ~axioms:
        [
          Axiom.v ~name:"r"
            ~lhs:(Term.app blend [ Term.const red; Term.var "l" light ])
            ~rhs:(Term.const red) ();
        ]
      ()
  in
  let stubs = Heuristics.stub_axioms spec in
  Alcotest.(check (list string)) "one coarse stub" [ "BLEND(GREEN, light)" ]
    (List.map (fun ax -> Term.to_string (Axiom.lhs ax)) stubs);
  Alcotest.(check (list string)) "renamed apart, then split"
    [ "BLEND(RED, light1)"; "BLEND(GREEN, light1)" ]
    (List.map
       (fun ax -> Term.to_string (Axiom.lhs ax))
       (Heuristics.stub_axioms (Spec.without_axiom "r" spec)))

let suite =
  [
    case "no prompts on complete specs" test_no_prompts_when_complete;
    case "boundary cases classified and listed first"
      test_boundary_classified_and_first;
    case "question text names the case" test_question_text;
    case "forced suggestions for singleton result sorts"
      test_forced_rhs_suggestion;
    case "stub axioms make the spec complete" test_stub_axioms_complete_the_spec;
    case "skeletons for an unaxiomatised operation" test_skeletons_for_fresh_op;
    case "skeletons follow existing case analysis"
      test_skeletons_follow_existing_axioms;
    case "stubs are left-linear" test_stubs_are_left_linear;
  ]
