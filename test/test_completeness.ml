open Adt
open Helpers
open Adt_specs

let missing_of spec =
  List.map (fun h -> h.Completeness.pattern) (Completeness.holes spec)

let test_nat_complete () =
  Alcotest.(check (list term_testable)) "nothing missing" []
    (missing_of nat_spec)

let test_paper_specs_complete () =
  List.iter
    (fun (name, spec) ->
      match missing_of spec with
      | [] -> ()
      | missing ->
        Alcotest.failf "%s not sufficiently complete: %a" name
          Fmt.(list ~sep:comma Term.pp)
          missing)
    [
      ("Queue", Queue_spec.spec);
      ("BoundedQueue", Bounded_queue_spec.spec);
      ("Stack", Stack_spec.default.Stack_spec.spec);
      ("Array", Array_spec.default.Array_spec.spec);
      ("Symboltable", Symboltable_spec.spec);
      ("Knowlist", Knowlist_spec.spec);
      ("Symboltable_knows", Symboltable_knows_spec.spec);
      ("Identifier", Identifier.spec);
      ("Attributes", Attributes.spec);
      ("Bool", Builtins.bool_spec);
      ("Nat", Builtins.nat_spec);
    ]

let test_detects_missing_boundary () =
  let broken = Spec.without_axiom "3" Queue_spec.spec in
  match missing_of broken with
  | [ t ] -> Alcotest.(check string) "the missing case" "FRONT(NEW)" (Term.to_string t)
  | other ->
    Alcotest.failf "expected one missing case, got %a"
      Fmt.(list ~sep:comma Term.pp)
      other

let test_detects_missing_recursive_case () =
  let broken = Spec.without_axiom "6" Queue_spec.spec in
  match missing_of broken with
  | [ t ] ->
    Alcotest.(check string) "the missing case" "REMOVE(ADD(queue, item))"
      (Term.to_string t)
  | other ->
    Alcotest.failf "expected one missing case, got %a"
      Fmt.(list ~sep:comma Term.pp)
      other

let test_detects_multiple_missing () =
  (* with ALL of RETRIEVE's axioms gone, the one hole is the whole
     operation, and the prompts expand the constructor cases a complete
     axiomatisation must cover *)
  let broken =
    Spec.without_axiom "7"
      (Spec.without_axiom "8" (Spec.without_axiom "9" Symboltable_spec.spec))
  in
  Alcotest.(check int) "one hole" 1 (List.length (missing_of broken));
  Alcotest.(check int) "three prompts" 3
    (List.length (Heuristics.prompts broken));
  (* with two of them gone, the remaining axiom guides the split *)
  let broken2 = Spec.without_axiom "7" (Spec.without_axiom "8" Symboltable_spec.spec) in
  Alcotest.(check int) "two missing" 2 (List.length (missing_of broken2))

let test_second_argument_splitting () =
  (* an observer discriminating on its second argument *)
  let sg =
    Signature.add_op
      (Op.v "guard" ~args:[ nat; nat ] ~result:nat)
      base_signature
  in
  let guard a b = Term.app (Signature.find_op_exn "guard" sg) [ a; b ] in
  let spec =
    Spec.v ~name:"G" ~signature:sg ~constructors:[ "z"; "s" ]
      ~axioms:(nat_axioms @ [ Axiom.v ~name:"g0" ~lhs:(guard (v "a") z) ~rhs:z () ])
      ()
  in
  match missing_of spec with
  | [ t ] ->
    Alcotest.(check string) "missing successor case" "guard(n, s(n1))"
      (Term.to_string t)
  | other ->
    Alcotest.failf "expected one missing case, got %a"
      Fmt.(list ~sep:comma Term.pp)
      other

let test_general_lhs_covers_everything () =
  (* REPLACE(stk, arr) = ... has a fully general left-hand side *)
  let stack = Stack_spec.default in
  let replace = Spec.op_exn stack.Stack_spec.spec "REPLACE" in
  Alcotest.(check int) "REPLACE has no hole" 0
    (List.length
       (List.filter
          (fun h -> Op.equal h.Completeness.op replace)
          (Completeness.holes stack.Stack_spec.spec)))

let test_unconstrained_parameter_op () =
  (* an observer over a sort with no constructors and no axioms *)
  let item = Sort.v "I" in
  let sg =
    Signature.add_op
      (Op.v "weight" ~args:[ item ] ~result:Sort.bool)
      (Signature.add_sort item Signature.empty)
  in
  let spec = Spec.v ~name:"P" ~signature:sg ~axioms:[] () in
  Alcotest.(check (list term_testable)) "exempt, so complete" []
    (missing_of spec);
  (* one axiom ends the exemption: its matrix is checked like any other,
     and here its wildcard row covers the sort *)
  let weight = Signature.find_op_exn "weight" sg in
  let partial =
    Spec.with_axioms
      [
        Axiom.v ~name:"w" ~lhs:(Term.app weight [ Term.var "i" item ])
          ~rhs:Term.tt ();
      ]
      spec
  in
  Alcotest.(check (list term_testable)) "covered by a wildcard row" []
    (missing_of partial)

let test_overlap_detection () =
  (* overlap is a consistency question, not a coverage one: the
     duplicate definition leaves no hole and is reported as a critical
     pair *)
  let extra = Axiom.v ~name:"dup" ~lhs:(isz (v "k")) ~rhs:Term.ff () in
  let spec = Spec.with_axioms [ extra ] nat_spec in
  Alcotest.(check (list term_testable)) "still complete" [] (missing_of spec);
  Alcotest.(check bool) "overlaps reported" true
    ((Consistency.check spec) <> [])

let test_non_executable_axioms_do_not_cover () =
  (* [seed]'s right-hand side has a variable its left-hand side does not
     bind: the interpreter ignores the axiom, so SEED stays a hole *)
  let counter = Sort.v "Counter" in
  let zero = Op.v "ZERO" ~args:[] ~result:counter in
  let inc = Op.v "INC" ~args:[ counter ] ~result:counter in
  let seed = Op.v "SEED" ~args:[] ~result:counter in
  let sg =
    List.fold_left
      (fun sg op -> Signature.add_op op sg)
      (Signature.add_sort counter Signature.empty)
      [ zero; inc; seed ]
  in
  let spec =
    Spec.v ~name:"Counter" ~signature:sg ~constructors:[ "ZERO"; "INC" ]
      ~axioms:
        [
          Axiom.v ~name:"seed" ~allow_free_rhs:true ~lhs:(Term.const seed)
            ~rhs:(Term.app inc [ Term.var "c" counter ])
            ();
        ]
      ()
  in
  Alcotest.(check (list string)) "SEED" [ "SEED" ]
    (List.map Term.to_string (missing_of spec))

let suite =
  [
    case "a complete spec passes" test_nat_complete;
    case "every paper spec is sufficiently complete" test_paper_specs_complete;
    case "missing boundary case found (FRONT(NEW))" test_detects_missing_boundary;
    case "missing recursive case found" test_detects_missing_recursive_case;
    case "several missing cases found" test_detects_multiple_missing;
    case "splitting on a non-first argument" test_second_argument_splitting;
    case "general left-hand sides cover all cases" test_general_lhs_covers_everything;
    case "parameter operations are unconstrained, not incomplete"
      test_unconstrained_parameter_op;
    case "overlapping axioms reported" test_overlap_detection;
    case "non-executable axioms cover nothing"
      test_non_executable_axioms_do_not_cover;
  ]
