open Adt
open Helpers

let prec = Ordering.of_list [ "isz"; "plus"; "s"; "z" ]
let gt = Ordering.lpo_gt prec

let test_subterm_property () =
  Alcotest.(check bool) "s(z) > z" true (gt (s z) z);
  Alcotest.(check bool) "plus(x,y) > x" true (gt (plus (v "x") (v "y")) (v "x"));
  Alcotest.(check bool) "deep subterm" true
    (gt (plus (s (v "x")) z) (v "x"))

let test_irreflexive () =
  let terms = [ z; s z; plus (v "x") (v "y"); v "x" ] in
  List.iter
    (fun t ->
      if gt t t then Alcotest.failf "%a > itself" Term.pp t)
    terms

let test_asymmetric () =
  let pairs =
    [ (s z, z); (plus (v "x") (v "y"), v "x"); (plus (s z) z, s (plus z z)) ]
  in
  List.iter
    (fun (a, b) ->
      if gt a b && gt b a then Alcotest.failf "%a and %a both greater" Term.pp a Term.pp b)
    pairs

let test_variable_condition () =
  Alcotest.(check bool) "nothing below a foreign variable" false
    (gt (s z) (v "x"));
  Alcotest.(check bool) "variables are minimal" false (gt (v "x") z);
  Alcotest.(check bool) "var vs var" false (gt (v "x") (v "y"))

let test_precedence_drives_heads () =
  (* plus > s: plus(x, y) > s(...) needs plus(x,y) > argument *)
  Alcotest.(check bool) "plus dominates s over same vars" true
    (gt (plus (v "x") (v "y")) (s (v "x")));
  Alcotest.(check bool) "not the converse" false
    (gt (s (v "x")) (plus (v "x") (v "y")))

let test_lexicographic_case () =
  (* same head: first argument decides *)
  Alcotest.(check bool) "plus(s(x), y) > plus(x, y)" true
    (gt (plus (s (v "x")) (v "y")) (plus (v "x") (v "y")));
  Alcotest.(check bool) "not the converse" false
    (gt (plus (v "x") (v "y")) (plus (s (v "x")) (v "y")))

let unoriented spec =
  List.map Axiom.name (Ordering.search spec).Ordering.unoriented

let test_nat_axioms_orient () =
  Alcotest.(check (list string)) "all axioms decrease" [] (unoriented nat_spec)

let test_paper_specs_orient () =
  List.iter
    (fun (name, spec) ->
      Alcotest.(check (list string)) (name ^ " oriented") [] (unoriented spec))
    [
      ("Queue", Adt_specs.Queue_spec.spec);
      ("BoundedQueue", Adt_specs.Bounded_queue_spec.spec);
      ("Stack", Adt_specs.Stack_spec.default.Adt_specs.Stack_spec.spec);
      ("Array", Adt_specs.Array_spec.default.Adt_specs.Array_spec.spec);
      ("Symboltable", Adt_specs.Symboltable_spec.spec);
      ("Knowlist", Adt_specs.Knowlist_spec.spec);
      ("Symboltable_knows", Adt_specs.Symboltable_knows_spec.spec);
    ]

let test_retrieve_definition_beyond_lpo () =
  (* a documented limitation: RETRIEVE' recurses through POP(stk), which is
     not an LPO-subterm of stk, so the definitional extension cannot be
     oriented by plain LPO even though rewriting terminates (the recursive
     call sits under a conditional that freezes until the stack takes
     constructor form). No precedence bump helps: the search must leave
     exactly that axiom unoriented. *)
  Alcotest.(check (list string)) "def_retrieve" [ "def_retrieve" ]
    (unoriented Adt_specs.Refinement.combined)

let test_orient () =
  (match Ordering.orient prec (plus z z, z) with
  | Ok (l, r) ->
    check_term "greater side" (plus z z) l;
    check_term "smaller side" z r
  | Error msg -> Alcotest.fail msg);
  (match Ordering.orient prec (z, plus z z) with
  | Ok (l, _) -> check_term "swapped" (plus z z) l
  | Error msg -> Alcotest.fail msg);
  match Ordering.orient prec (v "x", v "y") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oriented two variables"

let test_error_and_ite_minimal () =
  Alcotest.(check bool) "op > error" true (gt z (Term.err nat));
  Alcotest.(check bool) "op > ite of smaller pieces" true
    (gt (plus (v "x") (v "y")) (Term.ite Term.tt (v "x") (v "y")));
  Alcotest.(check bool) "ite > error" true
    (gt (Term.ite Term.tt z z) (Term.err nat))

let test_transitive_samples () =
  (* spot-check transitivity on concrete chains *)
  let a = plus (s z) (s z) and b = s (plus z (s z)) and c = s (s z) in
  Alcotest.(check bool) "a > b" true (gt a b);
  Alcotest.(check bool) "b > c" true (gt b c);
  Alcotest.(check bool) "a > c" true (gt a c)

let suite =
  [
    case "subterm property" test_subterm_property;
    case "irreflexivity" test_irreflexive;
    case "asymmetry" test_asymmetric;
    case "variable conditions" test_variable_condition;
    case "precedence on heads" test_precedence_drives_heads;
    case "lexicographic descent" test_lexicographic_case;
    case "precedence search orients Nat" test_nat_axioms_orient;
    case "precedence search orients every paper spec" test_paper_specs_orient;
    case "the RETRIEVE' definition exceeds plain LPO (documented)"
      test_retrieve_definition_beyond_lpo;
    case "orientation of equations" test_orient;
    case "error and if-then-else are minimal" test_error_and_ite_minimal;
    case "transitivity samples" test_transitive_samples;
  ]
