open Adt
open Helpers
open Adt_specs

let test_paper_specs_orthogonal () =
  List.iter
    (fun (name, spec) ->
      let report = Consistency.check spec in
      Alcotest.(check bool) (name ^ " locally confluent") true
        (Consistency.locally_confluent report);
      Alcotest.(check bool) (name ^ " consistent") true
        (Consistency.is_consistent spec report))
    [
      ("Queue", Queue_spec.spec);
      ("Stack", Stack_spec.default.Stack_spec.spec);
      ("Array", Array_spec.default.Array_spec.spec);
      ("Symboltable", Symboltable_spec.spec);
      ("Knowlist", Knowlist_spec.spec);
      ("Nat", Builtins.nat_spec);
    ]

let test_queue_has_no_critical_pairs () =
  let report = Consistency.check Queue_spec.spec in
  Alcotest.(check int) "orthogonal" 0 (List.length report.Consistency.pairs)

let test_seeded_inconsistency_detected () =
  (* add IS_EMPTY?(ADD(q,i)) = true alongside axiom 2 (which says false) *)
  let q = Term.var "q" Queue_spec.sort
  and i = Term.var "i" Builtins.item_sort in
  let contradiction =
    Axiom.v ~name:"evil"
      ~lhs:(Queue_spec.is_empty (Queue_spec.add q i))
      ~rhs:Term.tt ()
  in
  let bad = Spec.with_axioms [ contradiction ] Queue_spec.spec in
  let report = Consistency.check bad in
  Alcotest.(check bool) "pairs found" true (report.Consistency.pairs <> []);
  Alcotest.(check bool) "not locally confluent" false
    (Consistency.locally_confluent report);
  match Consistency.inconsistencies bad report with
  | (_, a, b) :: _ ->
    let rendered = List.sort compare [ Term.to_string a; Term.to_string b ] in
    Alcotest.(check (list string)) "true = false derived" [ "false"; "true" ] rendered
  | [] -> Alcotest.fail "inconsistency not detected"

let test_error_vs_value_inconsistency () =
  (* FRONT(NEW) = error and FRONT(NEW) = ITEM1 contradict *)
  let evil =
    Axiom.v ~name:"evil" ~lhs:(Queue_spec.front Queue_spec.new_)
      ~rhs:(Builtins.item 1) ()
  in
  let bad = Spec.with_axioms [ evil ] Queue_spec.spec in
  let report = Consistency.check bad in
  Alcotest.(check bool) "inconsistent" false (Consistency.is_consistent bad report)

let test_benign_overlap_is_joinable () =
  (* a redundant instance of an existing axiom overlaps but joins *)
  let redundant =
    Axiom.v ~name:"redundant"
      ~lhs:(Queue_spec.is_empty (Queue_spec.add Queue_spec.new_ (Builtins.item 1)))
      ~rhs:Term.ff ()
  in
  let spec = Spec.with_axioms [ redundant ] Queue_spec.spec in
  let report = Consistency.check spec in
  Alcotest.(check bool) "pairs exist" true (report.Consistency.pairs <> []);
  Alcotest.(check bool) "all joinable" true (Consistency.locally_confluent report);
  Alcotest.(check bool) "consistent" true (Consistency.is_consistent spec report)

let test_critical_pairs_shape () =
  (* classic overlapping system: f(f(x)) -> a with itself *)
  let f_op = Op.v "f" ~args:[ nat ] ~result:nat in
  let sg = Signature.add_op f_op base_signature in
  let f t = Term.app f_op [ t ] in
  let rule = Rewrite.rule ~name:"ff" ~lhs:(f (f (v "x"))) ~rhs:(v "x") () in
  ignore sg;
  let cps = Consistency.critical_pairs [ rule ] in
  (* overlap of the rule into itself at position [0] *)
  Alcotest.(check int) "one proper self-overlap" 1 (List.length cps);
  let cp = List.hd cps in
  Alcotest.(check (list int)) "at position 0" [ 0 ] cp.Consistency.position;
  check_term "peak" (f (f (f (v "x'")))) cp.Consistency.peak;
  (* left: whole-term contraction; right: inner contraction *)
  check_term "left" (f (v "x'")) cp.Consistency.left;
  check_term "right" (f (v "x'")) cp.Consistency.right

let test_root_overlaps_of_distinct_rules () =
  let r1 = Rewrite.rule ~name:"r1" ~lhs:(isz (v "x")) ~rhs:Term.tt () in
  let r2 = Rewrite.rule ~name:"r2" ~lhs:(isz (s (v "y"))) ~rhs:Term.ff () in
  let cps = Consistency.critical_pairs [ r1; r2 ] in
  Alcotest.(check bool) "root overlap found" true
    (List.exists (fun cp -> cp.Consistency.position = []) cps);
  (* and it diverges: true vs false *)
  let sys = Rewrite.of_rules [ r1; r2 ] in
  List.iter
    (fun cp ->
      if cp.Consistency.position = [] then begin
        let l = Rewrite.normalize sys cp.Consistency.left in
        let r = Rewrite.normalize sys cp.Consistency.right in
        Alcotest.(check bool) "diverges" false (Term.equal l r)
      end)
    cps

(* Critical pairs certify local confluence symbolically; this attacks the
   same property from below, by brute force over the enumerated ground
   universe, catching strategy-dependence that an orthogonal-looking system
   might still hide (e.g. through the non-left-linear interplay of error
   propagation). Every observer application over ground constructor
   arguments up to [size] is normalized by the engine and by the oracle's
   outermost strategy; [Ok n] counts the terms checked, [Error t] is a term
   on which the two disagree. *)
let ground_strategy_agreement universe ~size =
  let spec = Enum.spec universe in
  let sys = Rewrite.of_spec spec in
  let exception Disagree of Term.t in
  let check_term t =
    match
      ( Rewrite.normalize_opt sys t,
        Rewrite.Reference.normalize_opt ~strategy:Rewrite.Outermost sys t )
    with
    | Some a, Some b when Term.equal a b -> ()
    | Some _, Some _ -> raise (Disagree t)
    | _ -> () (* fuel ran out on one side: no verdict *)
  in
  let checked = ref 0 in
  try
    List.iter
      (fun op ->
        let arg_choices =
          List.map (fun s -> Enum.terms_up_to universe s ~size) (Op.args op)
        in
        let rec product acc = function
          | [] ->
            incr checked;
            check_term (Term.app op (List.rev acc))
          | choices :: rest ->
            List.iter (fun c -> product (c :: acc) rest) choices
        in
        if List.for_all (fun c -> c <> []) arg_choices then
          product [] arg_choices)
      (Spec.observers spec);
    Ok !checked
  with Disagree t -> Error t

let test_ground_strategy_agreement () =
  List.iter
    (fun (name, spec, size) ->
      let u = Enum.universe spec in
      match ground_strategy_agreement u ~size with
      | Ok n -> Alcotest.(check bool) (name ^ " checked some terms") true (n > 10)
      | Error t ->
        Alcotest.failf "%s: strategies disagree on %a" name Term.pp t)
    [
      ("Queue", Queue_spec.spec, 7);
      ("Symboltable", Symboltable_spec.spec, 5);
      ("Nat", Builtins.nat_spec, 6);
      ("Knowlist", Knowlist_spec.spec, 5);
    ]

let test_strategy_divergence_on_discarded_errors () =
  (* the documented boundary: outermost is lazy about arguments, so an
     error inside a discarded argument position survives under innermost
     (strict, as the paper's algebra demands) but vanishes under
     outermost. Enumerated ground CONSTRUCTOR arguments never contain
     errors, which is why ground_strategy_agreement holds above. *)
  let sys = Rewrite.of_spec Queue_spec.spec in
  let poisoned =
    Queue_spec.is_empty
      (Queue_spec.add Queue_spec.new_ (Queue_spec.front Queue_spec.new_))
  in
  let inner = Rewrite.normalize sys poisoned in
  let outer =
    Rewrite.Reference.normalize ~strategy:Rewrite.Outermost sys poisoned
  in
  Alcotest.(check bool) "innermost: strict error" true (Term.is_error inner);
  check_term "outermost: discards the error" Term.ff outer

let suite =
  [
    case "paper specs are orthogonal and consistent" test_paper_specs_orthogonal;
    case "queue has no critical pairs" test_queue_has_no_critical_pairs;
    case "seeded contradiction found (true = false)"
      test_seeded_inconsistency_detected;
    case "error vs value contradiction found" test_error_vs_value_inconsistency;
    case "benign overlaps join" test_benign_overlap_is_joinable;
    case "critical-pair construction (self-overlap)" test_critical_pairs_shape;
    case "root overlaps of distinct rules" test_root_overlaps_of_distinct_rules;
  ]
  @ [
      case "strategies agree on the ground universe"
        test_ground_strategy_agreement;
      case "strict vs lazy error boundary (documented)"
        test_strategy_divergence_on_discarded_errors;
    ]
