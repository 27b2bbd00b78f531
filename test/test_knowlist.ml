open Adt
open Helpers
open Adt_specs

let interp = Interp.create Knowlist_spec.spec
let kinterp = Interp.create Symboltable_knows_spec.spec
let idx = Identifier.id
let attrs = Attributes.attrs

let test_is_in () =
  let k = Knowlist_spec.of_ids [ idx "X"; idx "Y" ] in
  Alcotest.(check (option bool)) "member" (Some true)
    (Interp.eval_bool interp (Knowlist_spec.is_in k (idx "X")));
  Alcotest.(check (option bool)) "member 2" (Some true)
    (Interp.eval_bool interp (Knowlist_spec.is_in k (idx "Y")));
  Alcotest.(check (option bool)) "non-member" (Some false)
    (Interp.eval_bool interp (Knowlist_spec.is_in k (idx "Z")));
  Alcotest.(check (option bool)) "empty list" (Some false)
    (Interp.eval_bool interp (Knowlist_spec.is_in Knowlist_spec.create (idx "X")))

let test_impl_model () =
  let u = Enum.universe Knowlist_spec.spec in
  match Model.check u Knowlist_impl.model ~size:5 with
  | Ok n -> Alcotest.(check bool) "ran" true (n > 20)
  | Error cex -> Alcotest.failf "%a" Model.pp_counterexample cex

let test_impl_ops () =
  let k = Knowlist_impl.of_ids [ idx "X" ] in
  Alcotest.(check bool) "in" true (Knowlist_impl.is_in k (idx "X"));
  Alcotest.(check bool) "out" false (Knowlist_impl.is_in k (idx "Y"));
  let k2 = Knowlist_impl.append k (idx "Y") in
  Alcotest.(check bool) "appended" true (Knowlist_impl.is_in k2 (idx "Y"));
  check_term "Phi" (Knowlist_spec.of_ids [ idx "X"; idx "Y" ])
    (Knowlist_impl.abstraction k2)

(* {2 The knows-list symbol table} *)

let eval_attrs t =
  match Interp.eval kinterp t with
  | Interp.Value v -> Some v
  | Interp.Error_value _ -> None
  | other -> Alcotest.failf "unexpected %a" Interp.pp_value other

let test_knows_blocks_inheritance () =
  let open Symboltable_knows_spec in
  let outer = add (add init (idx "X") (attrs 1)) (idx "Y") (attrs 2) in
  let inner = enterblock outer (Knowlist_spec.of_ids [ idx "X" ]) in
  check_term "known global" (attrs 1)
    (Option.get (eval_attrs (retrieve inner (idx "X"))));
  Alcotest.(check bool) "unknown global blocked" true
    (eval_attrs (retrieve inner (idx "Y")) = None);
  (* locals always beat the knows list *)
  let inner' = add inner (idx "Y") (attrs 3) in
  check_term "local wins" (attrs 3)
    (Option.get (eval_attrs (retrieve inner' (idx "Y"))))

let test_knows_leaveblock () =
  let open Symboltable_knows_spec in
  let outer = add init (idx "X") (attrs 1) in
  let inner = enterblock outer Knowlist_spec.create in
  let restored = leaveblock inner in
  check_term "restored" (attrs 1)
    (Option.get (eval_attrs (retrieve restored (idx "X"))))

let test_changed_axioms_claim () =
  let changed, kept = Symboltable_knows_spec.changed_axioms () in
  let head_is_symboltable ax =
    let head = Axiom.head ax in
    List.exists (Sort.equal Symboltable_spec.sort) (Op.result head :: Op.args head)
  in
  let changed_st = List.filter head_is_symboltable changed in
  Alcotest.(check int) "exactly the three ENTERBLOCK axioms" 3
    (List.length changed_st);
  List.iter
    (fun ax ->
      let mentions =
        Term.count_op "ENTERBLOCK" (Axiom.lhs ax)
        + Term.count_op "ENTERBLOCK" (Axiom.rhs ax)
      in
      if mentions = 0 then
        Alcotest.failf "changed axiom %a does not mention ENTERBLOCK" Axiom.pp ax)
    changed_st;
  Alcotest.(check int) "six axioms survive verbatim" 6
    (List.length (List.filter head_is_symboltable kept))

let test_knows_spec_checks () =
  Alcotest.(check bool) "sufficiently complete" true
    (Completeness.holes Symboltable_knows_spec.spec = []);
  let report = Consistency.check Symboltable_knows_spec.spec in
  Alcotest.(check bool) "consistent" true
    (Consistency.is_consistent Symboltable_knows_spec.spec report)

let suite =
  [
    case "IS_IN? membership" test_is_in;
    case "list implementation models the axioms" test_impl_model;
    case "list implementation operations" test_impl_ops;
    case "knows lists gate inheritance" test_knows_blocks_inheritance;
    case "LEAVEBLOCK through a knows block" test_knows_leaveblock;
    case "only ENTERBLOCK axioms changed (the paper's claim)"
      test_changed_axioms_claim;
    case "the variant is complete and consistent" test_knows_spec_checks;
  ]
