open Adt
open Helpers
open Adt_specs

let interp = Interp.create Array_as_list.combined
let idx = Identifier.id
let attrs = Attributes.attrs

let test_substrate_spec_checks () =
  Alcotest.(check bool) "PairList complete" true
    (Completeness.holes Pairlist_spec.spec = []);
  let report = Consistency.check Pairlist_spec.spec in
  Alcotest.(check bool) "PairList consistent" true
    (Consistency.is_consistent Pairlist_spec.spec report);
  Alcotest.(check bool) "combined complete" true
    (Completeness.holes Array_as_list.combined = [])

let test_pairlist_behaviour () =
  let pinterp = Interp.create Pairlist_spec.spec in
  let l = Pairlist_spec.of_bindings [ (idx "X", attrs 1); (idx "Y", attrs 2) ] in
  (match Interp.eval pinterp (Pairlist_spec.head l) with
  | Interp.Value p ->
    check_term "most recent first" (Pairlist_spec.pair (idx "Y") (attrs 2)) p
  | other -> Alcotest.failf "head: %a" Interp.pp_value other);
  match Interp.eval pinterp (Pairlist_spec.fst_ (Pairlist_spec.head l)) with
  | Interp.Value id -> check_term "projection" (idx "Y") id
  | other -> Alcotest.failf "fst: %a" Interp.pp_value other

let test_primed_operations_behave () =
  let open Array_as_list in
  let arr = assign' (assign' empty' (idx "X") (attrs 1)) (idx "X") (attrs 2) in
  (match Interp.eval interp (read' arr (idx "X")) with
  | Interp.Value v -> check_term "latest wins" (attrs 2) v
  | other -> Alcotest.failf "read': %a" Interp.pp_value other);
  (match Interp.eval interp (read' arr (idx "Y")) with
  | Interp.Error_value _ -> ()
  | other -> Alcotest.failf "undefined read: %a" Interp.pp_value other);
  Alcotest.(check (option bool)) "undefined" (Some true)
    (Interp.eval_bool interp (is_undefined' empty' (idx "X")));
  Alcotest.(check (option bool)) "defined" (Some false)
    (Interp.eval_bool interp (is_undefined' arr (idx "X")))

let test_phi_builds_assign_chains () =
  let open Array_as_list in
  let arr = assign' (assign' empty' (idx "X") (attrs 1)) (idx "Y") (attrs 2) in
  match Interp.eval interp (phi arr) with
  | Interp.Value v ->
    let a = Array_spec.default in
    check_term "abstract image"
      (a.Array_spec.assign
         (a.Array_spec.assign a.Array_spec.empty (idx "X") (attrs 1))
         (idx "Y") (attrs 2))
      v
  | other -> Alcotest.failf "phi: %a" Interp.pp_value other

let test_all_four_axioms_verified () =
  let results = Array_as_list.verify () in
  Alcotest.(check int) "four obligations" 4 (List.length results);
  Alcotest.(check bool) "all proved" true (Array_as_list.all_proved results);
  Alcotest.(check (list string)) "axioms 17-20"
    [ "17"; "18"; "19"; "20" ]
    (List.map (fun r -> r.Array_as_list.axiom_name) results)

let test_faulty_definition_caught () =
  (* sanity check that the harness can fail: axiom 18's obligation is NOT
     provable if IS_UNDEFINED?' forgets to recurse (returns true on a miss
     in the head pair) *)
  let l = Term.var "l" Pairlist_spec.list_sort
  and id = Term.var "id" Identifier.sort in
  let same a b = Term.app (Spec.op_exn Identifier.spec "SAME?") [ a; b ] in
  let open Pairlist_spec in
  let bad_def =
    Rewrite.rule ~name:"bad_undef"
      ~lhs:(Array_as_list.is_undefined' l id)
      ~rhs:
        (Term.ite (is_nil l) Term.tt
           (Term.ite (same (fst_ (head l)) id) Term.ff Term.tt))
      ()
  in
  let spec_without =
    Spec.v ~name:"broken"
      ~signature:(Spec.signature Array_as_list.combined)
      ~axioms:
        (List.filter
           (fun ax -> Axiom.name ax <> "def_undef")
           (Spec.axioms Array_as_list.combined))
      ()
  in
  let cfg = Proof.config ~extra_rules:[ bad_def ] ~max_case_depth:10 spec_without in
  let ax18 =
    Option.get (Spec.find_axiom "18" Array_spec.default.Array_spec.spec)
  in
  Alcotest.(check bool) "broken definition unprovable" false
    (Proof.holds cfg (Array_as_list.obligation ax18))

let test_ground_agreement () =
  (* bounded-exhaustive: primed evaluation equals abstract evaluation *)
  let ainterp = Interp.create Array_spec.default.Array_spec.spec in
  let u = Enum.universe Array_spec.default.Array_spec.spec in
  let arrays =
    Enum.terms_up_to u Array_spec.default.Array_spec.sort ~size:7
  in
  let rec to_primed t =
    match Term.view t with
    | Term.App (op, args) -> (
      let args = List.map to_primed args in
      match Op.name op with
      | "EMPTY" -> Array_as_list.empty'
      | "ASSIGN" ->
        Array_as_list.assign' (List.nth args 0) (List.nth args 1)
          (List.nth args 2)
      | _ -> Term.app op args)
    | _ -> t
  in
  List.iter
    (fun arr ->
      List.iter
        (fun id ->
          let abstractly =
            match
              Interp.eval ainterp
                (Array_spec.default.Array_spec.read arr id)
            with
            | Interp.Value v -> Some v
            | _ -> None
          in
          let concretely =
            match
              Interp.eval interp (Array_as_list.read' (to_primed arr) id)
            with
            | Interp.Value v -> Some v
            | _ -> None
          in
          Alcotest.(check (option term_testable)) "read agrees" abstractly
            concretely)
        [ idx "X"; idx "Y" ])
    arrays

let suite =
  [
    case "substrate specifications check" test_substrate_spec_checks;
    case "pair-list behaviour" test_pairlist_behaviour;
    case "primed operations compute correctly" test_primed_operations_behave;
    case "PHI_A builds ASSIGN chains" test_phi_builds_assign_chains;
    case "axioms 17-20 verified mechanically" test_all_four_axioms_verified;
    case "a faulty definition fails the proof" test_faulty_definition_caught;
    case "ground agreement with the abstract Array" test_ground_agreement;
  ]
