open Adt
open Helpers
open Adt_specs

let interp = Interp.create Refinement.combined
let idx = Identifier.id
let attrs = Attributes.attrs

(* {2 The primed operations compute correctly} *)

let test_primed_operations_behave () =
  let open Refinement in
  let table = add' (enterblock' (add' init' (idx "X") (attrs 1))) (idx "X") (attrs 2) in
  (match Interp.eval interp (retrieve' table (idx "X")) with
  | Interp.Value v -> check_term "inner shadows" (attrs 2) v
  | other -> Alcotest.failf "retrieve': %a" Interp.pp_value other);
  (match Interp.eval interp (retrieve' (leaveblock' table) (idx "X")) with
  | Interp.Value v -> check_term "outer restored" (attrs 1) v
  | other -> Alcotest.failf "retrieve' after leave: %a" Interp.pp_value other);
  (match Interp.eval interp (leaveblock' init') with
  | Interp.Error_value _ -> ()
  | other -> Alcotest.failf "extra end: %a" Interp.pp_value other);
  Alcotest.(check (option bool)) "is_inblock' local" (Some true)
    (Interp.eval_bool interp (is_inblock' table (idx "X")));
  let fresh_scope = enterblock' table in
  Alcotest.(check (option bool)) "is_inblock' fresh scope" (Some false)
    (Interp.eval_bool interp (is_inblock' fresh_scope (idx "X")))

let test_phi_maps_to_abstract_values () =
  let open Refinement in
  let table = add' (enterblock' init') (idx "Y") (attrs 2) in
  match Interp.eval interp (phi table) with
  | Interp.Value v ->
    check_term "abstract image"
      Symboltable_spec.(add (enterblock init) (idx "Y") (attrs 2))
      v
  | other -> Alcotest.failf "phi: %a" Interp.pp_value other

let test_phi_of_raw_newstack_is_error () =
  match Interp.eval interp (Refinement.phi Refinement.stack.Stack_spec.newstack) with
  | Interp.Error_value _ -> ()
  | other -> Alcotest.failf "phi(NEWSTACK): %a" Interp.pp_value other

(* {2 The obligations} *)

let test_obligation_translation () =
  let ax2 = Option.get (Spec.find_axiom "2" Symboltable_spec.spec) in
  let lhs, rhs = Refinement.obligation ax2 in
  Alcotest.(check string) "lhs primed and wrapped"
    "PHI(LEAVEBLOCK'(ENTERBLOCK'(symtab)))" (Term.to_string lhs);
  Alcotest.(check string) "rhs wrapped" "PHI(symtab)" (Term.to_string rhs);
  (* observer axioms are not wrapped *)
  let ax4 = Option.get (Spec.find_axiom "4" Symboltable_spec.spec) in
  let lhs4, _ = Refinement.obligation ax4 in
  Alcotest.(check string) "observer unwrapped" "IS_INBLOCK?'(INIT', id)"
    (Term.to_string lhs4)

let test_lemma_proved_by_generator_induction () =
  let cfg = Refinement.base_config () in
  match Proof.prove_axiom cfg Refinement.nonempty_lemma with
  | Proof.Proved (Proof.By_induction { cases; _ }) ->
    Alcotest.(check (list string)) "the three generators"
      [ "INIT'"; "ENTERBLOCK'"; "ADD'" ]
      (List.map (fun (g, _) -> Op.name g) cases)
  | Proof.Proved p -> Alcotest.failf "unexpected shape: %a" Proof.pp_proof p
  | Proof.Unknown _ as u -> Alcotest.failf "%a" Proof.pp_outcome u

let test_all_nine_axioms_verified () =
  let lemma, results = Refinement.verify () in
  Alcotest.(check bool) "lemma" true
    (match lemma with Proof.Proved _ -> true | _ -> false);
  Alcotest.(check int) "nine obligations" 9 (List.length results);
  List.iter
    (fun r ->
      match r.Refinement.outcome with
      | Proof.Proved _ -> ()
      | Proof.Unknown _ -> Alcotest.failf "axiom %s unproved" r.Refinement.axiom_name)
    results;
  Alcotest.(check bool) "all_proved" true (Refinement.all_proved (lemma, results))

let test_axiom9_needs_assumption1 () =
  let ax9 = Option.get (Spec.find_axiom "9" Symboltable_spec.spec) in
  let goal = Refinement.obligation ax9 in
  (* without the invariant: unprovable *)
  Alcotest.(check bool) "without Assumption 1" false
    (Proof.holds (Refinement.base_config ()) goal);
  (* with it: provable *)
  match Refinement.verified_config () with
  | Ok cfg -> Alcotest.(check bool) "with Assumption 1" true (Proof.holds cfg goal)
  | Error u -> Alcotest.failf "lemma: %a" Proof.pp_outcome u

let test_assumption_violation_is_real () =
  let term, got, expected = Refinement.assumption_violation () in
  Alcotest.(check bool) "evaluates to error" true (Term.is_error got);
  Alcotest.(check bool) "axiom 9 expected a value" false (Term.is_error expected);
  Alcotest.(check bool) "the term applies ADD' to NEWSTACK" true
    (Term.count_op "ADD'" term > 0 && Term.count_op "NEWSTACK" term > 0)

let test_combined_spec_is_complete_and_consistent () =
  (* the definitional extension keeps the good properties *)
  Alcotest.(check bool) "complete" true
    (Completeness.holes Refinement.combined = []);
  let report = Consistency.check Refinement.combined in
  Alcotest.(check bool) "consistent" true
    (Consistency.is_consistent Refinement.combined report)

let test_ground_agreement_with_abstract_spec () =
  (* for every small ground symbol table built from abstract constructors,
     evaluating RETRIEVE abstractly and through the primed implementation
     agrees *)
  let ainterp = Interp.create Symboltable_spec.spec in
  let u = Enum.universe Symboltable_spec.spec in
  let tables = Enum.terms_up_to u Symboltable_spec.sort ~size:7 in
  let rec to_primed t =
    match Term.view t with
    | Term.App (op, args) -> (
      let args = List.map to_primed args in
      match Op.name op with
      | "INIT" -> Refinement.init'
      | "ENTERBLOCK" -> Refinement.enterblock' (List.nth args 0)
      | "ADD" ->
        Refinement.add' (List.nth args 0) (List.nth args 1) (List.nth args 2)
      | _ -> Term.app op args)
    | _ -> t
  in
  List.iter
    (fun table ->
      List.iter
        (fun id ->
          let abstractly =
            match Interp.eval ainterp (Symboltable_spec.retrieve table id) with
            | Interp.Value v -> Some v
            | _ -> None
          in
          let concretely =
            match Interp.eval interp (Refinement.retrieve' (to_primed table) id) with
            | Interp.Value v -> Some v
            | _ -> None
          in
          Alcotest.(check (option term_testable)) "retrieve agrees" abstractly concretely)
        [ idx "X"; idx "Y" ])
    tables

let suite =
  [
    case "primed operations compute the right answers" test_primed_operations_behave;
    case "PHI maps representations to abstract values" test_phi_maps_to_abstract_values;
    case "PHI of the bare NEWSTACK is error" test_phi_of_raw_newstack_is_error;
    case "obligation translation (priming and wrapping)" test_obligation_translation;
    case "the invariant lemma is proved by generator induction"
      test_lemma_proved_by_generator_induction;
    case "all nine axioms verified (Musser's proof, replayed)"
      test_all_nine_axioms_verified;
    case "axiom 9 requires Assumption 1" test_axiom9_needs_assumption1;
    case "the Assumption 1 violation is concrete" test_assumption_violation_is_real;
    case "the combined system is complete and consistent"
      test_combined_spec_is_complete_and_consistent;
    case "ground agreement between abstract and primed evaluation"
      test_ground_agreement_with_abstract_spec;
  ]
