(* The verification passes (ADT020 sufficient completeness, ADT021
   termination, ADT022 confluence): the pattern-matrix machinery, the
   greedy precedence search, the status lattice, agreement between the
   matrix verdict and exhaustive ground enumeration (qcheck), the
   no-loop guarantee an RPO orientation buys, and the regression that
   ADT002 and ADT022 — both fed from one analysis — never disagree on
   the seeded faults. *)

open Adt
open Analysis
open Helpers

let contains = Astring_contains.contains

let parse src =
  match Parser.parse_specs ~env:(Library.to_env Library.builtin) src with
  | Ok specs -> List.rev specs |> List.hd
  | Error e -> Alcotest.failf "parse: %a" Parser.pp_error e

(* {1 Pattern_matrix} *)

let nat_matrix rows = Pattern_matrix.create nat_spec ~sorts:[ nat ] ~rows

let test_matrix_exhaustive () =
  let m = nat_matrix [ [ z ]; [ s (v "m") ] ] in
  Alcotest.(check bool) "z | s m is exhaustive" true
    (Pattern_matrix.exhaustive m);
  Alcotest.(check bool) "no witness" true (Pattern_matrix.uncovered m = None);
  let wild = nat_matrix [ [ v "n" ] ] in
  Alcotest.(check bool) "a wildcard row is exhaustive" true
    (Pattern_matrix.exhaustive wild)

let test_matrix_uncovered_witness () =
  let m = nat_matrix [ [ z ] ] in
  (match Pattern_matrix.uncovered m with
  | Some [ w ] ->
    (* the missing constructor, wildcards filled with ground constants *)
    check_term "witness is s(z)" (s z) w
  | other ->
    Alcotest.failf "expected one witness, got %s"
      (match other with None -> "none" | Some l -> Fmt.str "%d" (List.length l)))
  ;
  let deep = nat_matrix [ [ z ]; [ s z ] ] in
  match Pattern_matrix.uncovered deep with
  | Some [ w ] -> check_term "nested witness s(s(z))" (s (s z)) w
  | _ -> Alcotest.fail "z | s z leaves s(s(_)) uncovered"

let test_matrix_lists_every_hole () =
  (* z alone leaves s(_); an absent constructor carries wildcard
     arguments, and every wildcard of a sort shares the sort's name *)
  Alcotest.(check (list (list string)))
    "z leaves s(n)" [ [ "s(n)" ] ]
    (List.map (List.map Term.to_string)
       (Pattern_matrix.holes (nat_matrix [ [ z ] ])));
  let pairs =
    Pattern_matrix.create nat_spec ~sorts:[ nat; nat ] ~rows:[ [ z; z ] ]
  in
  Alcotest.(check (list (list string)))
    "every uncovered vector, in declaration order"
    [ [ "z"; "s(n)" ]; [ "s(n)"; "n" ] ]
    (List.map (List.map Term.to_string) (Pattern_matrix.holes pairs))

let test_matrix_parameter_sort () =
  (* a sort with no constructors has an infinite signature: only a
     wildcard row covers it, and the empty matrix reports a variable
     witness *)
  let p = Sort.v "P" in
  let sg = Signature.add_sort p Signature.empty in
  let spec = Spec.v ~name:"P" ~signature:sg ~constructors:[] ~axioms:[] () in
  let empty = Pattern_matrix.create spec ~sorts:[ p ] ~rows:[] in
  Alcotest.(check bool) "empty matrix is not exhaustive" false
    (Pattern_matrix.exhaustive empty);
  (match Pattern_matrix.uncovered empty with
  | Some [ w ] ->
    Alcotest.(check bool) "witness is a variable" true
      (match Term.view w with Term.Var _ -> true | _ -> false)
  | _ -> Alcotest.fail "expected a variable witness");
  let wild =
    Pattern_matrix.create spec ~sorts:[ p ] ~rows:[ [ Term.var "x" p ] ]
  in
  Alcotest.(check bool) "wildcard row covers a parameter sort" true
    (Pattern_matrix.exhaustive wild)

let test_matrix_width_mismatch () =
  Alcotest.check_raises "ragged rows rejected"
    (Invalid_argument
       "Pattern_matrix.create: row 0 has 2 patterns, expected 1") (fun () ->
      ignore (nat_matrix [ [ z; z ] ]))

(* {1 The seeded faults (same sources as specs/faulty/)} *)

let blend_spec () = parse Test_analysis.blend_incomplete_src
let flow_spec () = parse Test_analysis.unorientable_src
let tally_spec () = parse Test_analysis.nonconfluent_src
let toggle_spec () = parse Test_analysis.divergent_src
let sym_spec () = parse Test_analysis.nonlinear_src
let leaky_spec () = parse Test_analysis.missing_case_src

(* {1 Ordering.search (the ADT021 prover)} *)

let test_search_orients_corpus () =
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (Fmt.str "%s oriented" (Spec.name spec))
        true
        (Ordering.oriented (Ordering.search spec)))
    Adt_specs.Corpus.all

let test_search_rejects_commutativity () =
  let sr = Ordering.search (flow_spec ()) in
  match sr.Ordering.unoriented with
  | [ ax ] -> Alcotest.(check string) "the comm axiom" "comm" (Axiom.name ax)
  | other -> Alcotest.failf "expected 1 unoriented, got %d" (List.length other)

let test_search_bumps_beyond_seed () =
  (* Tally's [wrap3] S(S(S(x))) = Z needs S > Z, which the name-ordered
     dependency seed does not give: only the greedy bump finds it *)
  let sr = Ordering.search (tally_spec ()) in
  Alcotest.(check bool) "tally oriented" true (Ordering.oriented sr);
  let rank op = List.assoc op sr.Ordering.ranks in
  Alcotest.(check bool) "S above Z" true (rank "S" > rank "Z")

(* {1 Completeness (ADT020)} *)

let test_completeness_holes_decided () =
  let holes = Completeness.holes (leaky_spec ()) in
  Alcotest.(check (list string))
    "one hole per leaky observer" [ "POP"; "PEEK" ]
    (List.map (fun (h : Completeness.hole) -> Op.name h.op) holes);
  List.iter
    (fun (h : Completeness.hole) ->
      Alcotest.(check bool) "decided" true h.decided)
    holes

let test_completeness_interior_hole () =
  match Completeness.holes (blend_spec ()) with
  | [ h ] ->
    Alcotest.(check string)
      "witness is the missing pair" "BLEND(GREEN, GREEN)"
      (Term.to_string h.Completeness.witness)
  | other -> Alcotest.failf "expected 1 hole, got %d" (List.length other)

let test_completeness_nonlinear_ground_fallback () =
  (* SAME?(s, s) is excluded from the matrix; the hole is confirmed by
     ground enumeration, which finds the asymmetric pair and makes it the
     hole's pattern *)
  match Completeness.holes (sym_spec ()) with
  | [ h ] ->
    Alcotest.(check bool) "decided by ground enumeration" true
      h.Completeness.decided;
    Alcotest.(check string) "the first asymmetric application" "SAME?(A, B)"
      (Term.to_string h.Completeness.pattern);
    check_term "the witness is the pattern" h.Completeness.pattern
      h.Completeness.witness
  | other -> Alcotest.failf "expected 1 hole, got %d" (List.length other)

(* {1 The status lattice (ADT021/ADT022)} *)

let status_name = function
  | Verify.Confluent_newman -> "newman"
  | Verify.Confluent_orthogonal -> "orthogonal"
  | Verify.Locally_confluent_only -> "local-only"
  | Verify.Not_locally_confluent -> "not-local"
  | Verify.Undecided -> "undecided"

let check_status what expected spec =
  Alcotest.(check string) what (status_name expected)
    (status_name (Verify.analyze spec).Verify.status)

let test_statuses () =
  check_status "clean Queue is Newman-confluent" Verify.Confluent_newman
    Adt_specs.Queue_spec.spec;
  check_status "Toggle diverges" Verify.Not_locally_confluent (toggle_spec ());
  check_status "Tally diverges" Verify.Not_locally_confluent (tally_spec ());
  (* commutativity: not terminating by RPO, but orthogonal *)
  check_status "Flow is orthogonal" Verify.Confluent_orthogonal (flow_spec ())

let test_flow_fires_only_adt021 () =
  let diags =
    Lint.run
      ~config:
        { Lint.only = Some [ "ADT020"; "ADT021"; "ADT022" ]; fuel = None }
      (flow_spec ())
  in
  Alcotest.(check (list string)) "exactly the termination finding"
    [ "ADT021" ]
    (List.map (fun d -> d.Diagnostic.code) diags)

let test_corpus_verified () =
  List.iter
    (fun spec ->
      let s = Verify.summarize spec in
      Alcotest.(check bool)
        (Fmt.str "%s verified: %a" (Spec.name spec) Verify.pp_summary s)
        true (Verify.verified s);
      let line = Fmt.str "%a" Verify.pp_summary s in
      Alcotest.(check bool) "summary says sufficiently complete" true
        (contains line "sufficiently complete");
      Alcotest.(check bool) "summary says terminating" true
        (contains line "terminating");
      Alcotest.(check bool) "summary says confluent" true
        (contains line "confluent"))
    Adt_specs.Corpus.all

(* {1 ADT002 and ADT022 cannot disagree (one shared analysis)} *)

let faulty_sources () =
  (* dune runtest runs from _build/default/test; a direct dune exec (the
     CI index-engine pass) runs from the repo root *)
  let base =
    Option.value ~default:"../specs"
      (List.find_opt Sys.file_exists [ "../specs"; "specs" ])
  in
  let dir = Filename.concat base "faulty" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".adt")
  |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         let ic = open_in_bin path in
         Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () -> (f, really_input_string ic (in_channel_length ic))))

let test_adt002_adt022_consistent () =
  let files = faulty_sources () in
  Alcotest.(check bool) "the faulty corpus is present" true
    (List.length files >= 10);
  List.iter
    (fun (file, src) ->
      match Parser.parse_specs ~env:(Library.to_env Library.builtin) src with
      | Error e -> Alcotest.failf "%s: %a" file Parser.pp_error e
      | Ok specs ->
        List.iter
          (fun spec ->
            let a = Verify.analyze spec in
            let diverging =
              List.exists
                (fun (_, verdict) ->
                  match verdict with
                  | Consistency.Diverges _ -> true
                  | _ -> false)
                a.Verify.report.Consistency.pairs
            in
            let adt002_diverging =
              List.exists
                (fun d -> d.Diagnostic.severity <> Diagnostic.Info)
                (Verify.adt002 a)
            in
            let adt022_refuted =
              List.exists
                (fun d -> d.Diagnostic.severity = Diagnostic.Error)
                (Verify.adt022 a)
            in
            Alcotest.(check bool)
              (Fmt.str "%s %s: ADT002 divergence = divergent pairs" file
                 (Spec.name spec))
              diverging adt002_diverging;
            Alcotest.(check bool)
              (Fmt.str "%s %s: ADT022 error = divergent pairs" file
                 (Spec.name spec))
              diverging adt022_refuted)
          specs)
    files

(* {1 ADT020 agrees with exhaustive ground enumeration (qcheck)} *)

(* the ground truth, computed the expensive way: a tuple of constructor
   terms no executable axiom matches at the root, sought exhaustively *)
let ground_uncovered spec op ~size =
  let u = Enum.universe spec in
  let patterns =
    List.filter Axiom.is_executable (Spec.axioms_for op spec)
    |> List.map Axiom.lhs
  in
  let choices =
    List.map (fun s -> Enum.terms_up_to u s ~size) (Op.args op)
  in
  if List.exists (fun c -> c = []) choices then false
  else begin
    let exception Found in
    let check args =
      let t = Term.app op args in
      if not (List.exists (fun p -> Subst.matches ~pattern:p t) patterns)
      then raise Found
    in
    let rec product acc = function
      | [] -> check (List.rev acc)
      | cs :: rest -> List.iter (fun c -> product (c :: acc) rest) cs
    in
    try
      product [] choices;
      false
    with Found -> true
  end

let observer_pool () =
  List.concat_map
    (fun spec ->
      List.map (fun op -> (spec, op)) (Spec.observers spec))
    ([
       nat_spec;
       Adt_specs.Queue_spec.spec;
       Adt_specs.Stack_spec.default.Adt_specs.Stack_spec.spec;
       leaky_spec ();
       blend_spec ();
       sym_spec ();
       toggle_spec ();
     ]
    @ [ parse Test_analysis.free_rhs_src ])

let test_matrix_agrees_with_enumeration =
  let pool = observer_pool () in
  qcheck ~count:120 "ADT020 verdict = exhaustive ground coverage"
    QCheck2.Gen.(int_range 0 (List.length pool - 1))
    (fun i ->
      let spec, op = List.nth pool i in
      match
        List.find_opt
          (fun (h : Completeness.hole) -> Op.equal h.op op)
          (Completeness.holes spec)
      with
      | Some h when h.Completeness.decided -> ground_uncovered spec op ~size:3
      | Some _ -> true (* undecided: the matrix makes no claim *)
      | None -> not (ground_uncovered spec op ~size:3))

(* {1 An RPO-oriented system never loops (test_diff's harness)} *)

(* orientedness itself is asserted by the search tests above; here the
   qcheck harness drives random full-signature terms through the rewrite
   engine and demands that the generous budget is never exhausted *)
let no_loop_case spec =
  let ctx = Helpers.Corpus_gen.ctx_of spec in
  let sys = Rewrite.of_spec spec in
  qcheck ~count:200
    (Fmt.str "RPO-oriented %s never exhausts fuel" (Spec.name spec))
    (Helpers.Corpus_gen.term_gen ctx)
    (fun t ->
      match Rewrite.normalize_count ~fuel:100_000 sys t with
      | _ -> true
      | exception Rewrite.Out_of_fuel _ -> false)

let suite =
  [
    case "matrix: exhaustive" test_matrix_exhaustive;
    case "matrix: uncovered witness" test_matrix_uncovered_witness;
    case "matrix: every uncovered vector listed" test_matrix_lists_every_hole;
    case "matrix: parameter sorts are infinite" test_matrix_parameter_sort;
    case "matrix: ragged rows rejected" test_matrix_width_mismatch;
    case "search: orients the corpus" test_search_orients_corpus;
    case "search: commutativity is unorientable"
      test_search_rejects_commutativity;
    case "search: bumps beyond the dependency seed"
      test_search_bumps_beyond_seed;
    case "ADT020: boundary holes decided" test_completeness_holes_decided;
    case "ADT020: interior hole of a two-argument observer"
      test_completeness_interior_hole;
    case "ADT020: non-left-linear ground fallback"
      test_completeness_nonlinear_ground_fallback;
    case "status lattice on the seeded faults" test_statuses;
    case "orthogonal system fires only ADT021" test_flow_fires_only_adt021;
    case "the whole corpus verifies" test_corpus_verified;
    case "ADT002 and ADT022 agree on specs/faulty" test_adt002_adt022_consistent;
    test_matrix_agrees_with_enumeration;
  ]
  @ List.map no_loop_case
      [
        Adt_specs.Queue_spec.spec;
        Adt_specs.Stack_spec.default.Adt_specs.Stack_spec.spec;
        tally_spec ();
      ]
