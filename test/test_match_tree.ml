(* The matching automaton ([Match_tree]): compilation shape, first-match
   priority, non-left-linear deferred equality, and right-hand-side
   template instantiation — plus qcheck properties that automaton matches
   agree with the linear scan ([Subst.match_term] in declaration order)
   on random corpus terms, and that [Rewrite.trace], built on single
   [Rewrite.step]s, reaches the reference engine's normal form in the
   same number of rule applications. *)

open Adt
open Helpers
open Adt_specs

let m = v "m"
let n = v "n"

(* nat rules as (name, lhs, rhs) rows for [Match_tree.compile] *)
let p0 = ("p0", plus z n, n)
let ps = ("ps", plus (s m) n, s (plus m n))
let iz = ("iz", isz z, Term.tt)
let is_row = ("is", isz (s m), Term.ff)

let run_name tree t =
  Option.map (fun (name, _) -> name) (Match_tree.run tree t)

let check_match tree t expected_name expected_reduct =
  match Match_tree.run tree t with
  | None -> Alcotest.failf "no match on %a" Term.pp t
  | Some (name, reduct) ->
    Alcotest.(check string) "rule fired" expected_name name;
    check_term "reduct" expected_reduct reduct

let test_prefix_sharing () =
  let rows = [ p0; ps; iz; is_row ] in
  let combined = (Match_tree.stats (Match_tree.compile rows)).Match_tree.switches in
  let separate =
    List.fold_left
      (fun acc row ->
        acc + (Match_tree.stats (Match_tree.compile [ row ])).Match_tree.switches)
      0 rows
  in
  (* plus(z,n) and plus(s m,n) share the root test on plus, and both isz
     rules share theirs: one root switch + one argument switch per head *)
  Alcotest.(check int) "combined switches" 3 combined;
  Alcotest.(check bool)
    "sharing beats separate compiles" true (combined < separate)

let test_first_match_priority () =
  (* a specific and a fully generic rule for the same head: whichever is
     declared first wins, and a subject escaping the specific case falls
     through to the generic row carried into the default branch *)
  let specific = ("zero", isz z, Term.tt) in
  let generic = ("any", isz (v "x"), Term.ff) in
  let specific_first = Match_tree.compile [ specific; generic ] in
  check_match specific_first (isz z) "zero" Term.tt;
  check_match specific_first (isz (s z)) "any" Term.ff;
  let generic_first = Match_tree.compile [ generic; specific ] in
  (* the generic row shadows the specific one everywhere *)
  check_match generic_first (isz z) "any" Term.ff;
  check_match generic_first (isz (s z)) "any" Term.ff

let test_non_left_linear () =
  let rows =
    [
      ("eq", plus (v "x") (v "x"), v "x"); ("ne", plus (v "x") (v "y"), v "y");
    ]
  in
  let tree = Match_tree.compile rows in
  let two = church 2 in
  (* the repeated variable becomes a deferred check at the leaf... *)
  Alcotest.(check int) "one guarded leaf" 1
    (Match_tree.stats tree).Match_tree.guarded;
  (* ...that passes on equal subterms and falls through otherwise *)
  check_match tree (plus two (church 2)) "eq" two;
  check_match tree (plus (church 1) two) "ne" two;
  Alcotest.(check (option string))
    "no match on isz" None
    (run_name tree (isz z))

let test_rhs_template () =
  let tree = Match_tree.compile [ p0; ps; iz; is_row ] in
  let a = church 2 and b = church 3 in
  (* built rhs: s(plus(m,n)) instantiated exactly as Subst.apply would *)
  (match Subst.match_term ~pattern:(plus (s m) n) (plus (s a) b) with
  | None -> Alcotest.fail "pattern should match"
  | Some su ->
    check_match tree (plus (s a) b) "ps" (Subst.apply su (s (plus m n))));
  (* variable rhs: the subject's own subterm comes back *)
  check_match tree (plus z b) "p0" b;
  (* ground rhs: the compile-time interned constant, physically *)
  (match Match_tree.run tree (isz z) with
  | Some (_, reduct) ->
    Alcotest.(check bool) "physically tt" true (reduct == Term.tt)
  | None -> Alcotest.fail "isz z should match")

let test_run_with_bindings () =
  let tree = Match_tree.compile [ p0; ps ] in
  let a = church 1 and b = church 2 in
  match Match_tree.run_with tree (plus (s a) b) with
  | None -> Alcotest.fail "should match"
  | Some (name, binds, reduct) ->
    Alcotest.(check string) "rule" "ps" name;
    check_term "m bound" a (List.assoc "m" binds);
    check_term "n bound" b (List.assoc "n" binds);
    Alcotest.(check int) "one entry per variable" 2 (List.length binds);
    check_term "reduct" (s (plus a b)) reduct

(* {1 Differential properties against the linear scan} *)

let corpus_systems =
  lazy
    (List.map
       (fun spec -> (Corpus_gen.ctx_of spec, Rewrite.of_spec spec))
       Corpus.all)

(* one automaton over ALL of the spec's rules (the root switch
   discriminates the heads), against the scan the automaton must refine *)
let tree_of sys =
  Match_tree.compile
    (List.map (fun r -> (r, r.Rewrite.lhs, r.Rewrite.rhs)) (Rewrite.rules sys))

let linear_match rules t =
  let rec first = function
    | [] -> None
    | r :: rest -> (
      match Subst.match_term ~pattern:r.Rewrite.lhs t with
      | Some su -> Some (r, su)
      | None -> first rest)
  in
  first rules

(* a random (system, subject) pair drawn from the corpus *)
let pair_gen =
  QCheck2.Gen.map
    (fun (which, seed) ->
      let systems = Lazy.force corpus_systems in
      let ctx, sys = List.nth systems (which mod List.length systems) in
      let st = Random.State.make [| seed; 0x51ef3a |] in
      let sort = Corpus_gen.pick st (Corpus_gen.root_sorts ctx) in
      let t =
        Corpus_gen.gen_term ctx sort ~budget:(8 + Random.State.int st 32) st
      in
      (sys, t))
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 0 max_int))

(* the automaton's match (rule fired, substitution, reduct) is exactly the
   first-match linear scan's, at the root of every generated subterm *)
let match_agrees (sys, t) =
  let tree = tree_of sys in
  let rules = Rewrite.rules sys in
  let agree_at t =
    match (Match_tree.run_with tree t, linear_match rules t) with
    | None, None -> true
    | Some (r_a, binds, reduct), Some (r_l, su) ->
      r_a == r_l
      && (match Subst.of_bindings binds with
         | Some su' -> Subst.equal su su'
         | None -> false)
      && Term.equal reduct (Subst.apply su r_l.Rewrite.rhs)
    | _ -> false
  in
  let rec all_subterms t =
    agree_at t
    &&
    match Term.view t with
    | Term.Var _ | Term.Err _ -> true
    | Term.App (_, args) -> List.for_all all_subterms args
    | Term.Ite (c, a, b) -> List.for_all all_subterms [ c; a; b ]
  in
  all_subterms t

(* stepping through the automaton's redexes one at a time reaches the
   oracle's normal form, firing exactly as many rules: the builtin <if> /
   <error> events are the only ones the oracle does not count *)
let trace_agrees (sys, t) =
  let oracle =
    match Rewrite.Reference.normalize_count sys t with
    | r -> Some r
    | exception Rewrite.Out_of_fuel _ -> None
  in
  let traced =
    match Rewrite.trace ~max_events:max_int sys t with
    | nf, events ->
      let rules =
        List.filter
          (fun e ->
            not (List.mem e.Rewrite.rule_used [ "<if>"; "<error>" ]))
          events
      in
      Some (nf, List.length rules)
    | exception Rewrite.Out_of_fuel _ -> None
  in
  match (oracle, traced) with
  | None, None -> true
  | Some (nf0, n0), Some (nf, n) -> Term.equal nf0 nf && n0 = n
  | _ -> false

(* {1 The compile cache} *)

(* one key, one compiled system: a repeated key hits and returns the very
   same system; a different key misses and compiles afresh *)
let test_compile_cache () =
  Rewrite.compile_cache_clear ();
  let key = "test-match-tree/compile-cache" in
  let sys = Rewrite.of_spec_keyed ~key nat_spec in
  let stats = Rewrite.compile_cache_stats () in
  Alcotest.(check int) "first request misses" 1 stats.Rewrite.misses;
  Alcotest.(check int) "no hit yet" 0 stats.Rewrite.hits;
  let sys' = Rewrite.of_spec_keyed ~key nat_spec in
  let stats = Rewrite.compile_cache_stats () in
  Alcotest.(check int) "re-request hits" 1 stats.Rewrite.hits;
  Alcotest.(check bool) "same compiled system" true (sys' == sys);
  let other = Rewrite.of_spec_keyed ~key:(key ^ "/other") nat_spec in
  let stats = Rewrite.compile_cache_stats () in
  Alcotest.(check int) "a different key misses" 2 stats.Rewrite.misses;
  Alcotest.(check int) "still one hit" 1 stats.Rewrite.hits;
  Alcotest.(check int) "two entries" 2 stats.Rewrite.entries;
  Alcotest.(check bool) "a fresh system" false (other == sys)

let suite =
  [
    case "prefix sharing across rules" test_prefix_sharing;
    case "first-match priority and generic fall-through"
      test_first_match_priority;
    case "non-left-linear deferred equality" test_non_left_linear;
    case "rhs template instantiation" test_rhs_template;
    case "run_with reports the substitution" test_run_with_bindings;
    case "compile cache: same key hits, other key misses" test_compile_cache;
    qcheck ~count:300 "automaton match = linear scan (corpus)" pair_gen
      match_agrees;
    qcheck ~count:300 "trace = reference normal form and steps (corpus)"
      pair_gen trace_agrees;
  ]
