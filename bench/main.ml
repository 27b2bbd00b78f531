(* Benchmark harness: one section per experiment of DESIGN.md / EXPERIMENTS.md.

   The paper (Guttag, CACM 1977) has no quantitative tables; its measurable
   claims and exhibited artifacts are reproduced here as experiments E1-E18
   (E13 was folded into E18; E10 and E15, in-process serving, were retired
   in favour of perfbench's socket workloads).
   Sections print the artifact reproductions (the ring-buffer figures, the
   mechanical proof, the prompting transcript, the axiom diff) and time the
   claims that are about cost (symbolic interpretation overhead,
   representation trade-offs, checker scaling, engine cache warmth).

     dune exec bench/main.exe                          # human-readable
     dune exec bench/main.exe -- --json results.json   # + machine-readable *)

open Bechamel
open Toolkit
open Adt
open Adt_specs

let item = Builtins.item

(* {1 Harness} *)

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]

let instance = Instance.monotonic_clock

let run_tests ?(stabilize = false) tests =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ~stabilize ()
  in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"" tests) in
  Analyze.all ols instance raw

let pretty_ns ns =
  if ns >= 1e9 then Fmt.str "%8.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Fmt.str "%8.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Fmt.str "%8.2f us" (ns /. 1e3)
  else Fmt.str "%8.2f ns" ns

(* accumulated rows for --json: (bench name, ns/op), in report order *)
let json_rows : (string * float) list ref = ref []

let report_group ?stabilize title tests =
  Fmt.pr "@.--- %s ---@." title;
  let results = run_tests ?stabilize tests in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | _ -> nan
        in
        (name, estimate) :: acc)
      results []
  in
  let clean name =
    if String.length name > 0 && name.[0] = '/' then
      String.sub name 1 (String.length name - 1)
    else name
  in
  let rows =
    List.map (fun (name, ns) -> (clean name, ns))
      (List.sort (fun (a, _) (b, _) -> compare a b) rows)
  in
  json_rows := !json_rows @ rows;
  List.iter
    (fun (name, ns) -> Fmt.pr "  %-46s %s/op@." name (pretty_ns ns))
    rows

(* machine-readable results, so the perf trajectory can be tracked across
   revisions: [{"experiment": "e1", "name": "...", "ns_per_op": 123.4}] *)
let experiment_of name =
  match String.index_opt name '/' with
  | Some i -> String.sub name 0 i
  | None -> name

let write_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i (name, ns) ->
          Printf.fprintf oc
            "  {\"experiment\": %s, \"name\": %s, \"ns_per_op\": %.2f}%s\n"
            (Analysis.Render.json_string (experiment_of name))
            (Analysis.Render.json_string name)
            (if Float.is_nan ns then -1. else ns)
            (if i = List.length !json_rows - 1 then "" else ","))
        !json_rows;
      output_string oc "]\n");
  Fmt.pr "wrote %d results to %s@." (List.length !json_rows) path

let t name f = Test.make ~name (Staged.stage f)

let seconds f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* {1 E1 - the cost of symbolic interpretation (section 5)} *)

let queue_interp = Interp.create Queue_spec.spec

let symbolic_queue_workload_on interp n () =
  let q = Queue_spec.of_items (List.init n (fun i -> item ((i mod 4) + 1))) in
  let rec drain q k acc =
    if k = 0 then acc
    else
      let f = Interp.eval interp (Queue_spec.front q) in
      let q' =
        match Interp.eval interp (Queue_spec.remove q) with
        | Interp.Value t -> t
        | _ -> assert false
      in
      drain q' (k - 1) (match f with Interp.Value _ -> acc + 1 | _ -> acc)
  in
  drain q n 0

let symbolic_queue_workload n () = symbolic_queue_workload_on queue_interp n ()

(* ablation: the same workload through a memoizing interpreter session
   (each run gets a fresh memo so runs stay independent) *)
let memo_queue_workload n () =
  let interp = Interp.create ~memo:true Queue_spec.spec in
  symbolic_queue_workload_on interp n ()

let direct_queue_workload n () =
  let q = List.fold_left Queue_impl.add Queue_impl.empty
      (List.init n (fun i -> item ((i mod 4) + 1)))
  in
  let rec drain q k acc =
    if k = 0 then acc
    else
      let _ = Queue_impl.front q in
      drain (Queue_impl.remove q) (k - 1) (acc + 1)
  in
  drain q n 0

let symtab_ids = [ "X"; "Y"; "Z"; "W" ]

let symbolic_symtab_workload depth () =
  let interp = Interp.create Symboltable_spec.spec in
  let rec build t d =
    if d = 0 then t
    else
      let t =
        List.fold_left
          (fun t name ->
            Symboltable_spec.add t (Identifier.id name) (Attributes.attrs 1))
          (Symboltable_spec.enterblock t) symtab_ids
      in
      build t (d - 1)
  in
  let table = build Symboltable_spec.init depth in
  List.fold_left
    (fun acc name ->
      match
        Interp.eval interp
          (Symboltable_spec.retrieve table (Identifier.id name))
      with
      | Interp.Value _ -> acc + 1
      | _ -> acc)
    0 symtab_ids

let direct_symtab_workload depth () =
  let module I = Symboltable_impl.Hash in
  let rec build t d =
    if d = 0 then t
    else
      let t =
        List.fold_left
          (fun t name -> I.add t (Identifier.id name) (Attributes.attrs 1))
          (I.enterblock t) symtab_ids
      in
      build t (d - 1)
  in
  let table = build (I.init ()) depth in
  List.fold_left
    (fun acc name ->
      match I.retrieve table (Identifier.id name) with
      | Some _ -> acc + 1
      | None -> acc)
    0 symtab_ids

(* reuse-heavy workload for the memo ablation: many repeated queries
   against one fixed symbol table *)
let repeated_retrieves_workload ~memo () =
  let interp = Interp.create ~memo Symboltable_spec.spec in
  let table =
    let rec build t d =
      if d = 0 then t
      else
        build
          (List.fold_left
             (fun t name ->
               Symboltable_spec.add t (Identifier.id name) (Attributes.attrs 1))
             (Symboltable_spec.enterblock t) symtab_ids)
          (d - 1)
    in
    build Symboltable_spec.init 6
  in
  let hits = ref 0 in
  for _ = 1 to 25 do
    List.iter
      (fun name ->
        match
          Interp.eval interp
            (Symboltable_spec.retrieve table (Identifier.id name))
        with
        | Interp.Value _ -> incr hits
        | _ -> ())
      symtab_ids
  done;
  !hits

let e1 () =
  Fmt.pr "@.=== E1: symbolic interpretation vs direct implementation ===@.";
  Fmt.pr "(the paper concedes a 'significant loss in efficiency'; measure it)@.";
  report_group "Queue: fill n, then drain n (FIFO traversal)"
    [
      t "e1/queue/symbolic/n=04" (symbolic_queue_workload 4);
      t "e1/queue/direct___/n=04" (direct_queue_workload 4);
      t "e1/queue/symbolic/n=16" (symbolic_queue_workload 16);
      t "e1/queue/direct___/n=16" (direct_queue_workload 16);
      t "e1/queue/symbolic/n=48" (symbolic_queue_workload 48);
      t "e1/queue/direct___/n=48" (direct_queue_workload 48);
      t "e1/queue/memoized_/n=16" (memo_queue_workload 16);
      t "e1/queue/memoized_/n=48" (memo_queue_workload 48);
    ];
  report_group "Symboltable: d nested blocks of 4 declarations, 4 retrieves"
    [
      t "e1/symtab/symbolic/depth=2" (symbolic_symtab_workload 2);
      t "e1/symtab/direct___/depth=2" (direct_symtab_workload 2);
      t "e1/symtab/symbolic/depth=6" (symbolic_symtab_workload 6);
      t "e1/symtab/direct___/depth=6" (direct_symtab_workload 6);
    ];
  report_group
    "ablation: memoized rewriting (25 repeated retrieve rounds, one table)"
    [
      t "e1/retrieves/plain___" (repeated_retrieves_workload ~memo:false);
      t "e1/retrieves/memoized" (repeated_retrieves_workload ~memo:true);
    ]

(* {1 E2 - the ring-buffer figures: Phi is many-to-one (section 4)} *)

let e2 () =
  Fmt.pr "@.=== E2: the bounded-queue figures (Phi has no proper inverse) ===@.";
  let x1 =
    Bounded_queue_impl.(
      empty |> Fun.flip add (item 1) |> Fun.flip add (item 2)
      |> Fun.flip add (item 3) |> remove |> Fun.flip add (item 4))
  in
  let x2 =
    Bounded_queue_impl.(
      empty |> Fun.flip add (item 2) |> Fun.flip add (item 3)
      |> Fun.flip add (item 4))
  in
  Fmt.pr "figure 1 state (ADD A,B,C; REMOVE; ADD D): %a@."
    Bounded_queue_impl.pp_state x1;
  Fmt.pr "figure 2 state (ADD B,C,D):                %a@."
    Bounded_queue_impl.pp_state x2;
  Fmt.pr "states equal: %b; Phi images equal: %b (%a)@."
    (Bounded_queue_impl.state_equal x1 x2)
    (Term.equal
       (Bounded_queue_impl.abstraction x1)
       (Bounded_queue_impl.abstraction x2))
    Term.pp
    (Bounded_queue_impl.abstraction x1);
  let interp = Interp.create Bounded_queue_spec.spec in
  let seg1 =
    Bounded_queue_spec.(add_q (remove_q (of_items [ item 1; item 2; item 3 ])) (item 4))
  in
  report_group "cost of Phi and of symbolic evaluation"
    [
      t "e2/phi/ring-buffer" (fun () -> Bounded_queue_impl.abstraction x1);
      t "e2/symbolic/segment-1" (fun () -> Interp.eval interp seg1);
      t "e2/direct__/segment-1" (fun () ->
          Bounded_queue_impl.(
            empty |> Fun.flip add (item 1) |> Fun.flip add (item 2)
            |> Fun.flip add (item 3) |> remove |> Fun.flip add (item 4)));
    ]

(* {1 E3 - the mechanical representation proof (section 4)} *)

let e3 () =
  Fmt.pr "@.=== E3: Symboltable-as-Stack-of-Arrays, verified mechanically ===@.";
  let term, got, expected = Refinement.assumption_violation () in
  Fmt.pr "Assumption 1 is necessary: %a ~> %a (axiom 9 expects %a)@." Term.pp
    term Term.pp got Term.pp expected;
  let results, elapsed = seconds Refinement.verify in
  Fmt.pr "%a@." Refinement.pp_results results;
  Fmt.pr "all proved: %b in %.1f ms@."
    (Refinement.all_proved results)
    (elapsed *. 1000.);
  Fmt.pr "@.second representation, same method (Array as a pair list):@.";
  let list_results = Array_as_list.verify () in
  Fmt.pr "%a@.all proved: %b (no reachability invariant needed)@."
    Array_as_list.pp_results list_results
    (Array_as_list.all_proved list_results);
  report_group "proof costs"
    [
      t "e3/lemma-nonempty" (fun () ->
          Proof.prove_axiom (Refinement.base_config ()) Refinement.nonempty_lemma);
      t "e3/verify-all-nine-axioms" (fun () -> Refinement.verify ());
      t "e3/verify-array-as-list" (fun () -> Array_as_list.verify ());
    ]

(* {1 E4 - sufficient-completeness checking (section 3)} *)

let e4 () =
  Fmt.pr "@.=== E4: sufficient-completeness checking and prompting ===@.";
  let broken =
    Spec.without_axiom "3" (Spec.without_axiom "5" Queue_spec.spec)
  in
  Fmt.pr "transcript on a Queue missing its boundary axioms:@.";
  List.iter
    (fun p -> Fmt.pr "  %a@." Heuristics.pp_prompt p)
    (Heuristics.prompts broken);
  let scaled n = Identifier.spec_with_atoms (List.init n (fun i -> Fmt.str "A%d" i)) in
  let scaled8 = scaled 8 and scaled16 = scaled 16 and scaled32 = scaled 32 in
  report_group "checker cost vs specification size"
    [
      t "e4/check/queue-6-axioms" (fun () -> Completeness.holes Queue_spec.spec);
      t "e4/check/symboltable" (fun () ->
          Completeness.holes Symboltable_spec.spec);
      t "e4/check/refinement" (fun () ->
          Completeness.holes Refinement.combined);
      t "e4/check/identifier-08-atoms" (fun () -> Completeness.holes scaled8);
      t "e4/check/identifier-16-atoms" (fun () -> Completeness.holes scaled16);
      t "e4/check/identifier-32-atoms" (fun () -> Completeness.holes scaled32);
    ]

(* {1 E5 - consistency: critical pairs and completion (section 3)} *)

let e5 () =
  Fmt.pr "@.=== E5: consistency checking and Knuth-Bendix completion ===@.";
  let report = Consistency.check Queue_spec.spec in
  Fmt.pr "Queue: %d critical pair(s); locally confluent: %b; consistent: %b@."
    (List.length report.Consistency.pairs)
    (Consistency.locally_confluent report)
    (Consistency.is_consistent Queue_spec.spec report);
  let q = Term.var "q" Queue_spec.sort
  and i = Term.var "i" Builtins.item_sort in
  let evil =
    Axiom.v ~name:"evil"
      ~lhs:(Queue_spec.is_empty (Queue_spec.add q i))
      ~rhs:Term.tt ()
  in
  let bad = Spec.with_axioms [ evil ] Queue_spec.spec in
  let bad_report = Consistency.check bad in
  (match Consistency.inconsistencies bad bad_report with
  | (_, a, b) :: _ ->
    Fmt.pr "seeded contradiction detected: derived %a = %a@." Term.pp a Term.pp b
  | [] -> Fmt.pr "seeded contradiction NOT detected (bug!)@.");
  report_group "critical pairs and completion"
    [
      t "e5/critical-pairs/queue" (fun () -> Consistency.check Queue_spec.spec);
      t "e5/critical-pairs/symboltable" (fun () ->
          Consistency.check Symboltable_spec.spec);
      t "e5/completion/queue" (fun () -> Completion.complete_spec Queue_spec.spec);
      t "e5/completion/symboltable" (fun () ->
          Completion.complete_spec Symboltable_spec.spec);
    ]

(* {1 E6 - delaying the representation choice (section 5)} *)

let e6_workload (module I : Symboltable_impl.S) ids () =
  let table =
    List.fold_left
      (fun (t, k) id ->
        let t = if k mod 8 = 0 then I.enterblock t else t in
        (I.add t id (Attributes.attrs 1), k + 1))
      (I.init (), 1)
      ids
    |> fst
  in
  List.fold_left
    (fun acc id -> match I.retrieve table id with Some _ -> acc + 1 | None -> acc)
    0 ids

let e6 () =
  Fmt.pr "@.=== E6: hash-table vs association-list arrays ===@.";
  let ids n =
    let identifier = Identifier.spec_with_atoms (List.init n (fun i -> Fmt.str "V%d" i)) in
    Identifier.atom_terms identifier
  in
  let small = ids 8 and medium = ids 64 and large = ids 256 in
  report_group "declare n identifiers (blocks of 8), retrieve all n"
    [
      t "e6/assoc/n=008" (e6_workload (module Symboltable_impl.Assoc) small);
      t "e6/hash_/n=008" (e6_workload (module Symboltable_impl.Hash) small);
      t "e6/assoc/n=064" (e6_workload (module Symboltable_impl.Assoc) medium);
      t "e6/hash_/n=064" (e6_workload (module Symboltable_impl.Hash) medium);
      t "e6/assoc/n=256" (e6_workload (module Symboltable_impl.Assoc) large);
      t "e6/hash_/n=256" (e6_workload (module Symboltable_impl.Hash) large);
    ]

(* {1 E7 - the knows-list change (section 4)} *)

let e7 () =
  Fmt.pr "@.=== E7: the knows-list language change ===@.";
  let changed, kept = Symboltable_knows_spec.changed_axioms () in
  let head_is_symboltable ax =
    let head = Axiom.head ax in
    List.exists
      (Sort.equal Symboltable_spec.sort)
      (Op.result head :: Op.args head)
  in
  let changed_st = List.filter head_is_symboltable changed in
  Fmt.pr "Symboltable axioms changed (%d):@." (List.length changed_st);
  List.iter (fun ax -> Fmt.pr "  %a@." Axiom.pp ax) changed_st;
  Fmt.pr "Symboltable axioms kept verbatim: %d@."
    (List.length (List.filter head_is_symboltable kept));
  let mentions_enterblock ax =
    Term.count_op "ENTERBLOCK" (Axiom.lhs ax)
    + Term.count_op "ENTERBLOCK" (Axiom.rhs ax)
    > 0
  in
  Fmt.pr "every changed axiom mentions ENTERBLOCK: %b (the paper's claim)@."
    (List.for_all mentions_enterblock changed_st)

(* {1 E8 - interchangeable symbol tables in the compiler (section 5)} *)

let block_program n =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "begin\n  decl g : int;\n  g := 1;\n";
  for i = 1 to n do
    Buffer.add_string buf
      (Fmt.str
         "begin decl a%d : int; decl b%d : int; a%d := g + %d; b%d := a%d * 2; print b%d;\n"
         i i i i i i i)
  done;
  for _ = 1 to n do
    Buffer.add_string buf "end;\n"
  done;
  Buffer.add_string buf "  print g\nend\n";
  Buffer.contents buf

let e8 () =
  Fmt.pr "@.=== E8: one checker, interchangeable symbol-table backends ===@.";
  let program = block_program 3 in
  List.iter
    (fun backend ->
      Fmt.pr "backend %-16s: %a@."
        (Blocklang.Driver.backend_name backend)
        Blocklang.Driver.pp_outcome
        (Blocklang.Driver.run_source backend program))
    Blocklang.Driver.all_backends;
  let p4 = block_program 4 and p12 = block_program 12 in
  report_group "checker cost per backend (n nested blocks)"
    [
      t "e8/direct/n=04" (fun () ->
          Blocklang.Driver.check_source Blocklang.Driver.Direct p4);
      t "e8/algebraic/n=04" (fun () ->
          Blocklang.Driver.check_source Blocklang.Driver.Algebraic p4);
      t "e8/algebraic-knows/n=04" (fun () ->
          Blocklang.Driver.check_source Blocklang.Driver.Algebraic_knows p4);
      t "e8/direct/n=12" (fun () ->
          Blocklang.Driver.check_source Blocklang.Driver.Direct p12);
      t "e8/algebraic/n=12" (fun () ->
          Blocklang.Driver.check_source Blocklang.Driver.Algebraic p12);
    ]

(* {1 E9 - engine: warm shared cache vs cold per-session normalization} *)

let e9_requests =
  (* a work mix with heavy overlap, as a long-lived service would see *)
  [
    "normalize Queue FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2)))";
    "normalize Queue IS_EMPTY?(REMOVE(ADD(NEW, ITEM1)))";
    "normalize Queue FRONT(ADD(ADD(ADD(NEW, ITEM1), ITEM2), ITEM3))";
    "normalize Queue FRONT(REMOVE(REMOVE(ADD(ADD(ADD(NEW, ITEM1), ITEM2), ITEM3))))";
    "normalize Queue IS_EMPTY?(NEW)";
    "normalize Queue FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2)))";
    "normalize Queue FRONT(ADD(ADD(ADD(NEW, ITEM1), ITEM2), ITEM3))";
    "normalize Queue IS_EMPTY?(REMOVE(ADD(NEW, ITEM1)))";
  ]

let e9_replay session =
  List.iter
    (fun line -> ignore (Engine.Dispatch.handle_line session line))
    e9_requests

let e9 () =
  Fmt.pr "@.=== E9: evaluation engine, shared-cache warmth ===@.";
  let warm = Engine.Session.create [ Queue_spec.spec ] in
  e9_replay warm;
  (* one representative request, repeated against a warm session *)
  let hot = "normalize Queue FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2)))" in
  report_group "normalize throughput, batch of 8 requests"
    [
      t "e9/cold-session/batch" (fun () ->
          e9_replay (Engine.Session.create [ Queue_spec.spec ]));
      t "e9/warm-session/batch" (fun () -> e9_replay warm);
      t "e9/warm-session/single" (fun () ->
          ignore (Engine.Dispatch.handle_line warm hot));
    ];
  let totals = Engine.Session.cache_totals warm in
  Fmt.pr "  warm session after run: hits=%d misses=%d entries=%d@."
    totals.Engine.Session.hits totals.Engine.Session.misses
    totals.Engine.Session.entries

(* {1 E11 - observability: the cost of tracing, off and on} *)

let e11 () =
  Fmt.pr "@.=== E11: tracing overhead on the normalize hot path ===@.";
  Fmt.pr
    "(tracing=off is the default dispatcher path — the [?on_rule] hook is \
     [None], so the@.";
  Fmt.pr
    " per-step cost is one option test; tracing=on builds a span tree and \
     counts per rule;@.";
  Fmt.pr " +slowlog also records every request into the ring log)@.";
  let plain = Engine.Session.create [ Queue_spec.spec ] in
  let traced = Engine.Session.create ~tracing:true [ Queue_spec.spec ] in
  let logged =
    (* threshold 0: every request enters the ring, the worst case *)
    Engine.Session.create ~slowlog_ms:0. [ Queue_spec.spec ]
  in
  e9_replay plain;
  e9_replay traced;
  e9_replay logged;
  report_group "warm normalize batch of 8 requests, by observability level"
    [
      t "e11/tracing=off/batch" (fun () -> e9_replay plain);
      t "e11/tracing=on/batch" (fun () -> e9_replay traced);
      t "e11/tracing=on+slowlog/batch" (fun () -> e9_replay logged);
    ]

(* {1 E12 - lint wall-clock over the builtin library and a seeded fault} *)

let e12 () =
  Fmt.pr "@.=== E12: lint cost ===@.";
  let specs = Corpus.all in
  Fmt.pr
    "(full lint = ADT001 completeness prompts + ADT002 critical pairs + the \
     static ADT01x@.";
  Fmt.pr
    " passes; static-only is what `adtc check` adds on top of its own \
     reports)@.";
  let findings =
    List.fold_left
      (fun n spec -> n + List.length (Analysis.Lint.run spec))
      0 specs
  in
  Fmt.pr "  builtin library: %d specification(s), %d finding(s)@."
    (List.length specs) findings;
  report_group "lint wall-clock"
    [
      t "e12/lint/builtin-library" (fun () ->
          List.iter (fun spec -> ignore (Analysis.Lint.run spec)) specs);
      t "e12/lint-static/builtin-library" (fun () ->
          List.iter (fun spec -> ignore (Analysis.Lint.static spec)) specs);
      t "e12/lint/queue" (fun () ->
          ignore (Analysis.Lint.run Queue_spec.spec));
    ]

(* {1 The Symboltable refinement workload (E16, E18)} *)

(* The Symboltable refinement is the largest rule system in the repo
   (symbol tables represented as stacks of arrays, five specifications
   merged), so rule matching dominates its normalization cost. The
   queries retrieve four identifiers through [depth] nested blocks. *)

let refinement_sys = Rewrite.of_spec Refinement.combined

let e13_queries depth =
  let ids = List.map Identifier.id [ "X"; "Y"; "Z"; "W" ] in
  let rec build t d =
    if d = 0 then t
    else
      build
        (List.fold_left
           (fun t id -> Refinement.add' t id (Attributes.attrs 1))
           (Refinement.enterblock' t) ids)
        (d - 1)
  in
  let table = build Refinement.init' depth in
  List.map (Refinement.retrieve' table) ids

let refinement_workload normalize queries () =
  List.fold_left
    (fun acc q -> acc + Term.size (normalize refinement_sys q))
    0 queries

let memo_workload memo queries () =
  let memo = match memo with Some m -> m | None -> Rewrite.Memo.create () in
  List.fold_left
    (fun acc q ->
      acc + Term.size (Rewrite.normalize ~memo refinement_sys q))
    0 queries

(* {1 E14 - spec-derived conformance suites: compile and run cost} *)

let e14_entry spec impl =
  match Testgen.Registry.find ~spec ~impl with
  | Some e -> e
  | None -> failwith (Fmt.str "e14: %s/%s not registered" spec impl)

let e14 () =
  Fmt.pr "@.=== E14: spec-derived conformance suites (testgen) ===@.";
  Fmt.pr
    "(compile = partition context operations + precompile the rewrite \
     system;@.";
  Fmt.pr
    " run = per axiom, N uniform valuations, both sides evaluated through \
     the@.";
  Fmt.pr
    " implementation and compared through random observation contexts)@.";
  let queue = e14_entry "Queue" "two-list" in
  let array = e14_entry "Array" "hash" in
  let symtab = e14_entry "Symboltable" "stack-of-hash" in
  report_group "Suite compile + run (seed pinned, count per axiom)"
    [
      t "e14/compile/queue" (fun () ->
          ignore (Testgen.Harness.compile queue));
      t "e14/run=20/queue/two-list" (fun () ->
          ignore (Testgen.Harness.conformance ~count:20 ~seed:414243 queue));
      t "e14/run=20/array/hash" (fun () ->
          ignore (Testgen.Harness.conformance ~count:20 ~seed:414243 array));
      t "e14/run=20/symboltable/hash" (fun () ->
          ignore (Testgen.Harness.conformance ~count:20 ~seed:414243 symtab));
    ];
  (* the corpus, replayed at the CI count: every mutant must die *)
  let reports =
    List.map
      (fun entry -> Testgen.Harness.conformance ~count:200 ~seed:414243 entry)
      Testgen.Registry.mutants
  in
  let killed =
    List.length (List.filter Testgen.Harness.killed reports)
  in
  Fmt.pr "  mutation corpus at count=200 seed=414243: %d/%d killed@." killed
    (List.length reports);
  if killed < List.length reports then failwith "e14: surviving mutants"

(* {1 E16 - persist + docsession: warm restarts and O(edit) sessions} *)

(* Two halves of the same claim — results keyed by content digest
   survive both a process restart and an edit. The restart half replays
   the Symboltable retrieve workload (the heaviest rewriting in the repo)
   into a store-backed session, then "restarts": a second session over
   the same directory must answer every query from disk, byte-identically
   modulo the steps= field (a persistent hit reports steps=0 by convention).
   The edit half opens a Queue document, re-labels it (nothing may be
   re-checked), then changes one FRONT axiom (exactly the FRONT cone may
   be re-checked). *)

type e16_report = {
  e16_cold_seconds : float;
  e16_warm_seconds : float;
  e16_hit_rate : float;
  e16_open_checked : int;
  e16_edit_checked : int;
  e16_edit_reused : int;
  e16_nf_identical : bool;
}

let e16_report : e16_report option ref = ref None

let e16_requests =
  let name = Spec.name Refinement.combined in
  List.concat_map
    (fun depth ->
      List.map
        (fun q -> Fmt.str "normalize %s %s" name (Term.to_string q))
        (e13_queries depth))
    [ 1; 2; 3; 4; 5 ]

(* a persistent hit answers steps=0 where the cold run reported real
   work; mask the field so the comparison is about normal forms *)
let e16_mask line =
  String.concat " "
    (List.map
       (fun w ->
         if String.length w >= 6 && String.sub w 0 6 = "steps=" then "steps=_"
         else w)
       (String.split_on_char ' ' line))

let e16_replay session =
  List.map
    (fun line ->
      match Engine.Dispatch.handle_line session line with
      | Engine.Dispatch.Reply r -> e16_mask r
      | Engine.Dispatch.Silent | Engine.Dispatch.Closed -> "")
    e16_requests

let e16_queue_source axiom4 =
  Fmt.str
    {|spec Item
  sort Item
  ops
    ITEM1 : -> Item
    ITEM2 : -> Item
    ITEM3 : -> Item
  constructors ITEM1 ITEM2 ITEM3
end

spec Queue
  uses Item
  sort Queue
  ops
    NEW : -> Queue
    ADD : Queue Item -> Queue
    FRONT : Queue -> Item
    REMOVE : Queue -> Queue
    IS_EMPTY? : Queue -> Bool
  constructors NEW ADD
  vars
    q : Queue
    i : Item
  axioms
    [1] IS_EMPTY?(NEW) = true
    [2] IS_EMPTY?(ADD(q, i)) = false
    [3] FRONT(NEW) = error
    [4] %s
    [5] REMOVE(NEW) = error
    [6] REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW else ADD(REMOVE(q), i)
end|}
    axiom4

let e16 () =
  Fmt.pr "@.=== E16: on-disk store warm restart + O(edit) sessions ===@.";
  Fmt.pr
    "(cold = compute the Symboltable retrieve workload and record it; warm \
     = a fresh session@.";
  Fmt.pr
    " over the same cache directory, every normal form answered from disk; \
     then a@.";
  Fmt.pr
    " document session where a one-axiom edit re-checks only its \
     invalidation cone)@.";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "adtc-bench-e16-%d" (Unix.getpid ()))
  in
  let rm_dir () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  rm_dir ();
  Fun.protect ~finally:rm_dir @@ fun () ->
  (* cold process: compute, record, flush, exit *)
  let store1 = Persist.Store.open_ dir in
  let cold = Engine.Session.create ~store:store1 [ Refinement.combined ] in
  let cold_replies, cold_seconds = seconds (fun () -> e16_replay cold) in
  Engine.Session.persist_flush cold;
  Persist.Store.close store1;
  (* warm process: same directory, nothing computed yet *)
  let store2 = Persist.Store.open_ dir in
  let warm = Engine.Session.create ~store:store2 [ Refinement.combined ] in
  let warm_replies, warm_seconds = seconds (fun () -> e16_replay warm) in
  let hits, misses =
    match Engine.Session.persist_totals warm with
    | Some t -> (t.Engine.Session.hits, t.Engine.Session.misses)
    | None -> (0, 0)
  in
  Persist.Store.close store2;
  let hit_rate =
    if hits + misses = 0 then 0.
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let nf_identical = cold_replies = warm_replies in
  let n = List.length e16_requests in
  Fmt.pr "  %d requests: cold %.3fs, warm %.3fs (%.2fx), hit-rate %.0f%%@." n
    cold_seconds warm_seconds
    (if warm_seconds > 0. then cold_seconds /. warm_seconds else 0.)
    (100. *. hit_rate);
  Fmt.pr "  normal forms identical modulo steps=: %b@." nf_identical;
  json_rows :=
    !json_rows
    @ [
        ("e16/restart/cold", cold_seconds *. 1e9 /. float_of_int n);
        ("e16/restart/warm", warm_seconds *. 1e9 /. float_of_int n);
      ];
  (* the session half *)
  let mgr = Docsession.Manager.create () in
  let doc_exn = function
    | Ok (doc : Docsession.Manager.doc) -> doc
    | Error e -> failwith (Fmt.str "e16 session: %s" e)
  in
  let base =
    e16_queue_source
      "FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)"
  in
  let relabelled =
    (* same equations, different labels: the empty cone *)
    String.concat ""
      (List.map
         (fun line ->
           String.concat "0]" (String.split_on_char ']' line) ^ "\n")
         (String.split_on_char '\n' base))
  in
  let edited = e16_queue_source "FRONT(ADD(q, i)) = i" in
  let v1 = doc_exn (Docsession.Manager.open_doc mgr ~name:"queue" ~source:base) in
  let edit source =
    doc_exn
      (Result.map_error snd (Docsession.Manager.edit mgr ~name:"queue" ~source))
  in
  let v2 = edit relabelled in
  let v3 = edit edited in
  let s1 = v1.Docsession.Manager.summary
  and s2 = v2.Docsession.Manager.summary
  and s3 = v3.Docsession.Manager.summary in
  Fmt.pr "  session-open: %d obligations checked@." s1.Docsession.Manager.checked;
  Fmt.pr "  relabel edit: %d checked, %d reused@." s2.Docsession.Manager.checked
    s2.Docsession.Manager.reused;
  Fmt.pr "  one-axiom edit: %d checked, %d reused (cone=%d of %d axioms)@."
    s3.Docsession.Manager.checked s3.Docsession.Manager.reused
    s3.Docsession.Manager.cone s3.Docsession.Manager.axioms;
  e16_report :=
    Some
      {
        e16_cold_seconds = cold_seconds;
        e16_warm_seconds = warm_seconds;
        e16_hit_rate = hit_rate;
        e16_open_checked = s1.Docsession.Manager.checked;
        e16_edit_checked = s3.Docsession.Manager.checked;
        e16_edit_reused = s3.Docsession.Manager.reused;
        e16_nf_identical = nf_identical;
      };
  (* the acceptance gates, enforced where CI can see them *)
  if not nf_identical then failwith "e16: warm normal forms differ from cold";
  if hit_rate < 0.9 then
    failwith (Fmt.str "e16: warm hit-rate %.2f below 0.9" hit_rate);
  if s2.Docsession.Manager.checked <> 0 then
    failwith "e16: a relabelling re-checked obligations";
  if s3.Docsession.Manager.checked >= s1.Docsession.Manager.checked then
    failwith "e16: a one-axiom edit did not re-check strictly fewer obligations"

(* the restart artifact: one object, for tracking across revisions *)
let write_e16 path =
  match !e16_report with
  | None -> ()
  | Some r ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Printf.fprintf oc
          "{\"cold_seconds\": %.6f, \"warm_seconds\": %.6f, \"hit_rate\": \
           %.4f,\n\
          \ \"open_checked\": %d, \"edit_checked\": %d, \"edit_reused\": %d,\n\
          \ \"nf_identical\": %b}\n"
          r.e16_cold_seconds r.e16_warm_seconds r.e16_hit_rate
          r.e16_open_checked r.e16_edit_checked r.e16_edit_reused
          r.e16_nf_identical);
    Fmt.pr "wrote the e16 restart report to %s@." path

(* {1 E17 - verification wall-clock: ADT020/021/022 per corpus spec} *)

(* One [Verify.summarize] per specification: the Maranget pattern
   matrices behind sufficient completeness, the greedy RPO precedence
   search behind termination, and the critical-pair joinability check
   behind confluence. `adtc check` and the ADT02x lint rules pay exactly
   this on every run, so the per-spec cost is the interactive latency
   floor for the decision passes. *)

let e17 () =
  Fmt.pr "@.=== E17: verification cost (completeness + termination + confluence) ===@.";
  Fmt.pr
    "(one Verify.summarize per specification = the Maranget matrix + the RPO@.";
  Fmt.pr
    " precedence search + critical-pair joinability; adtc check/lint pay this@.";
  Fmt.pr " on every run)@.";
  let specs = Corpus.all in
  let summaries = List.map Analysis.Verify.summarize specs in
  let verified = List.filter Analysis.Verify.verified summaries in
  Fmt.pr "  builtin library: %d specification(s), %d fully verified@."
    (List.length specs) (List.length verified);
  let reps = 25 in
  let rows =
    List.map
      (fun spec ->
        let (), elapsed =
          seconds (fun () ->
              for _ = 1 to reps do
                ignore (Analysis.Verify.summarize spec)
              done)
        in
        ( Fmt.str "e17/verify/%s" (String.lowercase_ascii (Spec.name spec)),
          elapsed *. 1e9 /. float_of_int reps ))
      specs
  in
  let (), library_elapsed =
    seconds (fun () ->
        for _ = 1 to reps do
          List.iter (fun s -> ignore (Analysis.Verify.summarize s)) specs
        done)
  in
  let rows =
    rows
    @ [ ("e17/verify/builtin-library", library_elapsed *. 1e9 /. float_of_int reps) ]
  in
  json_rows := !json_rows @ rows;
  List.iter
    (fun (name, ns) -> Fmt.pr "  %-46s %s/op@." name (pretty_ns ns))
    rows;
  (* the acceptance gate: the shipped library must decide clean *)
  if List.length verified <> List.length specs then
    failwith
      (Fmt.str "e17: %d corpus specification(s) failed verification"
         (List.length specs - List.length verified))

(* {1 E18 - rule matching: reference scan vs matching automaton} *)

(* The Symboltable refinement workload through the naive reference engine
   (a linear scan over every rule with structural equality) and through
   the matching automaton that serves every request. The direct rows
   isolate redex matching; the memo rows show how much of the remaining
   cost the normal-form cache hides (cold: matching still dominates;
   warm: a cache hit never reaches the matcher). *)

let e18 () =
  Fmt.pr "@.=== E18: rule matching (reference scan vs matching automaton) ===@.";
  Fmt.pr
    "(identical semantics — test/test_diff.ml is the proof; reference = \
     linear scan@.";
  Fmt.pr
    " with structural equality, automaton = compiled matching automaton \
     over interned terms)@.";
  let q3 = e13_queries 3 and q6 = e13_queries 6 in
  (* the comparison must not inherit heap fragmentation from the
     experiments before it *)
  Gc.compact ();
  let direct =
    [
      t "e18/reference/depth=3"
        (refinement_workload Rewrite.Reference.normalize q3);
      t "e18/automaton/depth=3" (refinement_workload Rewrite.normalize q3);
      t "e18/reference/depth=6"
        (refinement_workload Rewrite.Reference.normalize q6);
      t "e18/automaton/depth=6" (refinement_workload Rewrite.normalize q6);
    ]
  in
  (* the cold row is measured before the warm memo exists, and with GC
     stabilization, so it does not pay for the warm memo's live heap *)
  report_group ~stabilize:true
    "Symboltable refinement: retrieve through d nested blocks"
    (direct @ [ t "e18/automaton/memo-cold" (memo_workload None q6) ]);
  let warm = Rewrite.Memo.create () in
  ignore (memo_workload (Some warm) q6 ());
  report_group ~stabilize:true
    "Symboltable refinement workload (depth=6), warm memo"
    [ t "e18/automaton/memo-warm" (memo_workload (Some warm) q6) ];
  let find name = List.assoc_opt name !json_rows in
  List.iter
    (fun d ->
      match
        ( find (Fmt.str "e18/reference/depth=%d" d),
          find (Fmt.str "e18/automaton/depth=%d" d) )
      with
      | Some r, Some a when a > 0. ->
        Fmt.pr "  automaton speedup over reference (depth=%d): %.2fx@." d
          (r /. a)
      | _ -> ())
    [ 3; 6 ];
  Fmt.pr "  warm memo after run: hits=%d misses=%d entries=%d (id-keyed)@."
    (Rewrite.Memo.hits warm) (Rewrite.Memo.misses warm)
    (Rewrite.Memo.size warm)

let write_e18 path =
  let rows =
    List.filter
      (fun (name, _) -> String.equal (experiment_of name) "e18")
      !json_rows
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i (name, ns) ->
          Printf.fprintf oc
            "  {\"experiment\": \"e18\", \"name\": %s, \"ns_per_op\": %.2f}%s\n"
            (Analysis.Render.json_string name)
            (if Float.is_nan ns then -1. else ns)
            (if i = List.length rows - 1 then "" else ","))
        rows;
      output_string oc "]\n");
  Fmt.pr "wrote %d E18 results to %s@." (List.length rows) path

let () =
  Fmt.pr "Reproduction benches for Guttag, 'Abstract Data Types and the Development of Data Structures' (CACM 1977)@.";
  let json_path = ref None in
  let e16_path = ref None in
  let e18_path = ref None in
  let only = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--only" :: name :: rest ->
      only := Some (String.lowercase_ascii name);
      parse_args rest
    | "--only" :: [] -> failwith "--only requires an experiment name (e.g. e18)"
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse_args rest
    | "--json" :: [] -> failwith "--json requires a file argument"
    | "--e16" :: path :: rest ->
      e16_path := Some path;
      parse_args rest
    | "--e16" :: [] -> failwith "--e16 requires a file argument"
    | "--e18" :: path :: rest ->
      e18_path := Some path;
      parse_args rest
    | "--e18" :: [] -> failwith "--e18 requires a file argument"
    | arg :: _ -> failwith (Fmt.str "unknown argument %s" arg)
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  (* --only runs one experiment in an otherwise pristine process: the
     rule-matching comparison (E18) in particular is sensitive to the live
     heaps the other experiments' module-level workloads leave behind *)
  let experiments =
    [
      ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
      ("e7", e7); ("e8", e8); ("e9", e9); ("e11", e11);
      ("e12", e12); ("e14", e14); ("e16", e16);
      ("e17", e17); ("e18", e18);
    ]
  in
  (match !only with
  | None -> List.iter (fun (_, run) -> run ()) experiments
  | Some name -> (
    match List.assoc_opt name experiments with
    | Some run -> run ()
    | None -> failwith (Fmt.str "--only %s: no such experiment" name)));
  Option.iter write_json !json_path;
  Option.iter write_e16 !e16_path;
  Option.iter write_e18 !e18_path;
  Fmt.pr "@.done.@."
