(* adtc — command-line front end for the algebraic specification toolkit.

   Subcommands:
     check       parse a .adt file and print one verification verdict
                 per specification (completeness / termination /
                 confluence) with the findings behind it
     lint        run every ADTxxx lint rule; text, JSON-lines or SARIF
     testgen     run a spec's generated conformance suite against a
                 registered OCaml implementation (or the mutation corpus)
     skeletons   print the missing-axiom prompts (the paper's interactive
                 system)
     normalize   evaluate a term symbolically against a specification
     complete    run Knuth-Bendix completion on a specification
     compile     check a block-language program on a chosen symbol-table
                 backend
     run         compile and execute a block-language program
     verify-symboltable
                 replay the paper's representation-correctness proof
     serve       long-lived evaluation engine over stdio or a Unix socket
     batch       replay an engine request script deterministically
     trace       run one engine request and print its JSON span tree
     stats       engine metrics as a stats line or Prometheus exposition *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_library paths =
  List.fold_left
    (fun lib path ->
      match Adt.Library.load_source lib (read_file path) with
      | Ok lib -> lib
      | Error e ->
        Fmt.epr "%s:%a@." path Adt.Parser.pp_error e;
        exit 2)
    Adt.Library.builtin paths

let load_specs ?(lib = Adt.Library.builtin) path =
  let source = read_file path in
  match Adt.Parser.parse_specs ~env:(Adt.Library.to_env lib) source with
  | Ok [] ->
    Fmt.epr "%s: no specification found@." path;
    exit 2
  | Ok specs -> specs
  | Error e ->
    Fmt.epr "%s:%a@." path Adt.Parser.pp_error e;
    exit 2

let last_spec ?lib path = List.rev (load_specs ?lib path) |> List.hd

open Cmdliner

let lib_arg =
  Arg.(
    value & opt_all file []
    & info [ "lib" ] ~docv:"FILE"
        ~doc:
          "Load the specifications of $(docv) first; the target file's \
           $(b,uses) clauses may refer to them. Repeatable.")

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Specification file (.adt).")

let fuel_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N" ~doc:"Rewrite-step budget for this run.")

(* exit-code contract shared by check, lint and testgen, documented in
   their man pages: 0 clean, 1 findings, 2 parse error, plus cmdliner's
   defaults (124 command-line error, 125 internal error) *)
let analysis_exits =
  [
    Cmd.Exit.info 0
      ~doc:
        "on a clean result: sufficiently complete and consistent (check), \
         free of findings at or above the failure threshold (lint), every \
         suite passed — or, with $(b,--mutants), every mutant was killed \
         (testgen).";
    Cmd.Exit.info 1
      ~doc:
        "when findings were reported: check/lint findings, a failed \
         conformance suite, or a surviving mutant.";
    Cmd.Exit.info 2 ~doc:"on a parse error in a specification file.";
    Cmd.Exit.info Cmd.Exit.cli_error ~doc:"on command-line parsing errors.";
    Cmd.Exit.info Cmd.Exit.internal_error
      ~doc:"on unexpected internal errors (bugs).";
  ]

let check_cmd =
  let run libs file =
    let specs = load_specs ~lib:(load_library libs) file in
    let failures =
      List.fold_left
        (fun failures spec ->
          Fmt.pr "=== %s ===@." (Adt.Spec.name spec);
          (* one summary decides completeness, termination, confluence
             and consistency; the findings below name each defect its
             verdict line only counts (a full lint run is `adtc lint`) *)
          let open Analysis in
          let s = Verify.summarize spec in
          Fmt.pr "%a@." Verify.pp_summary s;
          let findings =
            Lint.static spec
            @ Verify.adt020 spec s.Verify.s_holes
            @ Verify.adt021 s.Verify.s_analysis
            @ Verify.adt022 s.Verify.s_analysis
          in
          List.iter (fun d -> Fmt.pr "%s@." (Diagnostic.to_line d)) findings;
          let ok =
            s.Verify.s_holes = [] && s.Verify.s_consistent
            && not
                 (List.exists
                    (fun d -> d.Diagnostic.severity = Diagnostic.Error)
                    findings)
          in
          Fmt.pr "@.";
          if ok then failures else failures + 1)
        0 specs
    in
    if failures > 0 then 1 else 0
  in
  let doc =
    "Check sufficient-completeness and consistency of specifications: one \
     verification verdict per specification (pattern-matrix completeness, \
     RPO termination, critical-pair confluence), followed by the static \
     ADTxxx lint rules and the ADT020-ADT022 findings of that verdict; an \
     incomplete or inconsistent specification, or an error-severity \
     finding, fails the check."
  in
  Cmd.v
    (Cmd.info "check" ~doc ~exits:analysis_exits)
    Term.(const run $ lib_arg $ file_arg)

let lint_cmd =
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Lint every specification of the builtin library (the paper's \
             corpus) instead of files.")
  in
  let files_arg =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Specification files (.adt) to lint.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,text) (one human-readable line per finding \
             plus a summary), $(b,json) (one JSON object per finding per \
             line), or $(b,sarif) (a SARIF 2.1.0 log).")
  in
  let deny_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("error", Analysis.Diagnostic.Error);
               ("warning", Analysis.Diagnostic.Warning);
               ("info", Analysis.Diagnostic.Info);
             ])
          Analysis.Diagnostic.Error
      & info [ "deny" ] ~docv:"SEVERITY"
          ~doc:
            "Fail (exit 1) when a finding of at least this severity is \
             reported; $(b,error) by default, so warnings are advisory \
             unless $(b,--deny warning) is given.")
  in
  let rule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rule" ] ~docv:"CODE[,CODE]"
          ~doc:
            "Run only these comma-separated rule codes (e.g. \
             $(b,ADT001,ADT010)); all rules by default.")
  in
  let run libs all files format deny rules fuel =
    let only = Option.map (String.split_on_char ',') rules in
    let bad_codes =
      match only with
      | None -> []
      | Some codes ->
        List.filter
          (fun c -> not (List.mem c Analysis.Diagnostic.codes))
          codes
    in
    if bad_codes <> [] then begin
      Fmt.epr "adtc lint: unknown rule code%s %s (published: %s)@."
        (if List.length bad_codes > 1 then "s" else "")
        (String.concat ", " bad_codes)
        (String.concat ", " Analysis.Diagnostic.codes);
      Cmd.Exit.cli_error
    end
    else if (not all) && files = [] then begin
      Fmt.epr "adtc lint: expected --all or at least one FILE@.";
      Cmd.Exit.cli_error
    end
    else begin
      let config = { Analysis.Lint.only; fuel } in
      let groups =
        if all then
          List.map
            (fun spec ->
              ( "builtin/" ^ Adt.Spec.name spec,
                Analysis.Lint.run ~config spec ))
            Adt_specs.Corpus.all
        else
          let lib = load_library libs in
          List.concat_map
            (fun file ->
              List.map
                (fun spec -> (file, Analysis.Lint.run ~config spec))
                (load_specs ~lib file))
            files
      in
      (match format with
      | `Text -> print_endline (Analysis.Render.text groups)
      | `Json ->
        let body = Analysis.Render.json_lines groups in
        if not (String.equal body "") then print_endline body
      | `Sarif -> print_endline (Analysis.Render.sarif groups));
      let failing =
        List.exists
          (fun (_, diags) ->
            List.exists
              (fun d ->
                Analysis.Diagnostic.severity_at_least
                  d.Analysis.Diagnostic.severity ~threshold:deny)
              diags)
          groups
      in
      if failing then 1 else 0
    end
  in
  let doc =
    "Run every ADTxxx lint rule over specifications: the sufficient-\
     completeness and critical-pair analyses (ADT001, ADT002), the static \
     rules (non-left-linear axioms, free right-hand-side variables, dead \
     axioms, unreachable sorts, error-matching axioms), and the \
     verification passes (ADT020 pattern-matrix completeness, ADT021 RPO \
     termination, ADT022 critical-pair confluence)."
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~exits:analysis_exits)
    Term.(
      const run $ lib_arg $ all_flag $ files_arg $ format_arg $ deny_arg
      $ rule_arg $ fuel_opt)

let testgen_cmd =
  let spec_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SPEC"
          ~doc:
            "Specification whose suite to run (e.g. $(b,Queue)); required \
             unless $(b,--all) or $(b,--list) is given.")
  in
  let impl_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "impl" ] ~docv:"NAME"
          ~doc:
            "Registered implementation to test; the specification's first \
             clean implementation by default. $(b,--list) shows the \
             registry.")
  in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Run the suites of every registered implementation.")
  in
  let mutants_flag =
    Arg.(
      value & flag
      & info [ "mutants" ]
          ~doc:
            "Select the mutation corpus (seeded-bug variants) instead of \
             the clean implementations: the run succeeds only when every \
             selected mutant is $(i,killed) by its suite.")
  in
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the implementation registry and exit.")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Random trials per axiom.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Base random seed. Trial $(i,i) of every axiom derives its \
             state from $(docv)+$(i,i), so replaying a reported failure \
             seed regenerates the identical counterexample as trial 0. \
             Self-initialized (and printed) when absent.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"One JSON object per implementation report.")
  in
  let report_json r =
    let open Testgen.Harness in
    let str = Analysis.Render.json_string in
    let witness_json = function
      | Denotation { lhs; rhs } ->
        Fmt.str "{\"kind\":\"denotation\",\"lhs\":%s,\"rhs\":%s}"
          (str (Adt.Term.to_string lhs))
          (str (Adt.Term.to_string rhs))
      | Observation { context; lhs; rhs } ->
        Fmt.str
          "{\"kind\":\"observation\",\"context\":%s,\"lhs\":%s,\"rhs\":%s}"
          (str (Adt.Term.to_string context))
          (str (Adt.Term.to_string lhs))
          (str (Adt.Term.to_string rhs))
      | Crash { message } ->
        Fmt.str "{\"kind\":\"crash\",\"message\":%s}" (str message)
    in
    let axiom_json ar =
      let failure =
        match ar.failure with
        | None -> "null"
        | Some f ->
          Fmt.str
            "{\"seed\":%d,\"shrunk\":%b,\"valuation\":%s,\"witness\":%s}"
            f.fail_seed f.shrunk
            (str
               (String.concat "; "
                  (List.map
                     (fun (x, t) ->
                       Fmt.str "%s -> %s" x (Adt.Term.to_string t))
                     (Adt.Subst.bindings f.valuation))))
            (witness_json f.witness)
      in
      Fmt.str
        "{\"axiom\":%s,\"trials\":%d,\"discards\":%d,\"failure\":%s}"
        (str (Adt.Axiom.name ar.axiom))
        ar.trials ar.discards failure
    in
    Fmt.str
      "{\"spec\":%s,\"impl\":%s,\"mutant_of\":%s,\"seed\":%d,\"count\":%d,\
       \"gen_size\":%d,\"passed\":%b,\"axioms\":[%s]}"
      (str r.spec_name) (str r.impl_name)
      (match r.mutant_of with None -> "null" | Some c -> str c)
      r.seed r.count r.gen_size (passed r)
      (String.concat "," (List.map axiom_json r.axiom_reports))
  in
  let run spec impl all mutants list count seed json =
    let registry_line e =
      Fmt.str "%-14s %-22s %s" (Testgen.Impl.spec_name e) (Testgen.Impl.name e)
        (match Testgen.Impl.mutant_of e with
        | None -> "clean"
        | Some c -> "mutant of " ^ c)
    in
    if list then begin
      List.iter
        (fun e -> print_endline (registry_line e))
        (Testgen.Registry.clean @ Testgen.Registry.mutants);
      0
    end
    else
      let selection =
        match (spec, impl, all) with
        | None, _, false ->
          Fmt.epr "adtc testgen: expected a SPEC name, --all or --list@.";
          Error Cmd.Exit.cli_error
        | Some _, Some _, true ->
          Fmt.epr "adtc testgen: --all conflicts with --impl@.";
          Error Cmd.Exit.cli_error
        | None, _, true | Some _, None, true ->
          Ok (if mutants then Testgen.Registry.mutants else Testgen.Registry.clean)
        | Some s, None, false when mutants -> (
          match Testgen.Registry.for_spec ~mutants s with
          | [] ->
            Fmt.epr
              "adtc testgen: no mutant implementation is registered for %s \
               (have: %s)@."
              s
              (String.concat ", " (Testgen.Registry.spec_names ()));
            Error Cmd.Exit.cli_error
          | entries -> Ok entries)
        | Some s, impl, false -> (
          (* one implementation, resolved as the testgen verb does *)
          match Testgen.Registry.resolve ~spec:s ~impl with
          | Ok e -> Ok [ e ]
          | Error (`Unknown_spec message | `Unknown_impl message) ->
            Fmt.epr "adtc testgen: %s@." message;
            Error Cmd.Exit.cli_error)
      in
      match selection with
      | Error code -> code
      | Ok entries ->
        let seed =
          match seed with
          | Some s -> s
          | None ->
            Random.self_init ();
            let s = Random.bits () in
            if not json then
              Fmt.pr "(seed %d; pass --seed %d to reproduce this run)@." s s;
            s
        in
        let failed =
          List.fold_left
            (fun failed entry ->
              let report = Testgen.Harness.conformance ~count ~seed entry in
              if json then print_endline (report_json report)
              else Fmt.pr "%a@." Testgen.Harness.pp_report report;
              let expected =
                if Testgen.Impl.is_mutant entry then
                  Testgen.Harness.killed report
                else Testgen.Harness.passed report
              in
              if expected then failed else failed + 1)
            0 entries
        in
        if failed = 0 then 0 else 1
  in
  let doc =
    "Compile a specification's axioms into a conformance suite and run it \
     against a registered OCaml implementation: random well-sorted ground \
     terms instantiate each axiom, both sides are evaluated through the \
     implementation, and the results are compared observationally through \
     the specification's own operations (Gaudel-Le Gall style). Reported \
     failures carry a reproducing seed and a minimized counterexample; \
     with $(b,--mutants), success means every seeded-bug variant was \
     killed."
  in
  Cmd.v
    (Cmd.info "testgen" ~doc ~exits:analysis_exits)
    Term.(
      const run $ spec_arg $ impl_arg $ all_flag $ mutants_flag $ list_flag
      $ count_arg $ seed_arg $ json_flag)

let skeletons_cmd =
  let run libs file =
    let specs = load_specs ~lib:(load_library libs) file in
    List.iter
      (fun spec ->
        match Adt.Heuristics.prompts spec with
        | [] ->
          Fmt.pr "%s: no missing cases; the axiomatization is sufficiently complete.@."
            (Adt.Spec.name spec)
        | prompts ->
          Fmt.pr "=== %s: %d missing case(s) ===@." (Adt.Spec.name spec)
            (List.length prompts);
          List.iter (fun p -> Fmt.pr "%a@." Adt.Heuristics.pp_prompt p) prompts)
      specs;
    0
  in
  let doc = "Prompt for the axioms a sufficiently complete specification still needs." in
  Cmd.v (Cmd.info "skeletons" ~doc) Term.(const run $ lib_arg $ file_arg)

let term_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"TERM" ~doc:"Term to evaluate, in specification syntax.")

let trace_flag =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print every rewrite step.")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print rewrite statistics (steps, fuel, cache counters when \
           memoized) after the normal form.")

let memo_flag =
  Arg.(
    value & flag
    & info [ "memo" ]
        ~doc:"Normalize through a bounded LRU normal-form cache.")

let normalize_cmd =
  let run libs file term_src trace stats memo fuel =
    let spec = last_spec ~lib:(load_library libs) file in
    match Adt.Parser.parse_term spec term_src with
    | Error e ->
      Fmt.epr "term:%a@." Adt.Parser.pp_error e;
      2
    | Ok term -> (
      let interp = Adt.Interp.create ?fuel ~memo spec in
      let print_stats steps =
        Fmt.pr "steps: %d@." steps;
        Fmt.pr "fuel:  %d/%d used@." steps (Adt.Interp.fuel interp);
        match Adt.Interp.memo_stats interp with
        | None -> ()
        | Some s ->
          Fmt.pr "cache: hits=%d misses=%d entries=%d evictions=%d capacity=%d@."
            s.Adt.Interp.hits s.Adt.Interp.misses s.Adt.Interp.entries
            s.Adt.Interp.evictions s.Adt.Interp.capacity
      in
      try
        if trace then begin
          let steps = ref 0 in
          let nf, events =
            Adt.Interp.trace ~on_rule:(fun _ -> incr steps) interp term
          in
          List.iter (fun e -> Fmt.pr "%a@." Adt.Rewrite.pp_event e) events;
          Fmt.pr "normal form: %a@." Adt.Term.pp nf;
          if stats then print_stats !steps;
          0
        end
        else if Adt.Term.is_ground term then begin
          let value, steps = Adt.Interp.eval_count interp term in
          Fmt.pr "%a@." Adt.Interp.pp_value value;
          if stats then print_stats steps;
          (* running out of fuel is a failure however the term was given *)
          match value with Adt.Interp.Diverged -> 1 | _ -> 0
        end
        else begin
          Fmt.pr "%a@." Adt.Term.pp (Adt.Interp.reduce interp term);
          0
        end
      with Adt.Rewrite.Out_of_fuel partial ->
        Fmt.epr "diverged (out of fuel); last term: %a@." Adt.Term.pp partial;
        1)
  in
  let doc = "Evaluate a ground term symbolically (the paper's section-5 interpreter)." in
  Cmd.v
    (Cmd.info "normalize" ~doc)
    Term.(
      const run $ lib_arg $ file_arg $ term_arg $ trace_flag $ stats_flag
      $ memo_flag $ fuel_opt)

let complete_cmd =
  let run libs file =
    let spec = last_spec ~lib:(load_library libs) file in
    let outcome, stats = Adt.Completion.complete_spec spec in
    Fmt.pr "%a@.%a@." Adt.Completion.pp_outcome outcome Adt.Completion.pp_stats
      stats;
    match outcome with
    | Adt.Completion.Completed sys ->
      List.iter
        (fun r -> Fmt.pr "  %a@." Adt.Rewrite.pp_rule r)
        (Adt.Rewrite.rules sys);
      0
    | Adt.Completion.Failed _ -> 1
  in
  let doc = "Run Knuth-Bendix completion on a specification's axioms." in
  Cmd.v (Cmd.info "complete" ~doc) Term.(const run $ lib_arg $ file_arg)

let prove_cmd =
  let vars_arg =
    Arg.(
      value & opt_all string []
      & info [ "var" ] ~docv:"NAME:SORT"
          ~doc:"Declare a universally quantified variable, e.g. --var q:Queue.")
  in
  let lhs_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"LHS" ~doc:"Left-hand side of the goal.")
  in
  let rhs_arg =
    Arg.(
      required
      & pos 2 (some string) None
      & info [] ~docv:"RHS" ~doc:"Right-hand side of the goal.")
  in
  let run libs file vars lhs_src rhs_src =
    let spec = last_spec ~lib:(load_library libs) file in
    let parse_var entry =
      match String.index_opt entry ':' with
      | Some i ->
        let name = String.sub entry 0 i in
        let sort = String.sub entry (i + 1) (String.length entry - i - 1) in
        (name, Adt.Sort.v sort)
      | None ->
        Fmt.epr "--var expects NAME:SORT, got %s@." entry;
        exit 2
    in
    let vars = List.map parse_var vars in
    let parse what src =
      match Adt.Parser.parse_term spec ~vars src with
      | Ok t -> t
      | Error e ->
        Fmt.epr "%s:%a@." what Adt.Parser.pp_error e;
        exit 2
    in
    let lhs = parse "lhs" lhs_src in
    let rhs = parse "rhs" rhs_src in
    let cfg = Adt.Proof.config spec in
    match Adt.Proof.prove cfg (lhs, rhs) with
    | Adt.Proof.Proved p ->
      Fmt.pr "PROVED:@.%a@." Adt.Proof.pp_proof p;
      0
    | Adt.Proof.Unknown _ as outcome ->
      Fmt.pr "%a@." Adt.Proof.pp_outcome outcome;
      (* try to settle it the other way: a small counterexample search *)
      let universe = Adt.Enum.universe spec in
      (match Adt.Proof.disprove cfg ~universe ~size:6 (lhs, rhs) with
      | Some (sub, got, expected) ->
        Fmt.pr "REFUTED at %a:@.  left ~> %a, right ~> %a@." Adt.Subst.pp sub
          Adt.Term.pp got Adt.Term.pp expected
      | None -> Fmt.pr "(no small counterexample found either)@.");
      1
  in
  let doc =
    "Prove an equation from a specification (normalization, case analysis, \
     generator induction); on failure, search for a counterexample."
  in
  Cmd.v
    (Cmd.info "prove" ~doc)
    Term.(const run $ lib_arg $ file_arg $ vars_arg $ lhs_arg $ rhs_arg)

let backend_conv =
  Arg.conv
    ( (fun s ->
        match Blocklang.Driver.backend_of_string s with
        | Some b -> Ok b
        | None -> Error (`Msg (Fmt.str "unknown backend %s" s))),
      fun ppf b -> Fmt.string ppf (Blocklang.Driver.backend_name b) )

let backend_arg =
  Arg.(
    value
    & opt backend_conv Blocklang.Driver.Direct
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:"Symbol-table backend: direct, algebraic, or algebraic-knows.")

let program_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"PROGRAM" ~doc:"Block-language source file (.bl).")

let report_outcome outcome =
  Fmt.pr "%a@." Blocklang.Driver.pp_outcome outcome;
  match outcome with
  | Blocklang.Driver.Ran _ -> 0
  | Blocklang.Driver.Parse_error _ -> 2
  | Blocklang.Driver.Check_errors _ | Blocklang.Driver.Runtime_error _ -> 1

let compile_cmd =
  let run backend file =
    report_outcome (Blocklang.Driver.check_source backend (read_file file))
  in
  let doc = "Parse and check a block-language program." in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run $ backend_arg $ program_arg)

let run_cmd =
  let run backend file =
    report_outcome (Blocklang.Driver.run_source backend (read_file file))
  in
  let doc = "Check, compile, and execute a block-language program." in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ backend_arg $ program_arg)

let verify_cmd =
  let proofs_flag =
    Arg.(
      value & flag
      & info [ "proofs" ] ~doc:"Print the full proof tree of every axiom.")
  in
  let run proofs =
    let term, got, expected = Adt_specs.Refinement.assumption_violation () in
    Fmt.pr
      "Assumption 1 (ADD' never sees the bare NEWSTACK) is necessary:@.  %a ~> %a, but axiom 9 expects %a@.@."
      Adt.Term.pp term Adt.Term.pp got Adt.Term.pp expected;
    let ((_, details) as results) = Adt_specs.Refinement.verify () in
    Fmt.pr "%a@." Adt_specs.Refinement.pp_results results;
    if proofs then
      List.iter
        (fun r ->
          let lhs, rhs = r.Adt_specs.Refinement.goal in
          Fmt.pr "@.axiom %s: %a = %a@.%a@." r.Adt_specs.Refinement.axiom_name
            Adt.Term.pp lhs Adt.Term.pp rhs Adt.Proof.pp_outcome
            r.Adt_specs.Refinement.outcome)
        details;
    if Adt_specs.Refinement.all_proved results then 0 else 1
  in
  let doc =
    "Mechanically verify the stack-of-arrays representation of Symboltable \
     (the paper's section-4 proof)."
  in
  Cmd.v (Cmd.info "verify-symboltable" ~doc) Term.(const run $ proofs_flag)

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persistent on-disk result store: normal forms, check/lint \
           payloads and testgen verdicts are keyed by specification \
           content digest, loaded when the session starts (the warm \
           restart) and written back as the session runs. A second live \
           session on the same directory falls back to read-only.")

let cache_max_bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max-bytes" ] ~docv:"BYTES"
        ~doc:
          "Bound the cache directory: after each write, the oldest entry \
           files are deleted until the total size fits $(docv).")

let open_store ?max_bytes dir =
  match Persist.Store.open_ ?max_bytes dir with
  | store -> store
  | exception Failure message ->
    Fmt.epr "adtc: %s@." message;
    exit 2

let hash_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "One JSON object per specification, with the signature digest \
             and per-axiom equation digests.")
  in
  let run libs file json =
    let specs = load_specs ~lib:(load_library libs) file in
    let str = Analysis.Render.json_string in
    List.iter
      (fun spec ->
        if json then
          Fmt.pr "{\"spec\":%s,\"digest\":%s,\"signature\":%s,\"axioms\":[%s]}@."
            (str (Adt.Spec.name spec))
            (str (Adt.Spec_digest.spec spec))
            (str (Adt.Spec_digest.signature_digest spec))
            (String.concat ","
               (List.map
                  (fun (name, digest) ->
                    Fmt.str "{\"axiom\":%s,\"digest\":%s}" (str name)
                      (str digest))
                  (Adt.Spec_digest.axioms spec)))
        else Fmt.pr "%s  %s@." (Adt.Spec_digest.spec spec) (Adt.Spec.name spec))
      specs;
    0
  in
  let doc =
    "Print each specification's canonical content digest — the key the \
     persistent result store files entries under. The digest covers the \
     elaborated signature and axioms, so whitespace, comments and axiom \
     names (or an equivalent $(b,uses) refactoring) do not change it, \
     while any semantic edit does."
  in
  Cmd.v (Cmd.info "hash" ~doc) Term.(const run $ lib_arg $ file_arg $ json_flag)

let cache_cmd =
  let action_arg =
    Arg.(
      required
      & pos 0
          (some (enum [ ("stats", `Stats); ("gc", `Gc); ("clear", `Clear) ]))
          None
      & info [] ~docv:"ACTION"
          ~doc:
            "$(b,stats) reports entry count and bytes; $(b,gc) deletes \
             oldest entries until the store fits $(b,--cache-max-bytes); \
             $(b,clear) deletes every entry.")
  in
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"The store directory.")
  in
  let run action dir max_bytes =
    let store = open_store ?max_bytes dir in
    Fun.protect ~finally:(fun () -> Persist.Store.close store) @@ fun () ->
    match action with
    | `Stats ->
      let s = Persist.Store.stats store in
      Fmt.pr "dir=%s files=%d bytes=%d corrupt=%d mode=%s@."
        (Persist.Store.dir store) s.Persist.Store.files s.Persist.Store.bytes
        (Persist.Store.corrupt_count store)
        (match Persist.Store.mode store with
        | Persist.Store.Read_write -> "read-write"
        | Persist.Store.Read_only -> "read-only");
      0
    | `Gc -> (
      match max_bytes with
      | None ->
        Fmt.epr "adtc cache gc: --cache-max-bytes is required@.";
        Cmd.Exit.cli_error
      | Some _ ->
        let removed = Persist.Store.gc store in
        let s = Persist.Store.stats store in
        Fmt.pr "removed=%d files=%d bytes=%d@." removed s.Persist.Store.files
          s.Persist.Store.bytes;
        0)
    | `Clear ->
      let removed = Persist.Store.clear store in
      Fmt.pr "removed=%d@." removed;
      0
  in
  let doc =
    "Administer a persistent result store directory ($(b,--cache-dir)): \
     report its size, garbage-collect it down to a byte bound, or empty \
     it. Entries are self-validating, so deleting any of them is always \
     safe — the next session just recomputes."
  in
  Cmd.v
    (Cmd.info "cache" ~doc)
    Term.(const run $ action_arg $ dir_arg $ cache_max_bytes_arg)

let session_cmd =
  let edits_arg =
    Arg.(
      value & opt_all file []
      & info [ "edit" ] ~docv:"FILE"
          ~doc:
            "Apply $(docv)'s source as the next version of the document; \
             repeatable, applied in order.")
  in
  let obligations_flag =
    Arg.(
      value & flag
      & info [ "obligations" ]
          ~doc:"Print one verdict line per axiom obligation after each step.")
  in
  let run libs file edits obligations fuel =
    let lib = load_library libs in
    let env = Adt.Library.to_env lib in
    let mgr = Docsession.Manager.create ~env ?fuel () in
    let print_doc verb (doc : Docsession.Manager.doc) =
      Fmt.pr "%s@." (Docsession.Manager.summary_line verb doc);
      if obligations then
        List.iter
          (fun o -> Fmt.pr "  %s@." (Docsession.Manager.obligation_line o))
          doc.Docsession.Manager.obligations
    in
    let source = read_file file in
    match Adt.Parser.parse_spec ~env source with
    | Error e ->
      Fmt.epr "%s:%a@." file Adt.Parser.pp_error e;
      2
    | Ok spec -> (
      let name = Adt.Spec.name spec in
      match Docsession.Manager.open_doc mgr ~name ~source with
      | Error e ->
        Fmt.epr "adtc session: %s@." e;
        2
      | Ok doc ->
        print_doc "open" doc;
        let rec apply = function
          | [] -> 0
          | edit :: rest -> (
            match Docsession.Manager.edit mgr ~name ~source:(read_file edit) with
            | Error (_, e) ->
              Fmt.epr "adtc session (%s): %s@." edit e;
              1
            | Ok doc ->
              print_doc "edit" doc;
              apply rest)
        in
        apply edits)
  in
  let doc =
    "Replay a document session offline: open the specification, then apply \
     each $(b,--edit) in order, printing how much of the obligation set \
     each edit actually re-checked — the O(edit) incremental story of the \
     engine's $(b,session-open)/$(b,session-edit) verbs, without a server."
  in
  Cmd.v
    (Cmd.info "session" ~doc)
    Term.(
      const run $ lib_arg $ file_arg $ edits_arg $ obligations_flag $ fuel_opt)

(* {1 The evaluation engine: serve and batch} *)

let spec_files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "Specification files (.adt) to load into the engine's library. \
           Every specification of every file is served by name.")

let engine_fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Per-request rewrite-step ceiling (a request's own fuel=N option \
           may lower it, never raise it).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Per-request wall-clock budget; unlimited when absent.")

let cache_capacity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:
          "Capacity of each specification's shared LRU normal-form cache \
           and, with a cache directory, of its stored-payload table (least \
           recently used entries are evicted).")

let slowlog_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slowlog-ms" ] ~docv:"MS"
        ~doc:
          "Record requests at least $(docv) milliseconds slow into a \
           bounded ring log (query it with the $(b,slowlog) verb); also \
           switches request tracing on, so entries carry a span \
           breakdown. 0 records everything.")

let slowlog_capacity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "slowlog-capacity" ] ~docv:"N"
        ~doc:
          "Ring capacity of the slow-request log; the oldest entry is \
           overwritten first.")

let make_session ?tracing ?slowlog_ms ?slowlog_capacity ?cache_dir
    ?cache_max_bytes libs files ~fuel ~timeout ~cache_capacity =
  let lib = load_library (libs @ files) in
  let store =
    Option.map (fun dir -> open_store ?max_bytes:cache_max_bytes dir) cache_dir
  in
  Engine.Session.create ?fuel ?timeout ?cache_capacity ?slowlog_ms
    ?slowlog_capacity ?tracing ?store
    ~env:(Adt.Library.to_env lib)
    (Adt.Library.specs lib)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket instead of serving the \
             stdio pipe; each connection is served by its own thread and \
             all connections share one session (one cache, one set of \
             metrics).")
  in
  let max_clients_arg =
    Arg.(
      value
      & opt int Engine.Server.default_max_clients
      & info [ "max-clients" ] ~docv:"N"
          ~doc:
            "Maximum concurrent socket connections; a connection beyond \
             the cap is answered $(b,error busy) and closed (only \
             meaningful with $(b,--socket)).")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Size of the accept/worker domain pool (default: one per \
             core). Each domain runs its own accept loop and worker \
             threads; admission control and drain stay global (only \
             meaningful with $(b,--socket)).")
  in
  let run libs files fuel timeout cache_capacity slowlog_ms slowlog_capacity
      cache_dir cache_max_bytes socket max_clients domains =
    let session =
      make_session ?slowlog_ms ?slowlog_capacity ?cache_dir ?cache_max_bytes
        libs files ~fuel ~timeout ~cache_capacity
    in
    match socket with
    | Some path -> (
      let domains =
        Option.value ~default:(Domain.recommended_domain_count ()) domains
      in
      try
        Engine.Server.serve_socket ~max_clients ~domains session ~path;
        0
      with Failure message | Invalid_argument message ->
        Fmt.epr "adtc serve: %s@." message;
        2)
    | None ->
      Engine.Server.serve session stdin stdout;
      0
  in
  let doc =
    Fmt.str
      "Serve the engine's requests (%s) over a line-oriented protocol, \
       with a shared bounded normal-form cache, per-request limits, \
       optional tracing and slow-request logging ($(b,--slowlog-ms)), and \
       (over a socket) a domain pool ($(b,--domains), one per core by \
       default) each accepting and serving its own connections, graceful \
       SIGINT/SIGTERM drain, and busy backpressure beyond \
       $(b,--max-clients)."
      (String.concat ", " Engine.Protocol.kinds)
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ lib_arg $ spec_files_arg $ engine_fuel_arg $ timeout_arg
      $ cache_capacity_arg $ slowlog_ms_arg $ slowlog_capacity_arg
      $ cache_dir_arg $ cache_max_bytes_arg $ socket_arg $ max_clients_arg
      $ domains_arg)

let batch_cmd =
  let requests_arg =
    Arg.(
      value & opt string "-"
      & info [ "requests" ] ~docv:"FILE"
          ~doc:"Request script to replay; $(b,-) (the default) is stdin.")
  in
  let run libs files fuel timeout cache_capacity slowlog_ms slowlog_capacity
      cache_dir cache_max_bytes requests =
    let session =
      make_session ?slowlog_ms ?slowlog_capacity ?cache_dir ?cache_max_bytes
        libs files ~fuel ~timeout ~cache_capacity
    in
    let ic = if String.equal requests "-" then stdin else open_in requests in
    Fun.protect
      ~finally:(fun () -> if not (String.equal requests "-") then close_in_noerr ic)
      (fun () -> Engine.Server.serve ~echo:true session ic stdout);
    0
  in
  let doc =
    "Replay an engine request script deterministically, echoing each \
     request above its response (the expect-test front end of the engine)."
  in
  Cmd.v
    (Cmd.info "batch" ~doc)
    Term.(
      const run $ lib_arg $ spec_files_arg $ engine_fuel_arg $ timeout_arg
      $ cache_capacity_arg $ slowlog_ms_arg $ slowlog_capacity_arg
      $ cache_dir_arg $ cache_max_bytes_arg $ requests_arg)

let engine_trace_cmd =
  let request_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "request" ] ~docv:"LINE"
          ~doc:
            "The protocol request line to trace, e.g. $(b,normalize Queue \
             FRONT(ADDQ(NEWQ,A))).")
  in
  let run libs files fuel timeout cache_capacity request =
    let session =
      make_session ~tracing:true libs files ~fuel ~timeout ~cache_capacity
    in
    let outcome, result = Engine.Dispatch.handle_line_obs session request in
    match outcome with
    | Engine.Dispatch.Silent ->
      Fmt.epr "adtc trace: nothing to trace in a blank or comment line@.";
      2
    | Engine.Dispatch.Reply line | Engine.Dispatch.Closed line ->
      print_endline line;
      (match result with
      | Some r ->
        print_endline
          (Obs.Trace.result_to_json ~meta:[ ("request", request) ] r)
      | None -> ());
      0
  in
  let doc =
    "Trace one engine request: print its response line, then a JSON span \
     tree (parse/dispatch/rewrite/respond timings, per-rule rewrite-step \
     attribution). The tree's step total equals the fuel the request \
     charged."
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const run $ lib_arg $ spec_files_arg $ engine_fuel_arg $ timeout_arg
      $ cache_capacity_arg $ request_arg)

let engine_stats_cmd =
  let prometheus_flag =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Print the full Prometheus text exposition (counters, latency \
             and fuel histograms, cache gauges) instead of the one-line \
             stats payload.")
  in
  let requests_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "requests" ] ~docv:"FILE"
          ~doc:
            "Replay this request script first (responses discarded), so \
             the report covers real traffic rather than an idle session; \
             a $(b,quit) line ends the replay, as in $(b,adtc batch).")
  in
  let run libs files fuel timeout cache_capacity slowlog_ms slowlog_capacity
      cache_dir cache_max_bytes requests prometheus =
    let session =
      make_session ?slowlog_ms ?slowlog_capacity ?cache_dir ?cache_max_bytes
        libs files ~fuel ~timeout ~cache_capacity
    in
    (* the batch loop with its replies discarded; it also flushes the
       replay's results to the store, since stats is often the whole
       process *)
    Option.iter
      (fun path ->
        In_channel.with_open_text path (fun ic ->
            Out_channel.with_open_text Filename.null (fun oc ->
                Engine.Server.serve session ic oc)))
      requests;
    if prometheus then begin
      print_string (Engine.Session.prometheus session);
      0
    end
    else begin
      (* the stats verb never errors *)
      Option.iter print_endline
        (Engine.Protocol.payload
           (Engine.Dispatch.handle_request session
              (Engine.Protocol.Stats { verbose = false })));
      0
    end
  in
  let doc =
    "Report an engine session's metrics — optionally after replaying a \
     request script — as the stats payload or a Prometheus text \
     exposition ($(b,--prometheus))."
  in
  Cmd.v
    (Cmd.info "stats" ~doc)
    Term.(
      const run $ lib_arg $ spec_files_arg $ engine_fuel_arg $ timeout_arg
      $ cache_capacity_arg $ slowlog_ms_arg $ slowlog_capacity_arg
      $ cache_dir_arg $ cache_max_bytes_arg $ requests_arg $ prometheus_flag)

let main =
  let doc = "algebraic specification of abstract data types (Guttag, CACM 1977)" in
  Cmd.group
    (Cmd.info "adtc" ~version:"1.0.0" ~doc)
    [
      check_cmd;
      lint_cmd;
      testgen_cmd;
      skeletons_cmd;
      normalize_cmd;
      complete_cmd;
      prove_cmd;
      compile_cmd;
      run_cmd;
      verify_cmd;
      hash_cmd;
      cache_cmd;
      session_cmd;
      serve_cmd;
      batch_cmd;
      engine_trace_cmd;
      engine_stats_cmd;
    ]

let () = exit (Cmd.eval' main)
