open Adt

type config = { only : string list option; fuel : int option }

let default_config = { only = None; fuel = None }

(* ADT001: adapt the heuristic prompting system. Each prompt becomes one
   finding; the suggestion is the forced right-hand side when the
   heuristics found one, otherwise the [lhs = error] stub that
   {!Heuristics.stub_axioms} would generate. *)
let missing_cases spec holes =
  List.map
    (fun (p : Heuristics.prompt) ->
      let kind =
        match p.kind with
        | Heuristics.Boundary -> "boundary case"
        | Heuristics.General -> "general case"
      in
      let suggestion =
        match p.suggested_rhs with
        | Some rhs -> Fmt.str "add the axiom %a = %a" Term.pp p.missing_lhs Term.pp rhs
        | None -> Fmt.str "stub with %a = error and refine" Term.pp p.missing_lhs
      in
      Diagnostic.v ~code:"ADT001" ~severity:Diagnostic.Error
        ~spec:(Spec.name spec) ~op:(Op.name p.op) ~suggestion
        (Fmt.str "no axiom covers %s %a; %s" kind Term.pp p.missing_lhs
           p.question))
    (Heuristics.prompts ~holes spec)

(* the analysis pass-version, persisted into the engine's lint record kind:
   bumping it invalidates every cached lint verdict produced by an older
   pass set (counted as store misses, never served stale). Bump on any
   change to the rule set or to a rule's semantics. Version 2 added the
   verification passes ADT020-ADT022; version 3 derived ADT001 from the
   ADT020 hole list; version 4 decided the check verb's [consistent=] and
   ADT002's error severity from one ground-only value predicate
   ([Consistency.inconsistencies]) inside one [Verify.summarize]. *)
let pass_version = 4

let static_codes = [ "ADT010"; "ADT011"; "ADT012"; "ADT013"; "ADT014" ]

let pass_of_code = function
  | "ADT010" -> Left_linear.check
  | "ADT011" -> Free_rhs.check
  | "ADT012" -> Dead_axiom.check
  | "ADT013" -> Reachability.check
  | "ADT014" -> Strict_error.check
  | code -> invalid_arg (Fmt.str "Lint.pass_of_code: %s" code)

let run ?(config = default_config) spec =
  let wanted code =
    match config.only with
    | None -> true
    | Some codes ->
      List.iter
        (fun c ->
          if not (List.mem c Diagnostic.codes) then
            invalid_arg (Fmt.str "Lint.run: unknown rule code %s" c))
        codes;
      List.mem code codes
  in
  (* ADT002, ADT021 and ADT022 all consume the same critical-pair and
     precedence-search analysis, computed once per run — the rules cannot
     disagree about which pairs exist, whether they join, or whether the
     system terminates *)
  let analysis = lazy (Verify.analyze ?fuel:config.fuel spec) in
  (* likewise ADT001 and ADT020 read one hole list *)
  let holes = lazy (Completeness.holes spec) in
  List.concat_map
    (fun (r : Diagnostic.rule_info) ->
      if not (wanted r.Diagnostic.rule_code) then []
      else
        match r.Diagnostic.rule_code with
        | "ADT001" -> missing_cases spec (Lazy.force holes)
        | "ADT002" -> Verify.adt002 (Lazy.force analysis)
        | "ADT020" -> Verify.adt020 spec (Lazy.force holes)
        | "ADT021" -> Verify.adt021 (Lazy.force analysis)
        | "ADT022" -> Verify.adt022 (Lazy.force analysis)
        | code -> pass_of_code code spec)
    Diagnostic.rules

let static spec = run ~config:{ only = Some static_codes; fuel = None } spec

let counts_by_rule diags =
  List.map
    (fun code ->
      ( code,
        List.length (List.filter (fun d -> String.equal d.Diagnostic.code code) diags)
      ))
    Diagnostic.codes

let max_severity diags =
  List.fold_left
    (fun acc d ->
      match acc with
      | None -> Some d.Diagnostic.severity
      | Some s ->
        if Diagnostic.severity_at_least d.Diagnostic.severity ~threshold:s then
          Some d.Diagnostic.severity
        else acc)
    None diags
