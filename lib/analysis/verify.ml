open Adt

(* {1 Termination + confluence analysis (ADT021/ADT022, shared with ADT002)} *)

type status =
  | Confluent_newman
  | Confluent_orthogonal
  | Locally_confluent_only
  | Not_locally_confluent
  | Undecided

type analysis = {
  a_spec : Spec.t;
  report : Consistency.report;
  search : Ordering.search_result;
  status : status;
}

let analyze ?fuel spec =
  let report = Consistency.check ?fuel spec in
  let search = Ordering.search spec in
  let diverging =
    List.exists
      (fun (_, v) -> match v with Consistency.Diverges _ -> true | _ -> false)
      report
  in
  let timed_out =
    List.exists
      (fun (_, v) -> match v with Consistency.Timeout -> true | _ -> false)
      report
  in
  let left_linear =
    List.for_all Axiom.is_left_linear
      (List.filter Axiom.is_executable (Spec.axioms spec))
  in
  let status =
    if diverging then Not_locally_confluent
    else if timed_out then Undecided
    else if Ordering.oriented search then Confluent_newman
    else if left_linear && report = [] then
      Confluent_orthogonal
    else Locally_confluent_only
  in
  { a_spec = spec; report; search; status }

(* {1 Findings} *)

let adt020 spec holes =
  List.map
    (fun (h : Completeness.hole) ->
      let op = Op.name h.op and witness = Term.to_string h.witness in
      if h.decided then
        Diagnostic.v ~code:"ADT020" ~severity:Diagnostic.Error
          ~spec:(Spec.name spec) ~op
          ~suggestion:(Fmt.str "add an axiom with left-hand side %s" witness)
          (Fmt.str
             "the ground constructor context %s is matched by no executable \
              axiom: the specification is not sufficiently complete"
             witness)
      else
        Diagnostic.v ~code:"ADT020" ~severity:Diagnostic.Warning
          ~spec:(Spec.name spec) ~op
          ~suggestion:"replace the non-left-linear axioms by linear case splits"
          (Fmt.str
             "the pattern matrix leaves %s uncovered, but non-left-linear \
              axioms keep the verdict open (no ground counterexample up to \
              size 4)"
             witness))
    holes

let adt021 a =
  let spec_name = Spec.name a.a_spec in
  List.map
    (fun ax ->
      Diagnostic.v ~code:"ADT021" ~severity:Diagnostic.Error ~spec:spec_name
        ~op:(Op.name (Axiom.head ax))
        ~axiom:(Axiom.name ax)
        ~suggestion:
          "make the right-hand side smaller in the path order, or split the \
           equation into oriented rules"
        (Fmt.str
           "no recursive path ordering orients %s = %s (greedy precedence \
            search exhausted); termination of the rewrite system is unproven"
           (Term.to_string (Axiom.lhs ax))
           (Term.to_string (Axiom.rhs ax))))
    a.search.Ordering.unoriented

let op_of_peak t =
  match Term.view t with Term.App (op, _) -> Some (Op.name op) | _ -> None

let adt022 a =
  let spec_name = Spec.name a.a_spec in
  let pairs = a.report in
  let divergent =
    List.filter_map
      (fun ((cp : Consistency.cp), v) ->
        match v with
        | Consistency.Diverges (l, r) -> Some (cp, l, r)
        | _ -> None)
      pairs
  in
  match a.status with
  | Confluent_newman | Confluent_orthogonal -> []
  | Not_locally_confluent ->
    let (cp : Consistency.cp), l, r = List.hd divergent in
    [
      Diagnostic.v ~code:"ADT022" ~severity:Diagnostic.Error ~spec:spec_name
        ?op:(op_of_peak cp.Consistency.peak)
        ~axiom:cp.Consistency.rule1
        ~suggestion:"add axioms joining the divergent normal forms"
        (Fmt.str
           "not locally confluent: the critical pair of [%s] and [%s] at \
            peak %s rewrites to %s and %s (%d divergent pair(s) in all), so \
            the system is not confluent"
           cp.Consistency.rule1 cp.Consistency.rule2
           (Term.to_string cp.Consistency.peak) (Term.to_string l)
           (Term.to_string r) (List.length divergent));
    ]
  | Undecided ->
    [
      Diagnostic.v ~code:"ADT022" ~severity:Diagnostic.Info ~spec:spec_name
        ~suggestion:"re-run with a larger fuel budget"
        (Fmt.str
           "joinability of %d critical pair(s) was not decided within the \
            fuel budget; confluence is not established"
           (List.length
              (List.filter
                 (fun (_, v) -> match v with Consistency.Timeout -> true | _ -> false)
                 pairs)));
    ]
  | Locally_confluent_only ->
    [
      Diagnostic.v ~code:"ADT022" ~severity:Diagnostic.Info ~spec:spec_name
        ~suggestion:
          "prove termination (see ADT021) to conclude confluence by Newman's \
           lemma"
        (Fmt.str
           "locally confluent only: all %d critical pair(s) join, but \
            termination is unproven, so Newman's lemma does not apply"
           (List.length pairs));
    ]

(* ADT002, the historical per-pair rule, fed from the same analysis so the
   two codes cannot disagree. A pair of [Consistency.inconsistencies]
   (distinct value normal forms) proves inconsistency (error); other
   divergence is a warning; a joinability-search timeout is
   informational. *)
let adt002 a =
  let spec = a.a_spec in
  let inconsistent = Consistency.inconsistencies spec a.report in
  List.filter_map
    (fun ((cp : Consistency.cp), verdict) ->
      let mk severity message suggestion =
        Some
          (Diagnostic.v ~code:"ADT002" ~severity ~spec:(Spec.name spec)
             ?op:(op_of_peak cp.Consistency.peak)
             ~axiom:cp.Consistency.rule1 ~suggestion message)
      in
      match verdict with
      | Consistency.Joinable _ -> None
      | Consistency.Diverges (l, r)
        when List.exists (fun (c, _, _) -> c == cp) inconsistent ->
        mk Diagnostic.Error
          (Fmt.str
             "axioms [%s] and [%s] rewrite %s to distinct values %s and %s: \
              the axiomatisation is inconsistent"
             cp.Consistency.rule1 cp.Consistency.rule2
             (Term.to_string cp.Consistency.peak) (Term.to_string l)
             (Term.to_string r))
          (Fmt.str "reconcile the overlapping axioms [%s] and [%s]"
             cp.Consistency.rule1 cp.Consistency.rule2)
      | Consistency.Diverges (l, r) ->
        mk Diagnostic.Warning
          (Fmt.str
             "axioms [%s] and [%s] rewrite %s to distinct normal forms %s \
              and %s; local confluence fails"
             cp.Consistency.rule1 cp.Consistency.rule2
             (Term.to_string cp.Consistency.peak) (Term.to_string l)
             (Term.to_string r))
          (Fmt.str "add an axiom joining %s and %s" (Term.to_string l)
             (Term.to_string r))
      | Consistency.Timeout ->
        mk Diagnostic.Info
          (Fmt.str
             "joinability of the critical pair of [%s] and [%s] at %s was \
              not decided within the fuel budget"
             cp.Consistency.rule1 cp.Consistency.rule2
             (Term.to_string cp.Consistency.peak))
          "re-run with a larger fuel budget")
    a.report

(* {1 The check summary} *)

type summary = {
  s_analysis : analysis;
  s_holes : Completeness.hole list;
  s_missing : int;
  s_consistent : bool;
}

let summarize ?fuel spec =
  let a = analyze ?fuel spec in
  let holes = Completeness.holes spec in
  {
    s_analysis = a;
    s_holes = holes;
    s_missing = List.length (Heuristics.prompts ~holes spec);
    s_consistent = Consistency.is_consistent spec a.report;
  }

let critical_pairs s = List.length s.s_analysis.report

(* [Confluent_newman] is the one status reached with a termination
   certificate *)
let verified s = s.s_holes = [] && s.s_analysis.status = Confluent_newman

let pp_summary ppf s =
  let a = s.s_analysis in
  let completeness ppf () =
    match s.s_holes with
    | [] -> Fmt.string ppf "sufficiently complete"
    | holes ->
      if List.for_all (fun (h : Completeness.hole) -> not h.decided) holes
      then
        Fmt.pf ppf "completeness undecided (%d open context(s))"
          (List.length holes)
      else
        Fmt.pf ppf "NOT sufficiently complete (%d uncovered context(s))"
          (List.length holes)
  in
  let termination ppf () =
    match a.search.Ordering.unoriented with
    | [] -> Fmt.string ppf "terminating (recursive path ordering)"
    | axs ->
      Fmt.pf ppf "termination unproven (%d non-orientable axiom(s))"
        (List.length axs)
  in
  let confluence ppf () =
    match a.status with
    | Confluent_newman ->
      if critical_pairs s = 0 then
        Fmt.string ppf "confluent (no critical pairs; terminating)"
      else
        Fmt.pf ppf "confluent (Newman: %d critical pair(s) joinable, \
                    terminating)"
          (critical_pairs s)
    | Confluent_orthogonal ->
      Fmt.string ppf "confluent (orthogonal: left-linear, no critical pairs)"
    | Locally_confluent_only ->
      Fmt.string ppf "locally confluent only (termination unproven)"
    | Not_locally_confluent -> Fmt.string ppf "NOT locally confluent"
    | Undecided -> Fmt.string ppf "confluence undecided (joinability timeout)"
  in
  Fmt.pf ppf "verify %s: %a; %a; %a" (Spec.name a.a_spec) completeness ()
    termination () confluence ()
