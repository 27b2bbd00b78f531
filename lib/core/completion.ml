type failure =
  | Unorientable of Term.t * Term.t
  | Inconsistent of Term.t * Term.t
  | Bound_exceeded

type outcome = Completed of Rewrite.system | Failed of failure

type stats = {
  iterations : int;
  rules_added : int;
  pairs_considered : int;
}

let complete ?(max_rules = 256) ?(fuel = 50_000) ~precedence ~is_value axioms =
  let iterations = ref 0 and added = ref 0 and considered = ref 0 in
  let stats () =
    {
      iterations = !iterations;
      rules_added = !added;
      pairs_considered = !considered;
    }
  in
  let exception Stop of failure in
  let normalize sys t =
    match Rewrite.normalize_opt ~fuel sys t with
    | Some t' -> t'
    | None -> raise (Stop Bound_exceeded)
  in
  try
    let queue =
      Queue.of_seq
        (List.to_seq (List.map (fun ax -> (Axiom.lhs ax, Axiom.rhs ax)) axioms))
    in
    let sys = ref (Rewrite.of_rules []) in
    while not (Queue.is_empty queue) do
      incr iterations;
      if !iterations > 10_000 then raise (Stop Bound_exceeded);
      let a, b = Queue.pop queue in
      let a = normalize !sys a and b = normalize !sys b in
      if not (Term.equal a b) then begin
        if is_value a && is_value b then raise (Stop (Inconsistent (a, b)));
        match Ordering.orient precedence (a, b) with
        | Error _ -> raise (Stop (Unorientable (a, b)))
        | Ok (l, r) ->
          let new_rule = Rewrite.rule ~name:(Fmt.str "kb-%d" !added) ~lhs:l ~rhs:r () in
          incr added;
          if !added > max_rules then raise (Stop Bound_exceeded);
          let next = Rewrite.add_rules [ new_rule ] !sys in
          (* critical pairs of the new rule against the whole system *)
          let cps = Consistency.critical_pairs (Rewrite.rules next) in
          let fresh_cps =
            List.filter
              (fun cp ->
                String.equal cp.Consistency.rule1 new_rule.Rewrite.rule_name
                || String.equal cp.Consistency.rule2 new_rule.Rewrite.rule_name)
              cps
          in
          List.iter
            (fun cp ->
              incr considered;
              Queue.push (cp.Consistency.left, cp.Consistency.right) queue)
            fresh_cps;
          sys := next
      end
    done;
    (Completed !sys, stats ())
  with Stop failure -> (Failed failure, stats ())

let is_value spec t = Spec.is_constructor_term spec t || Term.is_error t

let complete_spec ?max_rules ?fuel spec =
  complete ?max_rules ?fuel
    ~precedence:(Ordering.search_precedence (Ordering.search spec))
    ~is_value:(is_value spec) (Spec.axioms spec)

let pp_outcome ppf = function
  | Completed sys ->
    Fmt.pf ppf "completed: canonical system with %d rules" (Rewrite.size sys)
  | Failed (Unorientable (a, b)) ->
    Fmt.pf ppf "failed: cannot orient %a = %a" Term.pp a Term.pp b
  | Failed (Inconsistent (a, b)) ->
    Fmt.pf ppf "failed: INCONSISTENT, derived %a = %a" Term.pp a Term.pp b
  | Failed Bound_exceeded -> Fmt.string ppf "failed: bounds exceeded"

let pp_stats ppf s =
  Fmt.pf ppf "%d iteration(s), %d rule(s) added, %d critical pair(s) considered"
    s.iterations s.rules_added s.pairs_considered
