type cp = {
  rule1 : string;
  rule2 : string;
  position : Term.position;
  peak : Term.t;
  left : Term.t;
  right : Term.t;
}

type verdict = Joinable of Term.t | Diverges of Term.t * Term.t | Timeout

type report = { pairs : (cp * verdict) list }

let label i (r : Rewrite.rule) =
  if String.equal r.Rewrite.rule_name "" then Fmt.str "#%d" i
  else r.Rewrite.rule_name

(* Positions of proper (non-root when same rule) non-variable,
   application-headed subterms of a term. *)
let app_positions term =
  List.filter
    (fun p ->
      match Term.subterm_at term p with
      | Some sub -> (
        match Term.view sub with Term.App _ -> true | _ -> false)
      | None -> false)
    (Term.positions term)

let overlap ~(inner : Rewrite.rule) ~(outer : Rewrite.rule) ~pos =
  match Term.subterm_at outer.Rewrite.lhs pos with
  | Some sub when (match Term.view sub with Term.App _ -> true | _ -> false)
    -> (
    match Subst.unify sub inner.Rewrite.lhs with
    | None -> None
    | Some sigma ->
      let peak = Subst.apply sigma outer.Rewrite.lhs in
      let left = Subst.apply sigma outer.Rewrite.rhs in
      let right =
        match
          Term.replace_at outer.Rewrite.lhs pos inner.Rewrite.rhs
        with
        | Some patched -> Subst.apply sigma patched
        | None -> assert false
      in
      Some (peak, left, right))
  | _ -> None

let critical_pairs rules =
  let indexed = List.mapi (fun i r -> (i, r)) rules in
  List.concat_map
    (fun (i, outer) ->
      let outer_label = label i outer in
      List.concat_map
        (fun (j, inner0) ->
          (* rename the inner rule's variables apart; primes are legal in
             identifiers, so keep extending the suffix until it is fresh
             with respect to the outer rule *)
          let outer_names = List.map fst (Term.vars outer.Rewrite.lhs) in
          let clashes suffix =
            List.exists
              (fun (x, _) -> List.mem (x ^ suffix) outer_names)
              (Term.vars inner0.Rewrite.lhs)
          in
          let rec fresh_suffix suffix =
            if clashes suffix then fresh_suffix (suffix ^ "'") else suffix
          in
          let suffix = fresh_suffix "'" in
          let inner = Rewrite.rule ~name:inner0.Rewrite.rule_name
              ~lhs:(Term.rename (fun x -> x ^ suffix) inner0.Rewrite.lhs)
              ~rhs:(Term.rename (fun x -> x ^ suffix) inner0.Rewrite.rhs)
              ()
          in
          let positions =
            List.filter
              (fun p ->
                (* skip the root overlap of a rule with itself, and take
                   root overlaps of distinct rules once (i < j) *)
                match p with
                | [] -> i < j
                | _ -> true)
              (app_positions outer.Rewrite.lhs)
          in
          List.filter_map
            (fun pos ->
              match overlap ~inner ~outer ~pos with
              | None -> None
              | Some (peak, left, right) ->
                Some
                  {
                    rule1 = outer_label;
                    rule2 = label j inner0;
                    position = pos;
                    peak;
                    left;
                    right;
                  })
            positions)
        indexed)
    indexed

let decide ?fuel sys cp =
  match
    ( Rewrite.normalize_opt ?fuel sys cp.left,
      Rewrite.normalize_opt ?fuel sys cp.right )
  with
  | Some a, Some b -> if Term.equal a b then Joinable a else Diverges (a, b)
  | _ -> Timeout

let check ?fuel spec =
  let sys = Rewrite.of_spec spec in
  let pairs =
    List.map (fun cp -> (cp, decide ?fuel sys cp)) (critical_pairs (Rewrite.rules sys))
  in
  { pairs }

let locally_confluent report =
  List.for_all (fun (_, v) -> match v with Joinable _ -> true | _ -> false)
    report.pairs

(* Distinct ground constructor normal forms denote distinct values in the
   initial algebra, so such a divergence is a genuine contradiction; [error]
   against a constructor term likewise (the error algebra keeps error
   distinct from every proper value). A constructor term with variables is
   not a value: two of them may still denote the same value at every
   ground instance, so their divergence proves no contradiction. *)
let inconsistencies spec report =
  let value t = Spec.is_constructor_ground_term spec t || Term.is_error t in
  List.filter_map
    (fun (cp, v) ->
      match v with
      | Diverges (a, b) when value a && value b -> Some (cp, a, b)
      | _ -> None)
    report.pairs

let is_consistent spec report = inconsistencies spec report = []
