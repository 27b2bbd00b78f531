type config = {
  spec : Spec.t;
  extra_rules : Rewrite.rule list;
  generators : (Sort.t * Op.t list) list;
  invariants : Axiom.t list;
  fuel : int;
  max_case_depth : int;
  max_induction_depth : int;
  case_candidates : int;
  max_goals : int;
  on_rule : (string -> unit) option;
}

let default_fuel = 50_000

let config ?(extra_rules = []) ?(generators = []) ?(invariants = [])
    ?(fuel = default_fuel) ?(max_case_depth = 8) ?(max_induction_depth = 1)
    ?(case_candidates = 4) ?(max_goals = 2_000) ?on_rule spec =
  {
    spec;
    extra_rules;
    generators;
    invariants;
    fuel;
    max_case_depth;
    max_induction_depth;
    case_candidates;
    max_goals;
    on_rule;
  }

type proof =
  | By_normalization of { lhs_nf : Term.t; rhs_nf : Term.t }
  | By_cases of { condition : Term.t; if_true : proof; if_false : proof }
  | By_induction of { on : string * Sort.t; cases : (Op.t * proof) list }

type outcome =
  | Proved of proof
  | Unknown of { lhs_nf : Term.t; rhs_nf : Term.t }

(* {2 Skolemization}

   Free variables of a goal are universally quantified (over reachable
   values for generated sorts).  They are replaced by fresh constants — a
   rule such as an instantiated invariant [IS_NEWSTACK?($stk) -> false]
   must match exactly that unknown value, never an arbitrary subterm, so it
   cannot be a rule with a variable left-hand side.  The [$] prefix cannot
   be produced by the parser, so skolem constants never collide with
   specification operations. *)

let skolem_prefix = '$'

let is_skolem op =
  Op.is_constant op
  && String.length (Op.name op) > 0
  && (Op.name op).[0] = skolem_prefix

let skolem_name op = String.sub (Op.name op) 1 (String.length (Op.name op) - 1)
let skolem_const base sort = Term.const (Op.v (Fmt.str "%c%s" skolem_prefix base) ~args:[] ~result:sort)

let skolemize (lhs, rhs) =
  let vars = Term.var_set rhs (Term.var_set lhs []) in
  let image x s = skolem_const x s in
  let apply = Term.map_vars (fun x s -> if List.mem (x, s) vars then image x s else Term.var x s) in
  (apply lhs, apply rhs)

let skolem_consts terms =
  let collect acc t =
    Term.fold
      (fun acc sub ->
        match Term.view sub with
        | Term.App (op, []) when is_skolem op ->
          if List.exists (Op.equal op) acc then acc else acc @ [ op ]
        | _ -> acc)
      acc t
  in
  List.fold_left collect [] terms

let rec replace_const const repl t =
  match Term.view t with
  | Term.App (op, []) when Op.equal op const -> repl
  | Term.App (op, args) ->
    Term.app_unchecked op (List.map (replace_const const repl) args)
  | Term.Ite (c, a, b) ->
    Term.ite_unchecked
      (replace_const const repl c)
      (replace_const const repl a)
      (replace_const const repl b)
  | Term.Var _ | Term.Err _ -> t

let fresh_skolem ~taken base sort =
  let exists name =
    List.exists (fun op -> String.equal (Op.name op) name) taken
  in
  let candidate = Fmt.str "%c%s" skolem_prefix base in
  if not (exists candidate) then Op.v candidate ~args:[] ~result:sort
  else
    let rec go i =
      let c = Fmt.str "%c%s%d" skolem_prefix base i in
      if exists c then go (i + 1) else Op.v c ~args:[] ~result:sort
    in
    go 1

(* {2 Configuration helpers} *)

let generators_for cfg sort =
  match List.find_opt (fun (s, _) -> Sort.equal s sort) cfg.generators with
  | Some (_, ops) -> ops
  | None -> Spec.constructors_of_sort sort cfg.spec

let is_generated cfg sort =
  (not (Sort.is_bool sort)) && generators_for cfg sort <> []

(* Instantiate every single-variable invariant lemma at the given skolem
   constants (which stand for reachable values of their sort). *)
let invariant_rules cfg consts =
  List.concat_map
    (fun inv ->
      match Axiom.vars inv with
      | [ (v, sort) ] ->
        List.filter_map
          (fun op ->
            if not (Sort.equal (Op.result op) sort) then None
            else
              let sub = Subst.singleton v (Term.const op) in
              let lhs, rhs = Axiom.instantiate sub inv in
              match
                Rewrite.rule ~name:("inv:" ^ Axiom.name inv) ~lhs ~rhs ()
              with
              | r -> Some r
              | exception Invalid_argument _ -> None)
          consts
      | _ -> [])
    cfg.invariants

(* Boolean conditions worth a case split: irreducible, application-headed,
   Bool-sorted subterms; conditions of residual if-then-else forms first. *)
let case_candidates_of cfg terms =
  let conditions t =
    List.filter_map
      (fun sub ->
        match Term.view sub with
        | Term.Ite (c, _, _) -> (
          match Term.view c with Term.App _ -> Some c | _ -> None)
        | _ -> None)
      (Term.subterms t)
  in
  let bool_apps t =
    List.filter_map
      (fun sub ->
        match Term.view sub with
        | Term.App (op, _)
          when Sort.is_bool (Op.result op)
               && (not (Term.equal sub Term.tt))
               && (not (Term.equal sub Term.ff))
               && not (is_skolem op) ->
          Some sub
        | _ -> None)
      (Term.subterms t)
  in
  let all =
    List.concat_map conditions terms @ List.concat_map bool_apps terms
  in
  let dedup =
    List.fold_left
      (fun acc c -> if List.exists (Term.equal c) acc then acc else acc @ [ c ])
      [] all
  in
  List.filteri (fun i _ -> i < cfg.case_candidates) dedup

(* [minted] accumulates every skolem constant created during this proof
   attempt, goal-wide: assumption rules added to [sys] (case splits,
   induction hypotheses, invariant instances) may mention constants that a
   later normalization step erases from the goal terms, and minting the
   same name again would let a stale per-value assumption fire on a fresh
   "arbitrary" constant — an unsound proof. *)
exception Search_exhausted

let rec prove_goal cfg sys ~minted ~budget ~case_depth ~ind_depth (lhs, rhs) =
  (* unprovable goals can drive the case-split search into exponential
     territory; the budget turns that into a prompt Unknown *)
  if !budget <= 0 then raise Search_exhausted;
  decr budget;
  let normalize t =
    match Rewrite.normalize_opt ~fuel:cfg.fuel ?on_rule:cfg.on_rule sys t with
    | Some nf -> nf
    | None -> t
  in
  let lhs_nf = normalize lhs and rhs_nf = normalize rhs in
  if Term.equal lhs_nf rhs_nf then Proved (By_normalization { lhs_nf; rhs_nf })
  else
    let by_cases () =
      if case_depth <= 0 then None
      else
        List.find_map
          (fun condition ->
            let attempt value k =
              let assumption =
                Rewrite.rule ~name:"<case>" ~lhs:condition ~rhs:value ()
              in
              let sys' = Rewrite.add_rules [ assumption ] sys in
              match
                prove_goal cfg sys' ~minted ~budget
                  ~case_depth:(case_depth - 1) ~ind_depth (lhs_nf, rhs_nf)
              with
              | Proved p -> k p
              | Unknown _ -> None
            in
            attempt Term.tt (fun if_true ->
                attempt Term.ff (fun if_false ->
                    Some (Proved (By_cases { condition; if_true; if_false })))))
          (case_candidates_of cfg [ lhs_nf; rhs_nf ])
    in
    let by_induction () =
      if ind_depth <= 0 then None
      else
        let candidates =
          List.filter
            (fun op -> is_generated cfg (Op.result op))
            (skolem_consts [ lhs_nf; rhs_nf ])
        in
        List.find_map
          (fun const ->
            induction_on cfg sys ~minted ~budget ~case_depth ~ind_depth
              (lhs_nf, rhs_nf) const)
          candidates
    in
    match by_cases () with
    | Some proved -> proved
    | None -> (
      match by_induction () with
      | Some proved -> proved
      | None -> Unknown { lhs_nf; rhs_nf })

and induction_on cfg sys ~minted ~budget ~case_depth ~ind_depth (lhs, rhs)
    const =
  let sort = Op.result const in
  let prove_case gen =
    let fresh =
      List.map
        (fun arg_sort ->
          let base = String.lowercase_ascii (Sort.name arg_sort) in
          let op = fresh_skolem ~taken:!minted base arg_sort in
          minted := op :: !minted;
          op)
        (Op.args gen)
    in
    let gen_term = Term.app gen (List.map Term.const fresh) in
    let lhs' = replace_const const gen_term lhs
    and rhs' = replace_const const gen_term rhs in
    (* induction hypotheses: the goal at each sub-value of the induction
       sort, used as a rewrite rule in whichever direction is legal *)
    let hypotheses =
      List.filter_map
        (fun sub_const ->
          if not (Sort.equal (Op.result sub_const) sort) then None
          else
            let hl = replace_const const (Term.const sub_const) lhs
            and hr = replace_const const (Term.const sub_const) rhs in
            match Rewrite.rule ~name:"<ih>" ~lhs:hl ~rhs:hr () with
            | r -> Some r
            | exception Invalid_argument _ -> (
              match Rewrite.rule ~name:"<ih>" ~lhs:hr ~rhs:hl () with
              | r -> Some r
              | exception Invalid_argument _ -> None))
        fresh
    in
    let invariants =
      invariant_rules cfg
        (List.filter (fun op -> is_generated cfg (Op.result op)) fresh)
    in
    let sys' = Rewrite.add_rules (hypotheses @ invariants) sys in
    match
      prove_goal cfg sys' ~minted ~budget ~case_depth
        ~ind_depth:(ind_depth - 1) (lhs', rhs')
    with
    | Proved p -> Some (gen, p)
    | Unknown _ -> None
  in
  let rec all_cases acc = function
    | [] -> Some (List.rev acc)
    | gen :: rest -> (
      match prove_case gen with
      | Some case -> all_cases (case :: acc) rest
      | None -> None)
  in
  match generators_for cfg sort with
  | [] -> None
  | generators -> (
    match all_cases [] generators with
    | Some cases ->
      Some
        (Proved
           (By_induction { on = (skolem_name const, sort); cases }))
    | None -> None)

let base_system cfg =
  Rewrite.add_rules cfg.extra_rules (Rewrite.of_spec cfg.spec)

let prove cfg goal =
  let lhs, rhs = skolemize goal in
  let sys = base_system cfg in
  let consts =
    List.filter
      (fun op -> is_generated cfg (Op.result op))
      (skolem_consts [ lhs; rhs ])
  in
  let sys = Rewrite.add_rules (invariant_rules cfg consts) sys in
  let minted = ref (skolem_consts [ lhs; rhs ]) in
  let budget = ref cfg.max_goals in
  match
    prove_goal cfg sys ~minted ~budget ~case_depth:cfg.max_case_depth
      ~ind_depth:cfg.max_induction_depth (lhs, rhs)
  with
  | outcome -> outcome
  | exception Search_exhausted -> Unknown { lhs_nf = lhs; rhs_nf = rhs }

let prove_axiom cfg ax = prove cfg (Axiom.lhs ax, Axiom.rhs ax)

let prove_lemma cfg ax =
  match prove_axiom cfg ax with
  | Proved _ -> (
    (* A lemma over a generated sort holds for REACHABLE values only, so it
       must never become a universal rewrite rule (it would apply to
       arbitrary subterms such as [POP(s)] or even [NEWSTACK] and shadow
       the specification's own axioms).  Ground lemmas are safe as rules;
       single-variable lemmas become invariants, instantiated only at the
       skolem constants that stand for reachable values. *)
    match Axiom.vars ax with
    | [] ->
      Ok { cfg with extra_rules = cfg.extra_rules @ [ Rewrite.rule_of_axiom ax ] }
    | [ _ ] -> Ok { cfg with invariants = cfg.invariants @ [ ax ] }
    | _ -> Ok cfg)
  | Unknown _ as u -> Error u

let holds cfg goal =
  match prove cfg goal with Proved _ -> true | Unknown _ -> false

let disprove cfg ~universe ~size (lhs, rhs) =
  let sys = base_system cfg in
  let vars = Term.var_set rhs (Term.var_set lhs []) in
  let substs = Enum.substitutions_up_to universe vars ~size in
  List.find_map
    (fun sub ->
      let l = Subst.apply sub lhs and r = Subst.apply sub rhs in
      match
        ( Rewrite.normalize_opt ~fuel:cfg.fuel ?on_rule:cfg.on_rule sys l,
          Rewrite.normalize_opt ~fuel:cfg.fuel ?on_rule:cfg.on_rule sys r )
      with
      | Some ln, Some rn
        when (not (Term.equal ln rn))
             && (Spec.is_constructor_term cfg.spec ln || Term.is_error ln)
             && (Spec.is_constructor_term cfg.spec rn || Term.is_error rn) ->
        Some (sub, ln, rn)
      | _ -> None)
    substs

let rec proof_size = function
  | By_normalization _ -> 1
  | By_cases { if_true; if_false; _ } ->
    1 + proof_size if_true + proof_size if_false
  | By_induction { cases; _ } ->
    List.fold_left (fun n (_, p) -> n + proof_size p) 1 cases

let rec proof_depth = function
  | By_normalization _ -> 1
  | By_cases { if_true; if_false; _ } ->
    1 + max (proof_depth if_true) (proof_depth if_false)
  | By_induction { cases; _ } ->
    1 + List.fold_left (fun d (_, p) -> max d (proof_depth p)) 0 cases

let rec pp_proof ppf = function
  | By_normalization { lhs_nf; rhs_nf = _ } ->
    Fmt.pf ppf "both sides normalize to %a" Term.pp lhs_nf
  | By_cases { condition; if_true; if_false } ->
    Fmt.pf ppf
      "@[<v 2>case split on %a:@,@[<v 2>true:@,%a@]@,@[<v 2>false:@,%a@]@]"
      Term.pp condition pp_proof if_true pp_proof if_false
  | By_induction { on = x, sort; cases } ->
    let pp_case ppf (gen, p) =
      Fmt.pf ppf "@[<v 2>%s := %a(...):@,%a@]" x Op.pp gen pp_proof p
    in
    Fmt.pf ppf "@[<v 2>generator induction on %s : %a:@,%a@]" x Sort.pp sort
      Fmt.(list ~sep:cut pp_case)
      cases

let pp_outcome ppf = function
  | Proved p -> Fmt.pf ppf "@[<v 2>PROVED:@,%a@]" pp_proof p
  | Unknown { lhs_nf; rhs_nf } ->
    Fmt.pf ppf "@[<v 2>UNKNOWN: stuck at@,left  %a@,right %a@]" Term.pp lhs_nf
      Term.pp rhs_nf
