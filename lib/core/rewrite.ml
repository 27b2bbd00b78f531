type rule = { rule_name : string; lhs : Term.t; rhs : Term.t }

let rule ?(name = "") ~lhs ~rhs () =
  (match Term.view lhs with
  | Term.App _ -> ()
  | Term.Var _ | Term.Err _ | Term.Ite _ ->
    (* only application-headed left-hand sides can ever match: the redex
       finder dispatches on the head operation, and error / if-then-else
       reduction is builtin *)
    invalid_arg
      "Rewrite.rule: left-hand side must be an operation application");
  if not (Sort.equal (Term.sort_of lhs) (Term.sort_of rhs)) then
    invalid_arg "Rewrite.rule: sides have different sorts";
  let lvars = Term.vars lhs in
  List.iter
    (fun (x, s) ->
      if not (List.mem (x, s) lvars) then
        invalid_arg
          (Fmt.str "Rewrite.rule: right-hand side variable %s not bound on the left" x))
    (Term.vars rhs);
  { rule_name = name; lhs; rhs }

let rule_of_axiom ax =
  { rule_name = Axiom.name ax; lhs = Axiom.lhs ax; rhs = Axiom.rhs ax }

let pp_rule ppf r =
  if String.equal r.rule_name "" then
    Fmt.pf ppf "@[<hov 2>%a ->@ %a@]" Term.pp r.lhs Term.pp r.rhs
  else
    Fmt.pf ppf "@[<hov 2>[%s] %a ->@ %a@]" r.rule_name Term.pp r.lhs Term.pp
      r.rhs

module String_map = Map.Make (String)
(* {2 The compiled system}

   A system is the priority-ordered rule list plus its matching automaton
   ([Match_tree]): one decision tree per head symbol, every subterm
   inspected once, rule firing through precomputed right-hand-side
   templates. The trees are built once in [of_rules] and never mutated
   after, so sharing a system across interpreters and domains is safe. *)

type system = {
  all : rule list; (* priority order: earlier rules tried first *)
  trees : (string, rule Match_tree.t) Hashtbl.t;
}

let head_name r =
  match Term.view r.lhs with
  | Term.App (op, _) -> Op.name op
  | Term.Ite _ -> "<if>"
  | Term.Err _ -> "<error>"
  | Term.Var _ -> assert false

let group_by_head rules =
  List.fold_left
    (fun m r ->
      let key = head_name r in
      let existing = Option.value ~default:[] (String_map.find_opt key m) in
      String_map.add key (existing @ [ r ]) m)
    String_map.empty rules

(* one automaton per head-symbol group; the automaton's own root switch
   re-verifies the exact operation ([Op.equal]), so two operations that
   share a name but not a rank never cross-match *)
let compile_trees rules =
  let groups = group_by_head rules in
  let tbl = Hashtbl.create (max 16 (String_map.cardinal groups)) in
  String_map.iter
    (fun head head_rules ->
      Hashtbl.replace tbl head
        (Match_tree.compile
           (List.map (fun r -> (r, r.lhs, r.rhs)) head_rules)))
    groups;
  tbl

let of_rules all = { all; trees = compile_trees all }

let of_spec spec =
  (* an axiom with free right-hand-side variables (parsed leniently so the
     analyzer can flag it as ADT011) is not a rule: firing it would invent
     unbound variables and break groundness, so it is skipped here *)
  of_rules
    (List.map rule_of_axiom
       (List.filter Axiom.is_executable (Spec.axioms spec)))

let add_rules extra sys = of_rules (extra @ sys.all)
let add_axioms axs sys = add_rules (List.map rule_of_axiom axs) sys
let rules sys = sys.all
let size sys = List.length sys.all

type strategy = Innermost | Outermost

exception Out_of_fuel of Term.t

let default_fuel = 200_000

(* builtin steps: error propagation and if-then-else selection. They are
   never charged fuel and never counted as rule applications. *)
let is_builtin name = String.equal name "<if>" || String.equal name "<error>"

(* {2 The matcher}

   [match_app] answers the first matching rule (priority order) for the
   application [op args], with the automaton's registers and the rule's
   right-hand-side template uninstantiated: the one entry into the
   automaton, for the fused innermost loop and for [step] alike. *)

let match_app sys op args =
  match Hashtbl.find_opt sys.trees (Op.name op) with
  | None -> None
  | Some tree -> Match_tree.run_template_app tree op args

exception Fuel_exhausted

(* [on_rule] is the one per-application hook: called with the rule's name
   at every application, after the step is charged against the fuel, it
   is where a caller meters, attributes and interrupts the work (the
   engine's per-request hook charges the request, feeds the tracer of
   lib/obs and checks the deadline). [None] by default, so uninstrumented
   callers pay only one option test per application. *)
let fire on_rule r =
  match on_rule with None -> () | Some f -> f r.rule_name

(* [metered ... go] runs [go counted]: [counted] charges one unit of fuel
   per rule application, fires the rule hook, then calls [on_apply]. Fuel
   exhaustion uses a dedicated exception, because a caller-supplied
   [on_apply] may raise its own exceptions (Exit included) to abort, and
   those must not be misreported as running out of fuel. *)
let metered ?(fuel = default_fuel) ?on_rule ~on_apply term go =
  let remaining = ref fuel in
  let counted r =
    if !remaining <= 0 then raise Fuel_exhausted;
    decr remaining;
    fire on_rule r;
    on_apply r
  in
  try go counted with Fuel_exhausted -> raise (Out_of_fuel term)

module Term_lru = Lru.Make (struct
  type t = Term.t

  (* hash-consing makes structural equality physical and gives every term
     a unique id: the memo keys on identity, no structural hashing at all *)
  let equal = Term.equal
  let hash = Term.id
end)

module Memo = struct
  type t = {
    cache : Term.t Term_lru.t;
    mutable hits : int;
    mutable misses : int;
  }

  let default_capacity = Term_lru.default_capacity

  let create ?capacity () =
    { cache = Term_lru.create ?capacity (); hits = 0; misses = 0 }

  let clear m =
    Term_lru.clear m.cache;
    m.hits <- 0;
    m.misses <- 0

  let size m = Term_lru.length m.cache
  let capacity m = Term_lru.capacity m.cache
  let hits m = m.hits
  let misses m = m.misses
  let evictions m = Term_lru.evictions m.cache
end

(* {2 The fused innermost loop}

   Innermost normalization interleaved with template instantiation.
   Firing a rule by instantiating its full right-hand side and
   re-normalizing the result would re-walk every fetched subterm, even
   though, under innermost rewriting, a subterm bound at a non-frozen
   pattern position is already in normal form (the arguments were
   normalized before matching, and innermost normal forms are
   norm-fixpoints). Here the leaf's {!Match_tree.builder} template is
   normalized directly instead: [Fetch]ed registers are returned without
   a walk, [Fetch_frozen] registers (bound through the branch of an
   if-then-else pattern, where stuck conditionals keep frozen redexes)
   are re-normalized, and constructed nodes are normalized bottom-up as
   the template unfolds. Rule firing order and count are exactly those of
   re-normalizing the instantiated reduct: leftmost-innermost visits the
   same redexes in the same order, and skipped fetches contribute zero
   firings either way. The differential harness ([test/test_diff.ml])
   pins this equivalence — normal form {e and} step count — against
   {!Reference} on every corpus specification.

   With a memo, the cache is consulted at application nodes of the
   subject and at nodes the template {e constructs}; [Fetch]ed registers
   are returned without even a probe (they are already normal — a probe
   could only hit). Terms below [memo_cutoff] bypass the memo entirely: a
   cache transaction (probe plus insert) costs about as much as
   re-reducing a tiny term, so caching them burns time and capacity to
   save neither. A sub-cutoff redex met twice is therefore reduced (and
   charged) twice, so a memoized step count can exceed the count of a
   loop that probes every node. Without a memo nothing is probed, and a
   constructed node is matched before it is interned, so a node a fired
   rule discards is never interned at all. *)

let memo_cutoff = 8

let innermost ?memo ?(fuel = default_fuel) ?on_rule sys term =
  let remaining = ref fuel in
  let rec norm t =
    match Term.view t with
    | Term.Var _ | Term.Err _ -> t
    | Term.Ite (c, th, el) -> (
      let c' = norm c in
      if Term.equal c' Term.tt then norm th
      else if Term.equal c' Term.ff then norm el
      else
        match Term.view c' with
        | Term.Err _ -> Term.err (Term.sort_of th)
        | _ ->
          (* stuck conditional: branches stay frozen, otherwise recursive
             definitions would unfold without bound under an undecided
             condition (ground conditions always decide, so evaluation is
             unaffected) *)
          Term.ite_unchecked c' th el)
    | Term.App (op, args) -> (
      match memo with
      | Some m when Term.size t >= memo_cutoff -> memoized m t op args None
      | _ -> norm_app t op args)
  (* the memo transaction: probe, and on a miss reduce [t] and insert its
     normal form. [found] is [None] for a node of the subject, whose
     arguments are normalized first, and the automaton of [t]'s head for a
     node the template built from normal arguments *)
  and memoized m t op args found =
    match Term_lru.find m.Memo.cache t with
    | Some nf ->
      m.Memo.hits <- m.Memo.hits + 1;
      nf
    | None ->
      m.Memo.misses <- m.Memo.misses + 1;
      let nf =
        match found with
        | None -> norm_app t op args
        | Some tree -> (
          match Match_tree.run_template_app tree op args with
          | None -> t
          | Some (r, regs, builder) -> apply r regs builder)
      in
      Term_lru.add m.Memo.cache t nf;
      nf
  (* match the node rebuilt from its normalized arguments and, on success,
     normalize the template rather than the instantiated reduct. A fired
     redex node is discarded immediately, so it is never interned; when no
     rule matches, [t] itself is the normal form if its arguments were
     already normal, and only a node with changed arguments is interned *)
  and norm_app t op args =
    let args' = List.map norm args in
    if List.exists Term.is_error args' then Term.err (Op.result op)
    else
      match match_app sys op args' with
      | Some (r, regs, builder) -> apply r regs builder
      | None ->
        if List.for_all2 ( == ) args args' then t
        else Term.app_unchecked op args'
  and fire_tree tree op args' =
    match Match_tree.run_template_app tree op args' with
    | None -> Term.app_unchecked op args'
    | Some (r, regs, builder) -> apply r regs builder
  (* one rule application: charge fuel, fire the rule hook, then
     normalize its template *)
  and apply r regs builder =
    if !remaining <= 0 then raise Fuel_exhausted;
    decr remaining;
    fire on_rule r;
    build regs builder
  (* [build regs b = norm (Match_tree.instantiate regs b)], with the
     walk over already-normal fetched subterms elided *)
  and build regs = function
    | Match_tree.Ready t -> norm t (* ground, but may hold redexes *)
    | Match_tree.Fetch r -> regs.(r)
    | Match_tree.Fetch_frozen r -> norm regs.(r)
    | Match_tree.Build_app (op, bs) -> (
      let args' = List.map (build regs) bs in
      if List.exists Term.is_error args' then Term.err (Op.result op)
      else
        (* a rule-less head with normal arguments is already a normal
           form, and a tiny node costs as much to cache as to re-reduce:
           neither touches the memo *)
        match Hashtbl.find_opt sys.trees (Op.name op) with
        | None -> Term.app_unchecked op args'
        | Some tree as found -> (
          match memo with
          | Some m
            when List.fold_left (fun n a -> n + Term.size a) 1 args'
                 >= memo_cutoff ->
            memoized m (Term.app_unchecked op args') op args' found
          | _ -> fire_tree tree op args'))
    | Match_tree.Build_ite (c, a, b) -> (
      let c' = build regs c in
      if Term.equal c' Term.tt then build regs a
      else if Term.equal c' Term.ff then build regs b
      else
        match Term.view c' with
        | Term.Err _ -> Term.err (Term.sort_of (Match_tree.instantiate regs a))
        | _ ->
          (* stuck: freeze the branches instantiated but unnormalized,
             exactly as re-normalizing the instantiated reduct leaves
             them *)
          Term.ite_unchecked c'
            (Match_tree.instantiate regs a)
            (Match_tree.instantiate regs b))
  in
  (* with a memo the root is probed whatever its size: the interpreter
     and server session caches key whole queries through this entry
     point, and a repeated query must hit even when it is tiny *)
  match
    match (memo, Term.view term) with
    | Some m, Term.App (op, args) -> memoized m term op args None
    | _ -> norm term
  with
  | nf -> (nf, fuel - !remaining)
  | exception Fuel_exhausted -> raise (Out_of_fuel term)

(* {1 The reference engine}

   A deliberately naive rewriting engine: rules are scanned linearly in
   priority order, matching binds and compares with deep structural
   equality, and nothing consults ids, precomputed hashes, or the intern
   table. It is the oracle the differential harness ([test/test_diff.ml])
   normalizes every random term against — byte-for-byte the same
   strategy, error strictness, if-then-else laziness, and fuel
   accounting, only slower. *)

module Reference = struct
  let rec match_term pattern subject bindings =
    match (Term.view pattern, Term.view subject) with
    | Term.Var (x, sort), _ ->
      if not (Sort.equal sort (Term.sort_of subject)) then None
      else (
        match String_map.find_opt x bindings with
        | Some prev ->
          if Term.structural_equal prev subject then Some bindings else None
        | None -> Some (String_map.add x subject bindings))
    | Term.Err sp, Term.Err st ->
      if Sort.equal sp st then Some bindings else None
    | Term.App (f, ps), Term.App (g, ts) when Op.equal f g ->
      match_list ps ts bindings
    | Term.Ite (c1, t1, e1), Term.Ite (c2, t2, e2) ->
      match_list [ c1; t1; e1 ] [ c2; t2; e2 ] bindings
    | _ -> None

  and match_list ps ts bindings =
    match (ps, ts) with
    | [], [] -> Some bindings
    | p :: ps, t :: ts -> (
      match match_term p t bindings with
      | Some bindings -> match_list ps ts bindings
      | None -> None)
    | _ -> None

  let apply bindings rhs =
    Term.map_vars
      (fun x sort ->
        match String_map.find_opt x bindings with
        | Some t -> t
        | None -> Term.var x sort)
      rhs

  (* linear scan: every rule, in priority order, no dispatch at all *)
  let find_redex sys t =
    match Term.view t with
    | Term.App _ ->
      let rec first = function
        | [] -> None
        | r :: rest -> (
          match match_term r.lhs t String_map.empty with
          | Some s -> Some (r, s)
          | None -> first rest)
      in
      first sys.all
    | _ -> None

  let innermost ~on_apply sys term =
    let rec norm t =
      match Term.view t with
      | Term.Var _ | Term.Err _ -> t
      | Term.Ite (c, th, el) -> (
        let c' = norm c in
        if Term.structural_equal c' Term.tt then norm th
        else if Term.structural_equal c' Term.ff then norm el
        else
          match Term.view c' with
          | Term.Err _ -> Term.err (Term.sort_of th)
          | _ -> Term.ite_unchecked c' th el)
      | Term.App (op, args) -> (
        let args' = List.map norm args in
        if List.exists Term.is_error args' then Term.err (Op.result op)
        else
          let t' = Term.app_unchecked op args' in
          match find_redex sys t' with
          | None -> t'
          | Some (r, s) ->
            on_apply r;
            norm (apply s r.rhs))
    in
    norm term

  let rec outer_step sys t =
    match Term.view t with
    | Term.Var _ | Term.Err _ -> None
    | Term.Ite (c, th, el) -> (
      if Term.structural_equal c Term.tt then Some (th, "<if>")
      else if Term.structural_equal c Term.ff then Some (el, "<if>")
      else
        match Term.view c with
        | Term.Err _ -> Some (Term.err (Term.sort_of th), "<error>")
        | _ -> (
          match outer_step sys c with
          | Some (c', n) -> Some (Term.ite_unchecked c' th el, n)
          | None -> None))
    | Term.App (op, args) -> (
      if List.exists Term.is_error args then
        Some (Term.err (Op.result op), "<error>")
      else
        match find_redex sys t with
        | Some (r, s) -> Some (apply s r.rhs, r.rule_name)
        | None ->
          let rec step_child i = function
            | [] -> None
            | a :: rest -> (
              match outer_step sys a with
              | Some (a', n) ->
                let args' =
                  List.mapi (fun j x -> if j = i then a' else x) args
                in
                Some (Term.app_unchecked op args', n)
              | None -> step_child (i + 1) rest)
          in
          step_child 0 args)

  let outermost ~on_apply sys term =
    let rec go t =
      match outer_step sys t with
      | None -> t
      | Some (t', name) ->
        if not (is_builtin name) then
          on_apply { rule_name = name; lhs = t; rhs = t' };
        go t'
    in
    go term

  let run ?(strategy = Innermost) ?fuel ?on_rule ~on_apply sys term =
    metered ?fuel ?on_rule ~on_apply term (fun on_apply ->
        match strategy with
        | Innermost -> innermost ~on_apply sys term
        | Outermost -> outermost ~on_apply sys term)

  let normalize ?strategy ?fuel ?on_rule sys term =
    run ?strategy ?fuel ?on_rule ~on_apply:(fun _ -> ()) sys term

  let normalize_opt ?strategy ?fuel ?on_rule sys term =
    match normalize ?strategy ?fuel ?on_rule sys term with
    | t -> Some t
    | exception Out_of_fuel _ -> None

  let normalize_count ?strategy ?fuel ?on_rule sys term =
    let n = ref 0 in
    let t =
      run ?strategy ?fuel ?on_rule ~on_apply:(fun _ -> incr n) sys term
    in
    (t, !n)
end

(* {1 Entry points} *)

let normalize_count = innermost

let normalize ?memo ?fuel ?on_rule sys term =
  fst (normalize_count ?memo ?fuel ?on_rule sys term)

let normalize_opt ?memo ?fuel ?on_rule sys term =
  match normalize ?memo ?fuel ?on_rule sys term with
  | t -> Some t
  | exception Out_of_fuel _ -> None

let joinable ?fuel sys a b =
  match (normalize_opt ?fuel sys a, normalize_opt ?fuel sys b) with
  | Some na, Some nb -> Term.equal na nb
  | _ -> false

type event = {
  position : Term.position;
  rule_used : string;
  before : Term.t;
  after : Term.t;
}

let pp_event ppf e =
  Fmt.pf ppf "@[<hov 2>%a@ --[%s]-->@ %a@]" Term.pp e.before e.rule_used
    Term.pp e.after

(* One leftmost-innermost step with position reporting: locate the leftmost
   innermost redex (builtin steps included). *)
let step sys term =
  let rec locate pos t =
    match Term.view t with
    | Term.Var _ | Term.Err _ -> None
    | Term.Ite (c, th, el) -> (
      match locate (pos @ [ 0 ]) c with
      | Some _ as hit -> hit
      | None ->
        if Term.equal c Term.tt then Some (pos, th, "<if>")
        else if Term.equal c Term.ff then Some (pos, el, "<if>")
        else if Term.is_error c then
          Some (pos, Term.err (Term.sort_of th), "<error>")
        else None (* stuck conditional: branches frozen *))
    | Term.App (op, args) -> (
      let rec in_children i = function
        | [] -> None
        | a :: rest -> (
          match locate (pos @ [ i ]) a with
          | Some _ as hit -> hit
          | None -> in_children (i + 1) rest)
      in
      match in_children 0 args with
      | Some _ as hit -> hit
      | None ->
        if List.exists Term.is_error args then
          Some (pos, Term.err (Op.result op), "<error>")
        else (
          match match_app sys op args with
          | Some (r, regs, builder) ->
            Some (pos, Match_tree.instantiate regs builder, r.rule_name)
          | None -> None))
  in
  match locate [] term with
  | None -> None
  | Some (position, replacement, rule_used) -> (
    match Term.replace_at term position replacement with
    | Some after -> Some { position; rule_used; before = term; after }
    | None -> None)

let is_normal_form sys term = Option.is_none (step sys term)

let trace ?(fuel = default_fuel) ?(max_events = 1_000) ?on_rule sys term =
  let events = ref [] and n_events = ref 0 and remaining = ref fuel in
  let rec go t =
    match step sys t with
    | None -> t
    | Some e ->
      (* fuel meters rule applications only, as in [normalize]: builtin
         steps are free *)
      if not (is_builtin e.rule_used) then begin
        if !remaining <= 0 then raise (Out_of_fuel t);
        decr remaining;
        Option.iter (fun f -> f e.rule_used) on_rule
      end;
      if !n_events < max_events then begin
        events := e :: !events;
        incr n_events
      end;
      go e.after
  in
  let result = go term in
  (result, List.rev !events)
