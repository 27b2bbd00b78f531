type precedence = Op.t -> Op.t -> int

let of_ranks ~rank a b =
  let c = Int.compare (rank a) (rank b) in
  if c <> 0 then c
  else
    let c = String.compare (Op.name a) (Op.name b) in
    if c <> 0 then c else Op.compare a b

let of_list names =
  let position op =
    let rec find i = function
      | [] -> -1
      | n :: rest -> if String.equal n (Op.name op) then i else find (i + 1) rest
    in
    find 0 names
  in
  let rank op =
    let p = position op in
    if p < 0 then 0 else List.length names - p
  in
  of_ranks ~rank

let dependency_table spec =
  let ops = Signature.ops (Spec.signature spec) in
  let n = List.length ops in
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let base op = if Spec.is_constructor op spec then 0 else 1 in
  List.iter (fun op -> Hashtbl.replace tbl (Op.name op) (base op)) ops;
  let rank name = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
  let deps =
    List.map
      (fun ax ->
        let hd = Op.name (Axiom.head ax) in
        let called =
          Op.Set.elements (Term.ops (Axiom.rhs ax))
          |> List.map Op.name
          |> List.filter (fun g -> not (String.equal g hd))
        in
        (hd, called))
      (Spec.axioms spec)
  in
  let cap = n + 1 in
  for _ = 1 to n + 1 do
    List.iter
      (fun (f, called) ->
        List.iter
          (fun g ->
            let wanted = min cap (1 + rank g) in
            if wanted > rank f then Hashtbl.replace tbl f wanted)
          called)
      deps
  done;
  tbl

type head = Err_h | If_h | Op_h of Op.t

let head_of t =
  match Term.view t with
  | Term.Var _ -> None
  | Term.Err _ -> Some Err_h
  | Term.Ite _ -> Some If_h
  | Term.App (op, _) -> Some (Op_h op)

let compare_head prec a b =
  match (a, b) with
  | Err_h, Err_h -> 0
  | Err_h, _ -> -1
  | _, Err_h -> 1
  | If_h, If_h -> 0
  | If_h, _ -> -1
  | _, If_h -> 1
  | Op_h f, Op_h g -> prec f g

let children t =
  match Term.view t with
  | Term.Var _ | Term.Err _ -> []
  | Term.App (_, args) -> args
  | Term.Ite (c, t, e) -> [ c; t; e ]

let rec lpo_gt prec s t =
  if Term.equal s t then false
  else
    match (Term.view s, Term.view t) with
    | _, Term.Var (x, sx) -> (
      match Term.view s with
      | Term.Var _ -> false
      | _ -> List.mem (x, sx) (Term.vars s))
    | Term.Var _, _ -> false
    | _ ->
      let ss = children s and ts = children t in
      let case1 () =
        List.exists (fun si -> Term.equal si t || lpo_gt prec si t) ss
      in
      let dominates_args () = List.for_all (fun tj -> lpo_gt prec s tj) ts in
      let hs = Option.get (head_of s) and ht = Option.get (head_of t) in
      let hc = compare_head prec hs ht in
      if case1 () then true
      else if hc > 0 then dominates_args ()
      else if hc = 0 then lex_gt prec s ss ts && dominates_args ()
      else false

and lex_gt prec s ss ts =
  match (ss, ts) with
  | [], [] -> false
  | si :: ss', ti :: ts' ->
    if Term.equal si ti then lex_gt prec s ss' ts' else lpo_gt prec si ti
  | _ -> false

let orient prec (a, b) =
  if lpo_gt prec a b then Ok (a, b)
  else if lpo_gt prec b a then Ok (b, a)
  else
    Error
      (Fmt.str "cannot orient %a = %a under the given precedence" Term.pp a
         Term.pp b)

type search_result = {
  ranks : (string * int) list;
  unoriented : Axiom.t list;
}

let search_precedence sr =
  let rank op =
    Option.value ~default:0 (List.assoc_opt (Op.name op) sr.ranks)
  in
  of_ranks ~rank

let oriented sr = sr.unoriented = []

(* Greedy precedence search: start from the call-graph ranks (which orient
   every hierarchical specification already) and, while some executable
   axiom fails to decrease, raise its head's rank just above every
   operation of its right-hand side. Ranks only grow and are capped, so
   the repair loop terminates; it stops with the axioms that still resist
   — precedence bumps cannot help an equation like UNION(a,b) = UNION(b,a),
   whose two sides compare lexicographically under any precedence. Unlike
   the call-graph seed, the search may promote a constructor above another
   when the specification rewrites constructor terms (non-free types such
   as a wrapping counter). *)
let search spec =
  let axioms = List.filter Axiom.is_executable (Spec.axioms spec) in
  let tbl = dependency_table spec in
  let rank_name name = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
  let prec () = of_ranks ~rank:(fun op -> rank_name (Op.name op)) in
  let cap = 2 * (Hashtbl.length tbl + 1) in
  let unoriented p =
    List.filter (fun ax -> not (lpo_gt p (Axiom.lhs ax) (Axiom.rhs ax))) axioms
  in
  let bump ax =
    let hd = Op.name (Axiom.head ax) in
    let wanted =
      Op.Set.fold
        (fun g acc ->
          if String.equal (Op.name g) hd then acc
          else max acc (1 + rank_name (Op.name g)))
        (Term.ops (Axiom.rhs ax))
        (rank_name hd)
    in
    let wanted = min cap wanted in
    if wanted > rank_name hd then begin
      Hashtbl.replace tbl hd wanted;
      true
    end
    else false
  in
  let rec loop () =
    match unoriented (prec ()) with
    | [] -> []
    | failing -> if List.exists bump failing then loop () else failing
  in
  let unoriented = loop () in
  let ranks =
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { ranks; unoriented }
