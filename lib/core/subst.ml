module String_map = Map.Make (String)

type t = Term.t String_map.t

let empty = String_map.empty
let singleton x t = String_map.singleton x t

let bind x t s =
  match String_map.find_opt x s with
  | Some existing -> if Term.equal existing t then Some s else None
  | None -> Some (String_map.add x t s)

let find x s = String_map.find_opt x s
let mem x s = String_map.mem x s
let bindings s = String_map.bindings s

let of_bindings bs =
  List.fold_left
    (fun acc (x, t) ->
      match acc with None -> None | Some s -> bind x t s)
    (Some empty) bs

let cardinal = String_map.cardinal

let apply s term =
  Term.map_vars
    (fun x sort ->
      match String_map.find_opt x s with
      | Some t -> t
      | None -> Term.var x sort)
    term

let compose s1 s2 =
  let s1' = String_map.map (apply s2) s1 in
  String_map.union (fun _ t1 _ -> Some t1) s1' s2

let restrict vars s =
  String_map.filter (fun x _ -> List.exists (fun (y, _) -> String.equal x y) vars) s

let equal a b = String_map.equal Term.equal a b

let pp ppf s =
  let pp_binding ppf (x, t) = Fmt.pf ppf "%s -> %a" x Term.pp t in
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:semi pp_binding) (bindings s)

let match_term ~pattern term =
  let rec go s pattern term =
    match (Term.view pattern, Term.view term) with
    | Term.Var (x, sort), _ ->
      if Sort.equal sort (Term.sort_of term) then bind x term s else None
    | Term.Err sp, Term.Err st -> if Sort.equal sp st then Some s else None
    | Term.App (f, ps), Term.App (g, ts) when Op.equal f g -> go_list s ps ts
    | Term.Ite (c1, t1, e1), Term.Ite (c2, t2, e2) ->
      go_list s [ c1; t1; e1 ] [ c2; t2; e2 ]
    | _ -> None
  and go_list s ps ts =
    match (ps, ts) with
    | [], [] -> Some s
    | p :: ps, t :: ts -> (
      match go s p t with Some s -> go_list s ps ts | None -> None)
    | _ -> None
  in
  go empty pattern term

let matches ~pattern term = Option.is_some (match_term ~pattern term)

let occurs x term =
  List.exists (fun (y, _) -> String.equal x y) (Term.vars term)

let unify a b =
  (* Martelli-Montanari style on a work list, building an idempotent
     substitution incrementally. *)
  let rec solve s = function
    | [] -> Some s
    | (a, b) :: rest ->
      let a = apply s a and b = apply s b in
      if Term.equal a b then solve s rest
      else begin
        let bind_var x sort t =
          if not (Sort.equal sort (Term.sort_of t)) then None
          else if occurs x t then None
          else
            let binding = singleton x t in
            let s' = String_map.map (apply binding) s in
            solve (String_map.add x t s') rest
        in
        match (Term.view a, Term.view b) with
        | Term.Var (x, sort), _ -> bind_var x sort b
        | _, Term.Var (x, sort) -> bind_var x sort a
        | Term.App (f, xs), Term.App (g, ys) when Op.equal f g ->
          solve s (List.combine xs ys @ rest)
        | Term.Ite (c1, t1, e1), Term.Ite (c2, t2, e2) ->
          solve s ((c1, c2) :: (t1, t2) :: (e1, e2) :: rest)
        | _ -> None
      end
  in
  solve empty [ (a, b) ]

let variant a b =
  let renaming_only s =
    List.for_all
      (fun (_, t) -> match Term.view t with Term.Var _ -> true | _ -> false)
      (bindings s)
  in
  match (match_term ~pattern:a b, match_term ~pattern:b a) with
  | Some s1, Some s2 -> renaming_only s1 && renaming_only s2
  | _ -> false
