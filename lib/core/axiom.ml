type t = { name : string; lhs : Term.t; rhs : Term.t }

let v ?(name = "") ?(allow_free_rhs = false) ~lhs ~rhs () =
  if not (Sort.equal (Term.sort_of lhs) (Term.sort_of rhs)) then
    invalid_arg
      (Fmt.str "Axiom.v: %a has sort %a but %a has sort %a" Term.pp lhs
         Sort.pp (Term.sort_of lhs) Term.pp rhs Sort.pp (Term.sort_of rhs));
  (match Term.view lhs with
  | Term.App _ -> ()
  | _ ->
    invalid_arg
      (Fmt.str "Axiom.v: left-hand side %a must be an operation application"
         Term.pp lhs));
  if not allow_free_rhs then begin
    let lvars = Term.vars lhs in
    List.iter
      (fun (x, s) ->
        if not (List.mem (x, s) lvars) then
          invalid_arg
            (Fmt.str "Axiom.v: variable %s of the right-hand side %a is absent from the left-hand side %a"
               x Term.pp rhs Term.pp lhs))
      (Term.vars rhs)
  end;
  { name; lhs; rhs }

let free_rhs_vars a =
  let lvars = Term.vars a.lhs in
  List.filter (fun v -> not (List.mem v lvars)) (Term.vars a.rhs)

let is_executable a = free_rhs_vars a = []

let name a = a.name
let lhs a = a.lhs
let rhs a = a.rhs

let head a =
  match Term.view a.lhs with
  | Term.App (op, _) -> op
  | _ -> assert false (* excluded by [v] *)

let vars a =
  let lvars = Term.vars a.lhs in
  let rvars = Term.vars a.rhs in
  lvars @ List.filter (fun v -> not (List.mem v lvars)) rvars

let is_left_linear a =
  let rec count x t =
    match Term.view t with
    | Term.Var (y, _) -> if String.equal x y then 1 else 0
    | Term.Err _ -> 0
    | Term.App (_, args) -> List.fold_left (fun n t -> n + count x t) 0 args
    | Term.Ite (c, t, e) -> count x c + count x t + count x e
  in
  List.for_all (fun (x, _) -> count x a.lhs <= 1) (Term.vars a.lhs)

let rename f a = { a with lhs = Term.rename f a.lhs; rhs = Term.rename f a.rhs }

let check sg a =
  match Term.check sg a.lhs with
  | Error _ as e -> e
  | Ok () -> Term.check sg a.rhs

let instantiate s a = (Subst.apply s a.lhs, Subst.apply s a.rhs)

let equal a b =
  String.equal a.name b.name && Term.equal a.lhs b.lhs && Term.equal b.rhs a.rhs

let same_equation a b =
  let pair ax =
    (* encode the equation as a single term through a throwaway tuple
       operation so variant-checking sees both sides at once *)
    let sort = Term.sort_of ax.lhs in
    let op = Op.v "=" ~args:[ sort; sort ] ~result:Sort.bool in
    Term.app op [ ax.lhs; ax.rhs ]
  in
  Sort.equal (Term.sort_of a.lhs) (Term.sort_of b.lhs)
  && Subst.variant (pair a) (pair b)

let pp ppf a =
  if String.equal a.name "" then
    Fmt.pf ppf "@[<hov 2>%a =@ %a@]" Term.pp a.lhs Term.pp a.rhs
  else
    Fmt.pf ppf "@[<hov 2>[%s] %a =@ %a@]" a.name Term.pp a.lhs Term.pp a.rhs
