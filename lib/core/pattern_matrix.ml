type t = { spec : Spec.t; sorts : Sort.t list; rows : Term.t list list }

let create spec ~sorts ~rows =
  let width = List.length sorts in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Fmt.str "Pattern_matrix.create: row %d has %d patterns, expected %d"
             i (List.length row) width))
    rows;
  { spec; sorts; rows }

(* the head of a pattern, when it is a constructor application of the
   matrix's specification; anything else (wildcard, observer application,
   error, if-then-else) answers None *)
let ctor_head spec p =
  match Term.view p with
  | Term.App (op, args) when Spec.is_constructor op spec -> Some (op, args)
  | _ -> None

let is_wild p = match Term.view p with Term.Var _ -> true | _ -> false
let wild s = Term.var (String.lowercase_ascii (Sort.name s)) s
let wilds op = List.map wild (Op.args op)

let rec take n = function
  | rest when n = 0 -> ([], rest)
  | [] -> invalid_arg "Pattern_matrix.take"
  | x :: rest ->
    let xs, rest = take (n - 1) rest in
    (x :: xs, rest)

(* S(c, P): rows whose first column is compatible with constructor [c],
   the column replaced by c's argument columns *)
let specialize spec c rows =
  List.filter_map
    (fun row ->
      match row with
      | [] -> None
      | p :: rest -> (
        match ctor_head spec p with
        | Some (op, args) when Op.equal op c -> Some (args @ rest)
        | Some _ -> None
        | None -> if is_wild p then Some (wilds c @ rest) else None))
    rows

(* D(P): rows whose first column is a wildcard, the column dropped *)
let default rows =
  List.filter_map
    (fun row ->
      match row with
      | [] -> None
      | p :: rest -> if is_wild p then Some rest else None)
    rows

let first_column_heads spec rows =
  List.filter_map
    (fun row ->
      match row with
      | [] -> None
      | p :: _ -> Option.map fst (ctor_head spec p))
    rows

(* every uncovered vector, in constructor declaration order (Maranget's
   usefulness recursion for the all-wildcard query, listing instead of
   stopping at the first witness). A column whose rows carry some
   constructor heads splits on each constructor of its sort: an absent one
   is emitted over the default matrix, a present one recursed into. A
   column with no constructor heads stays a wildcard. *)
let rec holes_rec spec srts rws =
  match srts with
  | [] -> if rws = [] then [ [] ] else []
  | s :: srts' -> (
    let prefix head = List.map (fun w -> head :: w) in
    match first_column_heads spec rws with
    | [] -> prefix (wild s) (holes_rec spec srts' (default rws))
    | heads ->
      let absent = lazy (holes_rec spec srts' (default rws)) in
      List.concat_map
        (fun c ->
          if List.exists (Op.equal c) heads then
            List.map
              (fun w ->
                let args, rest = take (Op.arity c) w in
                Term.app c args :: rest)
              (holes_rec spec (Op.args c @ srts') (specialize spec c rws))
          else prefix (Term.app c (wilds c)) (Lazy.force absent))
        (Spec.constructors_of_sort s spec))

let holes m = holes_rec m.spec m.sorts m.rows

let instantiate_wildcards spec t =
  (* prefer a constant constructor so witnesses stay small; bound the
     recursion so a sort whose constructors all recurse (which ADT013
     reports separately) falls back to a variable instead of looping *)
  let rec fill depth s =
    if depth = 0 then None
    else
      match Spec.constructors_of_sort s spec with
      | [] -> None
      | ctors ->
        let pick =
          match List.find_opt Op.is_constant ctors with
          | Some c -> c
          | None -> List.hd ctors
        in
        let args =
          List.map
            (fun s' ->
              match fill (depth - 1) s' with
              | Some t -> t
              | None -> wild s')
            (Op.args pick)
        in
        Some (Term.app pick args)
  in
  Term.map_vars
    (fun x s -> match fill 6 s with Some t -> t | None -> Term.var x s)
    t

let uncovered m =
  match holes m with
  | [] -> None
  | w :: _ -> Some (List.map (instantiate_wildcards m.spec) w)

let exhaustive m = holes m = []
