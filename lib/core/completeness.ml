type hole = { op : Op.t; pattern : Term.t; witness : Term.t; decided : bool }

let lhs_args ax =
  match Term.view (Axiom.lhs ax) with Term.App (_, args) -> args | _ -> []

(* a row joins the matrix only when its patterns are constructor contexts:
   an argument pattern headed by an observer, [error] or [if-then-else]
   never matches a ground constructor term, so such an axiom contributes
   nothing to coverage (ADT014 reports the error case separately) *)
let admissible spec ax =
  List.for_all (Spec.is_constructor_term spec) (lhs_args ax)

(* the matrix names every wildcard of a sort alike; keep the first
   occurrence of a name and freshen the later ones, so a hole is a
   left-linear pattern (and a stub built from it a left-linear axiom) *)
let rename_apart t =
  let taken = ref [] in
  Term.map_vars
    (fun x s ->
      let name =
        if List.mem_assoc x !taken then Term.fresh_wrt ~avoid:!taken x s else x
      in
      taken := (name, s) :: !taken;
      Term.var name s)
    t

(* brute-force confirmation used when non-left-linear axioms are in play:
   an instance of [within] built from ground constructor arguments that no
   executable left-hand side matches at the root, if one exists within the
   size bound *)
let ground_witness u op ~within patterns ~size =
  let choices = List.map (fun s -> Enum.terms_up_to u s ~size) (Op.args op) in
  let exception Found of Term.t in
  let check args =
    let t = Term.app op args in
    if
      Subst.matches ~pattern:within t
      && not (List.exists (fun p -> Subst.matches ~pattern:p t) patterns)
    then raise (Found t)
  in
  let rec product acc = function
    | [] -> check (List.rev acc)
    | cs :: rest -> List.iter (fun c -> product (c :: acc) rest) cs
  in
  try
    product [] choices;
    None
  with Found t -> Some t

let op_holes spec op =
  let axioms = Spec.axioms_for op spec in
  let rows =
    List.filter (fun ax -> Axiom.is_executable ax && admissible spec ax) axioms
  in
  let linear, nonlinear = List.partition Axiom.is_left_linear rows in
  let m =
    Pattern_matrix.create spec ~sorts:(Op.args op)
      ~rows:(List.map lhs_args linear)
  in
  let universe = lazy (Enum.universe spec) in
  List.map
    (fun args ->
      let pattern = rename_apart (Term.app op args) in
      let hole =
        {
          op;
          pattern;
          witness = Pattern_matrix.instantiate_wildcards spec pattern;
          decided = nonlinear = [];
        }
      in
      if nonlinear = [] then hole
      else
        (* the excluded non-left-linear rows may cover the pattern; decide
           by ground enumeration over a small universe *)
        match
          ground_witness (Lazy.force universe) op ~within:pattern
            (List.map Axiom.lhs rows) ~size:4
        with
        | Some w -> { op; pattern = w; witness = w; decided = true }
        | None -> hole)
    (Pattern_matrix.holes m)

(* a parameter operation (no axioms, no constructor-bearing argument) has
   nothing to be defined by cases on *)
let parameter_op spec op =
  Spec.axioms_for op spec = []
  && not (List.exists (fun s -> Spec.has_constructors s spec) (Op.args op))

let holes spec =
  List.concat_map
    (fun op -> if parameter_op spec op then [] else op_holes spec op)
    (Spec.observers spec)
