type t = {
  name : string;
  signature : Signature.t;
  constructors : Op.Set.t;
  axioms : Axiom.t list;
}

let resolve_constructor sg cname =
  match Signature.find_op cname sg with
  | Some op -> op
  | None ->
    invalid_arg
      (Fmt.str "Spec: constructor %s is not an operation of the signature"
         cname)

let validate_axioms sg axioms =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun ax ->
      (match Axiom.check sg ax with
      | Ok () -> ()
      | Error msg ->
        invalid_arg (Fmt.str "Spec: ill-formed axiom %a: %s" Axiom.pp ax msg));
      let n = Axiom.name ax in
      if not (String.equal n "") then begin
        (match Hashtbl.find_opt seen n with
        | Some other when not (Axiom.same_equation other ax) ->
          invalid_arg (Fmt.str "Spec: duplicate axiom name %s" n)
        | _ -> ());
        Hashtbl.replace seen n ax
      end)
    axioms

let v ~name ~signature ?(constructors = []) ~axioms () =
  validate_axioms signature axioms;
  let constructors =
    List.fold_left
      (fun acc cname -> Op.Set.add (resolve_constructor signature cname) acc)
      (Op.Set.of_list [ Signature.true_op; Signature.false_op ])
      constructors
  in
  { name; signature; constructors; axioms }

let name t = t.name
let signature t = t.signature
let axioms t = t.axioms
let constructors t = t.constructors

let constructors_of_sort sort t =
  List.filter
    (fun op -> Op.Set.mem op t.constructors)
    (Signature.ops_with_result sort t.signature)

let has_constructors sort t = constructors_of_sort sort t <> []
let is_constructor op t = Op.Set.mem op t.constructors

let is_constructor_name cname t =
  match Signature.find_op cname t.signature with
  | Some op -> is_constructor op t
  | None -> false

let observers t =
  List.filter
    (fun op ->
      (not (Op.Set.mem op t.constructors))
      && (not (Op.equal op Signature.true_op))
      && not (Op.equal op Signature.false_op))
    (Signature.ops t.signature)

let find_op opname t = Signature.find_op opname t.signature
let find_op_exn opname t = Signature.find_op_exn opname t.signature
let op_exn t opname = find_op_exn opname t

let axioms_for op t =
  List.filter (fun ax -> Op.equal (Axiom.head ax) op) t.axioms

let find_axiom axname t =
  List.find_opt (fun ax -> String.equal (Axiom.name ax) axname) t.axioms

let sorts_of_interest t =
  let sorts =
    Op.Set.fold
      (fun op acc ->
        let s = Op.result op in
        if List.exists (Sort.equal s) acc then acc else s :: acc)
      t.constructors []
  in
  List.rev sorts

let union ?name:uname a b =
  let signature = Signature.union a.signature b.signature in
  let extra =
    List.filter
      (fun bx ->
        not
          (List.exists
             (fun ax ->
               String.equal (Axiom.name ax) (Axiom.name bx)
               && not (String.equal (Axiom.name ax) "")
               || Axiom.same_equation ax bx)
             a.axioms))
      b.axioms
  in
  List.iter
    (fun bx ->
      let n = Axiom.name bx in
      if not (String.equal n "") then
        match List.find_opt (fun ax -> String.equal (Axiom.name ax) n) a.axioms with
        | Some ax when not (Axiom.same_equation ax bx) ->
          invalid_arg
            (Fmt.str "Spec.union: axiom name %s denotes different equations" n)
        | _ -> ())
    b.axioms;
  let axioms = a.axioms @ extra in
  validate_axioms signature axioms;
  {
    name = (match uname with Some n -> n | None -> a.name ^ "+" ^ b.name);
    signature;
    constructors = Op.Set.union a.constructors b.constructors;
    axioms;
  }

let with_axioms extra t =
  validate_axioms t.signature (t.axioms @ extra);
  { t with axioms = t.axioms @ extra }

let without_axiom axname t =
  {
    t with
    axioms = List.filter (fun ax -> not (String.equal (Axiom.name ax) axname)) t.axioms;
  }

let rec is_constructor_term t term =
  match Term.view term with
  | Term.Var _ -> true
  | Term.Err _ -> false
  | Term.App (op, args) ->
    is_constructor op t && List.for_all (is_constructor_term t) args
  | Term.Ite _ -> false

let is_constructor_ground_term t term =
  Term.is_ground term && is_constructor_term t term

let pp ppf t =
  let pp_ctor ppf op = Op.pp ppf op in
  Fmt.pf ppf "@[<v>spec %s@,@[<v 2>ops@,%a@]@,constructors %a@,@[<v 2>axioms@,%a@]@,end@]"
    t.name
    Fmt.(list ~sep:cut Op.pp_decl)
    (List.filter
       (fun op ->
         (not (Op.equal op Signature.true_op))
         && not (Op.equal op Signature.false_op))
       (Signature.ops t.signature))
    Fmt.(list ~sep:sp pp_ctor)
    (Op.Set.elements t.constructors)
    Fmt.(list ~sep:cut Axiom.pp)
    t.axioms
