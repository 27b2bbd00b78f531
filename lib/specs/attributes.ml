open Adt

let sort = Sort.v "Attributelist"
let count = 3

let attr_op i = Op.v (Fmt.str "ATTRS%d" i) ~args:[] ~result:sort

let attrs i =
  if i < 1 || i > count then
    invalid_arg (Fmt.str "Attributes.attrs: %d out of range 1..%d" i count)
  else Term.const (attr_op i)

let mk_op =
  Op.v "MK_ATTRS" ~args:[ Builtins.nat_sort; Builtins.nat_sort ] ~result:sort

let mk ~ty ~slot =
  Term.app mk_op [ Builtins.nat_of_int ty; Builtins.nat_of_int slot ]

let decode t =
  match Term.view t with
  | Term.App (op, [ ty; slot ]) when Op.equal op mk_op -> (
    match (Builtins.int_of_nat ty, Builtins.int_of_nat slot) with
    | Some t, Some s -> Some (t, s)
    | _ -> None)
  | _ -> None

let mk_proc_op =
  Op.v "MK_PROC"
    ~args:[ Builtins.nat_sort; Builtins.nat_sort; Builtins.nat_sort ]
    ~result:sort

(* parameter-type lists ride inside one Nat numeral, base 3, most
   significant digit first; 1 = int, 2 = bool, and the empty list is 0 *)
let encode_params params =
  List.fold_left (fun acc code -> (acc * 3) + code + 1) 0 params

let decode_params n =
  let rec go acc n =
    if n = 0 then acc else go (((n mod 3) - 1) :: acc) (n / 3)
  in
  go [] n

let mk_proc ~ret ~params ~index =
  Term.app mk_proc_op
    [
      Builtins.nat_of_int ret;
      Builtins.nat_of_int (encode_params params);
      Builtins.nat_of_int index;
    ]

let decode_proc t =
  match Term.view t with
  | Term.App (op, [ ret; params; index ]) when Op.equal op mk_proc_op -> (
    match
      ( Builtins.int_of_nat ret,
        Builtins.int_of_nat params,
        Builtins.int_of_nat index )
    with
    | Some r, Some p, Some i -> Some (r, decode_params p, i)
    | _ -> None)
  | _ -> None

let eq_op = Op.v "EQ_ATTRS?" ~args:[ sort; sort ] ~result:Sort.bool
let eq a b = Term.app eq_op [ a; b ]

let spec =
  let ids = List.init count (fun i -> i + 1) in
  let base =
    Spec.union ~name:"Attributelist" Builtins.nat_spec Builtins.bool_spec
  in
  let signature =
    List.fold_left
      (fun sg i -> Signature.add_op (attr_op i) sg)
      (Signature.add_sort sort (Spec.signature base))
      ids
  in
  let signature = Signature.add_op mk_op signature in
  let signature = Signature.add_op mk_proc_op signature in
  let signature = Signature.add_op eq_op signature in
  let m = Term.var "m" Builtins.nat_sort
  and n = Term.var "n" Builtins.nat_sort
  and m1 = Term.var "m1" Builtins.nat_sort
  and n1 = Term.var "n1" Builtins.nat_sort
  and p = Term.var "p" Builtins.nat_sort
  and p1 = Term.var "p1" Builtins.nat_sort in
  let mk_term a b = Term.app mk_op [ a; b ] in
  let mk_proc_term a b c = Term.app mk_proc_op [ a; b; c ] in
  let atom_axioms =
    List.concat_map
      (fun i ->
        List.map
          (fun j ->
            Axiom.v
              ~name:(Fmt.str "eq_attrs_%d_%d" i j)
              ~lhs:(eq (attrs i) (attrs j))
              ~rhs:(if i = j then Term.tt else Term.ff)
              ())
          ids)
      ids
  in
  let mixed_axioms =
    List.concat_map
      (fun i ->
        [
          Axiom.v
            ~name:(Fmt.str "eq_attrs_%d_mk" i)
            ~lhs:(eq (attrs i) (mk_term m n))
            ~rhs:Term.ff ();
          Axiom.v
            ~name:(Fmt.str "eq_attrs_mk_%d" i)
            ~lhs:(eq (mk_term m n) (attrs i))
            ~rhs:Term.ff ();
        ])
      ids
  in
  let mk_axiom =
    Axiom.v ~name:"eq_attrs_mk_mk"
      ~lhs:(eq (mk_term m n) (mk_term m1 n1))
      ~rhs:(Builtins.and_ (Builtins.eq_nat m m1) (Builtins.eq_nat n n1))
      ()
  in
  let proc_axioms =
    List.concat_map
      (fun i ->
        [
          Axiom.v
            ~name:(Fmt.str "eq_attrs_%d_proc" i)
            ~lhs:(eq (attrs i) (mk_proc_term m n p))
            ~rhs:Term.ff ();
          Axiom.v
            ~name:(Fmt.str "eq_attrs_proc_%d" i)
            ~lhs:(eq (mk_proc_term m n p) (attrs i))
            ~rhs:Term.ff ();
        ])
      ids
    @ [
        Axiom.v ~name:"eq_attrs_mk_proc"
          ~lhs:(eq (mk_term m n) (mk_proc_term m1 n1 p))
          ~rhs:Term.ff ();
        Axiom.v ~name:"eq_attrs_proc_mk"
          ~lhs:(eq (mk_proc_term m n p) (mk_term m1 n1))
          ~rhs:Term.ff ();
        Axiom.v ~name:"eq_attrs_proc_proc"
          ~lhs:(eq (mk_proc_term m n p) (mk_proc_term m1 n1 p1))
          ~rhs:
            (Builtins.and_ (Builtins.eq_nat m m1)
               (Builtins.and_ (Builtins.eq_nat n n1) (Builtins.eq_nat p p1)))
          ();
      ]
  in
  let fresh =
    Spec.v ~name:"Attributelist" ~signature
      ~constructors:
        ("MK_ATTRS" :: "MK_PROC" :: List.map (fun i -> Fmt.str "ATTRS%d" i) ids)
      ~axioms:(atom_axioms @ mixed_axioms @ [ mk_axiom ] @ proc_axioms)
      ()
  in
  Spec.union ~name:"Attributelist" base fresh
