open Adt

let bool_sort = Sort.bool

let not_op = Op.v "NOT" ~args:[ bool_sort ] ~result:bool_sort
let and_op = Op.v "AND" ~args:[ bool_sort; bool_sort ] ~result:bool_sort
let or_op = Op.v "OR" ~args:[ bool_sort; bool_sort ] ~result:bool_sort

let not_ a = Term.app not_op [ a ]
let and_ a b = Term.app and_op [ a; b ]
let or_ a b = Term.app or_op [ a; b ]

let bool_spec =
  let signature =
    List.fold_left
      (fun sg op -> Signature.add_op op sg)
      Signature.empty
      [ not_op; and_op; or_op ]
  in
  let b = Term.var "b" bool_sort in
  let ax name lhs rhs = Axiom.v ~name ~lhs ~rhs () in
  Spec.v ~name:"Bool" ~signature
    ~axioms:
      [
        ax "not_t" (not_ Term.tt) Term.ff;
        ax "not_f" (not_ Term.ff) Term.tt;
        ax "and_t" (and_ Term.tt b) b;
        ax "and_f" (and_ Term.ff b) Term.ff;
        ax "or_t" (or_ Term.tt b) Term.tt;
        ax "or_f" (or_ Term.ff b) b;
      ]
    ()

let nat_sort = Sort.v "Nat"

let zero_op = Op.v "ZERO" ~args:[] ~result:nat_sort
let succ_op = Op.v "SUCC" ~args:[ nat_sort ] ~result:nat_sort
let plus_op = Op.v "PLUS" ~args:[ nat_sort; nat_sort ] ~result:nat_sort
let eq_nat_op = Op.v "EQ_NAT?" ~args:[ nat_sort; nat_sort ] ~result:bool_sort

let zero = Term.const zero_op
let succ n = Term.app succ_op [ n ]

let rec nat_of_int i =
  if i < 0 then invalid_arg "Builtins.nat_of_int: negative"
  else if i = 0 then zero
  else succ (nat_of_int (i - 1))

let rec int_of_nat t =
  match Term.view t with
  | Term.App (op, []) when Op.equal op zero_op -> Some 0
  | Term.App (op, [ n ]) when Op.equal op succ_op ->
    Option.map (fun i -> i + 1) (int_of_nat n)
  | _ -> None

let plus a b = Term.app plus_op [ a; b ]
let eq_nat a b = Term.app eq_nat_op [ a; b ]

let nat_spec =
  let signature =
    List.fold_left
      (fun sg op -> Signature.add_op op sg)
      (Signature.add_sort nat_sort Signature.empty)
      [ zero_op; succ_op; plus_op; eq_nat_op ]
  in
  let m = Term.var "m" nat_sort and n = Term.var "n" nat_sort in
  let ax name lhs rhs = Axiom.v ~name ~lhs ~rhs () in
  Spec.v ~name:"Nat" ~signature
    ~constructors:[ "ZERO"; "SUCC" ]
    ~axioms:
      [
        ax "plus_z" (plus zero n) n;
        ax "plus_s" (plus (succ m) n) (succ (plus m n));
        ax "eq_zz" (eq_nat zero zero) Term.tt;
        ax "eq_zs" (eq_nat zero (succ n)) Term.ff;
        ax "eq_sz" (eq_nat (succ m) zero) Term.ff;
        ax "eq_ss" (eq_nat (succ m) (succ n)) (eq_nat m n);
      ]
    ()

let item_sort = Sort.v "Item"

let item_count = 4

let item_op i = Op.v (Fmt.str "ITEM%d" i) ~args:[] ~result:item_sort

let item i =
  if i < 1 || i > item_count then
    invalid_arg (Fmt.str "Builtins.item: %d out of range 1..%d" i item_count)
  else Term.const (item_op i)

let item_spec =
  let signature =
    List.fold_left
      (fun sg i -> Signature.add_op (item_op i) sg)
      (Signature.add_sort item_sort Signature.empty)
      (List.init item_count (fun i -> i + 1))
  in
  Spec.v ~name:"Item" ~signature
    ~constructors:(List.init item_count (fun i -> Fmt.str "ITEM%d" (i + 1)))
    ~axioms:[] ()
