open Adt

let sort = Sort.v "Identifier"
let default_atoms = [ "X"; "Y"; "Z"; "W" ]
let default_buckets = 3

let atom_op name = Op.v ("ID_" ^ name) ~args:[] ~result:sort
let id name = Term.const (atom_op name)

let same_op = Op.v "SAME?" ~args:[ sort; sort ] ~result:Sort.bool
let hash_op = Op.v "HASH" ~args:[ sort ] ~result:Builtins.nat_sort

let spec_with_atoms ?(buckets = default_buckets) atoms =
  if atoms = [] then invalid_arg "Identifier.spec_with_atoms: no atoms";
  let base =
    Spec.union ~name:"Identifier" Builtins.nat_spec
      (Spec.v ~name:"" ~signature:Signature.empty ~axioms:[] ())
  in
  let signature =
    List.fold_left
      (fun sg a -> Signature.add_op (atom_op a) sg)
      (Signature.add_sort sort (Spec.signature base))
      atoms
  in
  let signature = Signature.add_op same_op signature in
  let signature = Signature.add_op hash_op signature in
  let same_axioms =
    List.concat_map
      (fun a ->
        List.map
          (fun b ->
            Axiom.v
              ~name:(Fmt.str "same_%s_%s" a b)
              ~lhs:(Term.app same_op [ id a; id b ])
              ~rhs:(if String.equal a b then Term.tt else Term.ff)
              ())
          atoms)
      atoms
  in
  let hash_axioms =
    List.mapi
      (fun i a ->
        Axiom.v
          ~name:(Fmt.str "hash_%s" a)
          ~lhs:(Term.app hash_op [ id a ])
          ~rhs:(Builtins.nat_of_int (i mod buckets))
          ())
      atoms
  in
  let fresh =
    Spec.v ~name:"Identifier" ~signature
      ~constructors:(List.map (fun a -> "ID_" ^ a) atoms)
      ~axioms:(same_axioms @ hash_axioms)
      ()
  in
  Spec.union ~name:"Identifier" base fresh

let spec = spec_with_atoms default_atoms

let atom_terms s =
  List.filter_map
    (fun op ->
      let n = Op.name op in
      if String.length n > 3 && String.sub n 0 3 = "ID_" && Op.is_constant op
      then Some (Term.const op)
      else None)
    (Signature.ops (Spec.signature s))
