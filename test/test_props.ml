(* Property-based tests (QCheck2, registered as Alcotest cases).

   Generators produce random ground constructor terms and random operation
   sequences; properties pin down the core invariants: substitution laws,
   unification soundness, normalization idempotence and value-ness,
   LPO strictness, Phi homomorphisms, and spec-vs-implementation agreement
   on arbitrary workloads. *)

open Adt
open Helpers
open Adt_specs

let item_gen = QCheck2.Gen.map Builtins.item (QCheck2.Gen.int_range 1 4)

(* random ground Nat terms (constructor terms of the helper spec) *)
let nat_term_gen =
  QCheck2.Gen.map church (QCheck2.Gen.int_range 0 12)

(* random open terms over the helper Nat signature *)
let open_term_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof [ return z; map v (oneofl [ "x"; "y"; "z" ]) ]
      else
        frequency
          [
            (1, return z);
            (1, map v (oneofl [ "x"; "y"; "z" ]));
            (2, map s (self (n - 1)));
            (2, map2 plus (self (n / 2)) (self (n / 2)));
          ])

let prop_subst_apply_ground =
  qcheck "substituting a ground term grounds the variable" open_term_gen
    (fun t ->
      let sub = Subst.singleton "x" (church 2) in
      let t' = Subst.apply sub t in
      not (List.exists (fun (n, _) -> n = "x") (Term.vars t')))

let prop_subst_compose =
  qcheck "compose s1 s2 = apply s1 then s2"
    QCheck2.Gen.(pair open_term_gen (pair nat_term_gen nat_term_gen))
    (fun (t, (a, b)) ->
      let s1 = Subst.singleton "x" a and s2 = Subst.singleton "y" b in
      Term.equal
        (Subst.apply (Subst.compose s1 s2) t)
        (Subst.apply s2 (Subst.apply s1 t)))

let prop_match_sound =
  qcheck "matching reconstructs the subject"
    QCheck2.Gen.(pair open_term_gen nat_term_gen)
    (fun (pattern, filler) ->
      (* build a subject by grounding the pattern, then match *)
      let ground =
        Term.map_vars (fun _ _ -> filler) pattern
      in
      match Subst.match_term ~pattern ground with
      | Some sub -> Term.equal (Subst.apply sub pattern) ground
      | None -> false)

let prop_unify_sound =
  qcheck "unifiers unify" QCheck2.Gen.(pair open_term_gen open_term_gen)
    (fun (a, b) ->
      (* separate the variable namespaces first *)
      let b = Term.rename (fun x -> x ^ "'") b in
      match Subst.unify a b with
      | None -> true
      | Some mgu -> Term.equal (Subst.apply mgu a) (Subst.apply mgu b))

let prop_normalize_idempotent =
  qcheck "normalization is idempotent" open_term_gen (fun t ->
      let nf = Rewrite.normalize nat_system t in
      Term.equal nf (Rewrite.normalize nat_system nf))

let prop_ground_normal_forms_are_values =
  qcheck "ground normal forms are constructor terms" nat_term_gen (fun t ->
      let t = plus t (church 3) in
      Spec.is_constructor_ground_term nat_spec (Rewrite.normalize nat_system t))

let prop_plus_is_addition =
  qcheck "plus computes addition" QCheck2.Gen.(pair (int_range 0 15) (int_range 0 15))
    (fun (a, b) ->
      Term.equal (church (a + b)) (Rewrite.normalize nat_system (plus (church a) (church b))))

let prop_lpo_strict_on_rewrites =
  qcheck "rewriting strictly decreases the LPO" open_term_gen (fun t ->
      let prec = Ordering.search_precedence (Ordering.search nat_spec) in
      match Rewrite.step nat_system t with
      | None -> true
      | Some e -> Ordering.lpo_gt prec e.Rewrite.before e.Rewrite.after)

(* {2 Queue properties} *)

let queue_ops_gen =
  (* a random sequence of queue operations *)
  let open QCheck2.Gen in
  list_size (int_range 0 25)
    (oneof [ map (fun i -> `Add i) item_gen; return `Remove ])

let apply_ops_model ops =
  (* reference: OCaml list, front first; error states are sticky *)
  List.fold_left
    (fun acc op ->
      match (acc, op) with
      | None, _ -> None
      | Some l, `Add i -> Some (l @ [ i ])
      | Some (_ :: rest), `Remove -> Some rest
      | Some [], `Remove -> None)
    (Some []) ops

let apply_ops_symbolically ops =
  let interp = Interp.create Queue_spec.spec in
  let term =
    List.fold_left
      (fun q op ->
        match op with
        | `Add i -> Queue_spec.add q i
        | `Remove -> Queue_spec.remove q)
      Queue_spec.new_ ops
  in
  match Interp.eval interp term with
  | Interp.Value t -> Some t
  | Interp.Error_value _ -> None
  | other -> Alcotest.failf "unexpected %a" Interp.pp_value other

let prop_queue_spec_vs_list_model =
  qcheck ~count:300 "Queue axioms = list semantics on random programs"
    queue_ops_gen (fun ops ->
      match (apply_ops_model ops, apply_ops_symbolically ops) with
      | None, None -> true
      | Some l, Some t -> Queue_spec.to_items t = Some l
      | _ -> false)

let prop_queue_impl_vs_spec =
  qcheck ~count:300 "two-list queue = Queue axioms on random programs"
    queue_ops_gen (fun ops ->
      let impl =
        List.fold_left
          (fun acc op ->
            match (acc, op) with
            | None, _ -> None
            | Some q, `Add i -> Some (Queue_impl.add q i)
            | Some q, `Remove -> (
              match Queue_impl.remove q with
              | q' -> Some q'
              | exception Queue_impl.Error -> None))
          (Some Queue_impl.empty) ops
      in
      match (impl, apply_ops_symbolically ops) with
      | None, None -> true
      | Some q, Some t -> Term.equal (Queue_impl.abstraction q) t
      | _ -> false)

(* {2 Symbol table properties} *)

let symtab_ops_gen =
  let open QCheck2.Gen in
  let id = map Identifier.id (oneofl [ "X"; "Y"; "Z"; "W" ]) in
  let attr = map Attributes.attrs (int_range 1 3) in
  list_size (int_range 0 20)
    (oneof
       [
         map2 (fun i a -> `Add (i, a)) id attr;
         return `Enter;
         return `Leave;
         map (fun i -> `Retrieve i) id;
       ])

let prop_symtab_impl_vs_spec =
  qcheck ~count:200 "stack-of-arrays = Symboltable axioms on random programs"
    symtab_ops_gen (fun ops ->
      let module I = Symboltable_impl.Hash in
      let interp = Interp.create Symboltable_spec.spec in
      let retrieve_sym term id =
        match Interp.eval interp (Symboltable_spec.retrieve term id) with
        | Interp.Value v -> Some v
        | _ -> None
      in
      (* replay; Leave on the outermost scope is skipped on both sides *)
      let rec go term st depth = function
        | [] -> true
        | `Add (i, a) :: rest ->
          go (Symboltable_spec.add term i a) (I.add st i a) depth rest
        | `Enter :: rest ->
          go (Symboltable_spec.enterblock term) (I.enterblock st) (depth + 1) rest
        | `Leave :: rest ->
          if depth = 1 then go term st depth rest
          else go (Symboltable_spec.leaveblock term) (I.leaveblock st) (depth - 1) rest
        | `Retrieve i :: rest ->
          Option.equal Term.equal (retrieve_sym term i) (I.retrieve st i)
          && go term st depth rest
      in
      go Symboltable_spec.init (I.init ()) 1 ops)

(* {2 Enumeration properties} *)

let prop_enum_sizes =
  qcheck ~count:20 "enumerated terms have the advertised size"
    (QCheck2.Gen.int_range 1 7) (fun n ->
      let u = Enum.universe nat_spec in
      List.for_all (fun t -> Term.size t = n) (Enum.terms_exactly u nat ~size:n))

let prop_random_term_bounded =
  qcheck "random terms respect the size bound loosely"
    (QCheck2.Gen.int_range 1 30) (fun n ->
      let u = Enum.universe nat_spec in
      let state = Random.State.make [| n |] in
      match Enum.random_term u nat ~size:n state with
      | Some t -> Term.size t <= (2 * n) + 1
      | None -> false)

(* {2 Pretty/parse round trip} *)

let prop_pretty_parse_nat_terms =
  qcheck "printed ground terms re-parse" nat_term_gen (fun t ->
      match Parser.parse_term nat_spec (Term.to_string t) with
      | Ok t' -> Term.equal t t'
      | Error _ -> false)

let suite =
  [
    prop_subst_apply_ground;
    prop_subst_compose;
    prop_match_sound;
    prop_unify_sound;
    prop_normalize_idempotent;
    prop_ground_normal_forms_are_values;
    prop_plus_is_addition;
    prop_lpo_strict_on_rewrites;
    prop_queue_spec_vs_list_model;
    prop_queue_impl_vs_spec;
    prop_symtab_impl_vs_spec;
    prop_enum_sizes;
    prop_random_term_bounded;
    prop_pretty_parse_nat_terms;
  ]
