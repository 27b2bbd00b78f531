(* Shared fixtures and Alcotest testables for the whole suite. *)

open Adt

let term_testable = Alcotest.testable Term.pp Term.equal
let sort_testable = Alcotest.testable Sort.pp Sort.equal
let op_testable = Alcotest.testable Op.pp Op.equal

let subst_testable = Alcotest.testable Subst.pp Subst.equal

let check_term = Alcotest.check term_testable
let check_terms = Alcotest.check (Alcotest.list term_testable)

(* a tiny free signature over one sort, used by the structural tests *)
let nat = Sort.v "N"
let zero_op = Op.v "z" ~args:[] ~result:nat
let succ_op = Op.v "s" ~args:[ nat ] ~result:nat
let plus_op = Op.v "plus" ~args:[ nat; nat ] ~result:nat
let isz_op = Op.v "isz" ~args:[ nat ] ~result:Sort.bool

let base_signature =
  List.fold_left
    (fun sg op -> Signature.add_op op sg)
    (Signature.add_sort nat Signature.empty)
    [ zero_op; succ_op; plus_op; isz_op ]

let z = Term.const zero_op
let s t = Term.app succ_op [ t ]
let plus a b = Term.app plus_op [ a; b ]
let isz t = Term.app isz_op [ t ]
let v name = Term.var name nat

let rec church n = if n = 0 then z else s (church (n - 1))

let nat_axioms =
  let m = v "m" and n' = v "n" in
  [
    Axiom.v ~name:"p0" ~lhs:(plus z n') ~rhs:n' ();
    Axiom.v ~name:"ps" ~lhs:(plus (s m) n') ~rhs:(s (plus m n')) ();
    Axiom.v ~name:"iz" ~lhs:(isz z) ~rhs:Term.tt ();
    Axiom.v ~name:"is" ~lhs:(isz (s m)) ~rhs:Term.ff ();
  ]

let nat_spec =
  Spec.v ~name:"N" ~signature:base_signature ~constructors:[ "z"; "s" ]
    ~axioms:nat_axioms ()

let nat_system = Rewrite.of_spec nat_spec

(* parse helpers over an arbitrary spec *)
let parse_term_exn ?vars ?expected spec src =
  match Parser.parse_term spec ?vars ?expected src with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse_term %S: %a" src Parser.pp_error e

let parse_spec_exn ?env src =
  match Parser.parse_spec ?env src with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse_spec: %a" Parser.pp_error e

let case name f = Alcotest.test_case name `Quick f

(* [TEST_DIFF_LONG=1] (the weekly CI fuzz job sets it) multiplies the
   volume of the randomized suites that read it *)
let long_mode =
  match Sys.getenv_opt "TEST_DIFF_LONG" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* {1 Random well-sorted corpus terms}

   The generator behind the differential suites ([test_diff], the
   automaton tests): random well-sorted terms over the FULL signature of
   a corpus specification — defined operations, constructor subterms via
   [Enum], occasional variables, [error], and if-then-else — so they
   exercise rule dispatch, strict error propagation, lazy conditionals,
   and stuck terms alike. *)

module Corpus_gen = struct
  (* atoms for the corpus's parameter sorts, so [Enum] can populate them *)
  let atoms sort =
    match Sort.name sort with
    | "Item" -> List.init 3 (fun i -> Adt_specs.Builtins.item (i + 1))
    | "Identifier" -> List.map Adt_specs.Identifier.id [ "X"; "Y"; "Z" ]
    | _ -> []

  type ctx = { spec : Spec.t; universe : Enum.universe; has_bool : bool }

  let ctx_of spec =
    {
      spec;
      universe = Enum.universe ~atoms spec;
      has_bool = Signature.mem_sort Sort.bool (Spec.signature spec);
    }

  let pick st l = List.nth l (Random.State.int st (List.length l))

  (* a small leaf: usually a ground constructor term, sometimes a variable,
     [error] when the sort has no generators at all *)
  let leaf ctx sort st =
    if Random.State.int st 10 = 0 then Term.var (pick st [ "x"; "y" ]) sort
    else
      match Enum.random_term ctx.universe sort ~size:5 st with
      | Some t -> t
      | None -> Term.err sort

  (* a random well-sorted term of the given sort over the full signature;
     [budget] bounds the recursion *)
  let rec gen_term ctx sort ~budget st =
    if budget <= 0 then leaf ctx sort st
    else
      let roll = Random.State.int st 100 in
      if roll < 6 then leaf ctx sort st
      else if roll < 9 then Term.err sort
      else if roll < 22 && ctx.has_bool then
        let sub = budget / 3 in
        Term.ite
          (gen_term ctx Sort.bool ~budget:sub st)
          (gen_term ctx sort ~budget:sub st)
          (gen_term ctx sort ~budget:sub st)
      else
        match Signature.ops_with_result sort (Spec.signature ctx.spec) with
        | [] -> leaf ctx sort st
        | ops ->
          (* prefer non-nullary operations while budget remains, otherwise
             the branching process dies out and terms stay trivially small *)
          let heavy = List.filter (fun o -> Op.args o <> []) ops in
          let op = pick st (if heavy = [] then ops else heavy) in
          let arity = List.length (Op.args op) in
          let sub = if arity = 0 then 0 else (budget - 1) / arity in
          Term.app op
            (List.map (fun s -> gen_term ctx s ~budget:sub st) (Op.args op))

  let root_sorts ctx =
    Sort.Set.elements (Signature.sorts (Spec.signature ctx.spec))

  (* the generator draws one integer from QCheck2 (so QCHECK_SEED pins the
     whole run) and derives everything else from a private PRNG state *)
  let term_gen ctx =
    QCheck2.Gen.map
      (fun seed ->
        let st = Random.State.make [| seed; 0x9e3779 |] in
        let sort = pick st (root_sorts ctx) in
        gen_term ctx sort ~budget:(16 + Random.State.int st 48) st)
      QCheck2.Gen.(int_range 0 max_int)
end
