open Adt
open Helpers
open Adt_specs

let interp = Interp.create Queue_spec.spec
let item = Builtins.item

let test_eval_values () =
  (match Interp.eval interp (Queue_spec.of_items [ item 1 ]) with
  | Interp.Value t -> check_term "already normal" (Queue_spec.of_items [ item 1 ]) t
  | other -> Alcotest.failf "expected value, got %a" Interp.pp_value other);
  match Interp.eval interp (Queue_spec.front (Queue_spec.of_items [ item 1; item 2 ])) with
  | Interp.Value t -> check_term "FIFO front" (item 1) t
  | other -> Alcotest.failf "expected ITEM1, got %a" Interp.pp_value other

let test_fifo_order () =
  (* drain a queue symbolically and observe FIFO order *)
  let rec drain acc q n =
    if n = 0 then List.rev acc
    else
      let front =
        match Interp.eval interp (Queue_spec.front q) with
        | Interp.Value t -> t
        | other -> Alcotest.failf "front: %a" Interp.pp_value other
      in
      let rest =
        match Interp.eval interp (Queue_spec.remove q) with
        | Interp.Value t -> t
        | other -> Alcotest.failf "remove: %a" Interp.pp_value other
      in
      drain (front :: acc) rest (n - 1)
  in
  let q = Queue_spec.of_items [ item 1; item 2; item 3; item 4 ] in
  check_terms "FIFO" [ item 1; item 2; item 3; item 4 ] (drain [] q 4)

let test_eval_errors () =
  (match Interp.eval interp (Queue_spec.front Queue_spec.new_) with
  | Interp.Error_value s -> Alcotest.check sort_testable "item error" Builtins.item_sort s
  | other -> Alcotest.failf "expected error, got %a" Interp.pp_value other);
  (* strict propagation through enclosing operations *)
  match
    Interp.eval interp
      (Queue_spec.is_empty (Queue_spec.add (Queue_spec.remove Queue_spec.new_) (item 1)))
  with
  | Interp.Error_value s -> Alcotest.check sort_testable "bool error" Sort.bool s
  | other -> Alcotest.failf "expected error, got %a" Interp.pp_value other

let test_eval_bool () =
  Alcotest.(check (option bool)) "empty" (Some true)
    (Interp.eval_bool interp (Queue_spec.is_empty Queue_spec.new_));
  Alcotest.(check (option bool)) "nonempty" (Some false)
    (Interp.eval_bool interp (Queue_spec.is_empty (Queue_spec.of_items [ item 1 ])));
  Alcotest.(check (option bool)) "error is not a boolean" None
    (Interp.eval_bool interp (Queue_spec.is_empty (Queue_spec.remove Queue_spec.new_)))

let test_eval_rejects_open_terms () =
  match Interp.eval interp (Queue_spec.is_empty (Term.var "q" Queue_spec.sort)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "open term accepted"

let test_stuck_detection () =
  (* remove an axiom: evaluation reports the stuck term instead of lying *)
  let broken = Interp.create (Spec.without_axiom "4" Queue_spec.spec) in
  match Interp.eval broken (Queue_spec.front (Queue_spec.of_items [ item 1; item 2 ])) with
  | Interp.Stuck t ->
    Alcotest.(check bool) "FRONT survives in the residual" true
      (Term.count_op "FRONT" t > 0)
  | other -> Alcotest.failf "expected stuck, got %a" Interp.pp_value other

let test_apply_and_call () =
  let q = Interp.apply interp "ADD" [ Interp.apply interp "NEW" []; item 2 ] in
  (match Interp.call interp "FRONT" [ q ] with
  | Interp.Value t -> check_term "call" (item 2) t
  | other -> Alcotest.failf "unexpected %a" Interp.pp_value other);
  (match Interp.apply interp "MISSING" [] with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown op accepted");
  match Interp.apply interp "ADD" [ item 1; item 2 ] with
  | exception Term.Ill_sorted _ -> ()
  | _ -> Alcotest.fail "ill-sorted call accepted"

let test_reduce_open_terms () =
  let q = Term.var "q" Queue_spec.sort and i = Term.var "i" Builtins.item_sort in
  check_term "axiom 2 as computation" Term.ff
    (Interp.reduce interp (Queue_spec.is_empty (Queue_spec.add q i)))

let test_steps_grow_with_input () =
  let steps n = Interp.steps interp (Queue_spec.remove (Queue_spec.of_items (List.init n (fun _ -> item 1)))) in
  Alcotest.(check bool) "monotone cost" true (steps 8 > steps 2)

let test_diverged () =
  let loop =
    Spec.v ~name:"L" ~signature:base_signature ~constructors:[ "z"; "s" ]
      ~axioms:[ Axiom.v ~name:"w" ~lhs:(isz (v "x")) ~rhs:(isz (s (v "x"))) () ]
      ()
  in
  let i = Interp.create ~fuel:50 loop in
  match Interp.eval i (isz z) with
  | Interp.Diverged -> ()
  | other -> Alcotest.failf "expected divergence, got %a" Interp.pp_value other

let test_trace_length_matches_steps () =
  let t = Queue_spec.front (Queue_spec.of_items [ item 1; item 2; item 3 ]) in
  let nf, _events = Interp.trace interp t in
  check_term "trace result" (item 1) nf

(* a fork shares the compiled system itself (no second compilation) and
   owns a fresh, empty memo of the parent's capacity *)
let test_fork_shares_system () =
  let parent = Interp.create ~memo:true ~memo_capacity:64 Queue_spec.spec in
  let t = Queue_spec.front (Queue_spec.of_items [ item 1; item 2 ]) in
  ignore (Interp.eval parent t);
  let child = Interp.fork parent in
  Alcotest.(check bool)
    "same compiled system" true
    (Interp.system child == Interp.system parent);
  (match Interp.memo_stats child with
  | None -> Alcotest.fail "the fork lost its memo"
  | Some m ->
    Alcotest.(check int) "same capacity" 64 m.Interp.capacity;
    Alcotest.(check int) "empty" 0 m.Interp.entries;
    Alcotest.(check int) "no hits" 0 m.Interp.hits;
    Alcotest.(check int) "no misses" 0 m.Interp.misses);
  (match Interp.memo_stats parent with
  | Some m -> Alcotest.(check bool) "parent memo kept" true (m.Interp.entries > 0)
  | None -> Alcotest.fail "parent memo missing");
  Alcotest.(check bool)
    "no memo forks to no memo" true
    (Interp.memo_stats (Interp.fork interp) = None)

let suite =
  [
    case "values evaluate to constructor normal forms" test_eval_values;
    case "FIFO order falls out of the axioms" test_fifo_order;
    case "error values and strict propagation" test_eval_errors;
    case "boolean observations" test_eval_bool;
    case "open terms are rejected by eval" test_eval_rejects_open_terms;
    case "incomplete specs yield Stuck, not wrong answers" test_stuck_detection;
    case "apply and call" test_apply_and_call;
    case "reduce handles open terms" test_reduce_open_terms;
    case "cost grows with input size" test_steps_grow_with_input;
    case "fuel exhaustion reported as divergence" test_diverged;
    case "tracing reaches the same result" test_trace_length_matches_steps;
    case "fork shares the system, owns a fresh memo" test_fork_shares_system;
  ]
