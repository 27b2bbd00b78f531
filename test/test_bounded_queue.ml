open Adt
open Helpers
open Adt_specs

let interp = Interp.create Bounded_queue_spec.spec
let item = Builtins.item

let test_spec_checks () =
  Alcotest.(check bool) "complete" true
    (Completeness.holes Bounded_queue_spec.spec = []);
  let report = Consistency.check Bounded_queue_spec.spec in
  Alcotest.(check bool) "consistent" true
    (Consistency.is_consistent Bounded_queue_spec.spec report)

let test_size_and_fullness () =
  let q3 = Bounded_queue_spec.of_items [ item 1; item 2; item 3 ] in
  (match Interp.eval interp (Bounded_queue_spec.size_q q3) with
  | Interp.Value n ->
    Alcotest.(check (option int)) "size 3" (Some 3) (Builtins.int_of_nat n)
  | other -> Alcotest.failf "size: %a" Interp.pp_value other);
  Alcotest.(check (option bool)) "full at 3" (Some true)
    (Interp.eval_bool interp (Bounded_queue_spec.is_full q3));
  Alcotest.(check (option bool)) "not full at 2" (Some false)
    (Interp.eval_bool interp
       (Bounded_queue_spec.is_full (Bounded_queue_spec.of_items [ item 1; item 2 ])))

(* {2 The ring buffer} *)

let test_ring_fifo () =
  let q = Bounded_queue_impl.(add (add empty (item 1)) (item 2)) in
  check_term "front" (item 1) (Bounded_queue_impl.front q);
  let q = Bounded_queue_impl.remove q in
  check_term "second" (item 2) (Bounded_queue_impl.front q);
  Alcotest.(check int) "size" 1 (Bounded_queue_impl.size q)

let test_ring_wraps () =
  (* fill, drain, refill: the head pointer wraps around the buffer *)
  let q = Bounded_queue_impl.(empty |> Fun.flip add (item 1) |> Fun.flip add (item 2) |> Fun.flip add (item 3)) in
  let q = Bounded_queue_impl.(remove (remove q)) in
  let q = Bounded_queue_impl.(add (add q (item 4)) (item 1)) in
  Alcotest.(check int) "full again" 3 (Bounded_queue_impl.size q);
  check_term "order preserved" (item 3) (Bounded_queue_impl.front q);
  check_term "Phi sees through the wrap"
    (Bounded_queue_spec.of_items [ item 3; item 4; item 1 ])
    (Bounded_queue_impl.abstraction q)

let test_overflow_and_underflow () =
  let full = Bounded_queue_impl.(empty |> Fun.flip add (item 1) |> Fun.flip add (item 2) |> Fun.flip add (item 3)) in
  (match Bounded_queue_impl.add full (item 4) with
  | exception Bounded_queue_impl.Error -> ()
  | _ -> Alcotest.fail "overflow accepted");
  (match Bounded_queue_impl.front Bounded_queue_impl.empty with
  | exception Bounded_queue_impl.Error -> ()
  | _ -> Alcotest.fail "front of empty");
  match Bounded_queue_impl.remove Bounded_queue_impl.empty with
  | exception Bounded_queue_impl.Error -> ()
  | _ -> Alcotest.fail "remove of empty"

let test_paper_figures () =
  (* the two program segments of section 4 *)
  let x1 =
    Bounded_queue_impl.(
      empty |> Fun.flip add (item 1) |> Fun.flip add (item 2)
      |> Fun.flip add (item 3) |> remove |> Fun.flip add (item 4))
  in
  let x2 =
    Bounded_queue_impl.(
      empty |> Fun.flip add (item 2) |> Fun.flip add (item 3)
      |> Fun.flip add (item 4))
  in
  Alcotest.(check bool) "distinct internal states" false
    (Bounded_queue_impl.state_equal x1 x2);
  Alcotest.(check int) "heads differ" 1 (Bounded_queue_impl.head x1);
  Alcotest.(check int) "heads differ (2)" 0 (Bounded_queue_impl.head x2);
  check_term "same abstract value"
    (Bounded_queue_impl.abstraction x1)
    (Bounded_queue_impl.abstraction x2);
  (* and that value is the paper's B, C, D queue *)
  check_term "B C D"
    (Bounded_queue_spec.of_items [ item 2; item 3; item 4 ])
    (Bounded_queue_impl.abstraction x1)

let test_phi_many_to_one_systematically () =
  (* every pair of distinct states reached by <= 6 operations that Phi
     identifies must be observationally equivalent (front/size agree) *)
  let rec states q ops acc =
    if ops = 0 then q :: acc
    else
      let acc = q :: acc in
      let acc =
        match Bounded_queue_impl.add q (item ((ops mod 4) + 1)) with
        | q' -> states q' (ops - 1) acc
        | exception Bounded_queue_impl.Error -> acc
      in
      match Bounded_queue_impl.remove q with
      | q' -> states q' (ops - 1) acc
      | exception Bounded_queue_impl.Error -> acc
  in
  let all = states Bounded_queue_impl.empty 6 [] in
  let pairs = List.concat_map (fun a -> List.map (fun b -> (a, b)) all) all in
  let collisions = ref 0 in
  List.iter
    (fun (a, b) ->
      if
        (not (Bounded_queue_impl.state_equal a b))
        && Term.equal
             (Bounded_queue_impl.abstraction a)
             (Bounded_queue_impl.abstraction b)
      then begin
        incr collisions;
        Alcotest.(check int) "sizes agree" (Bounded_queue_impl.size a)
          (Bounded_queue_impl.size b);
        if not (Bounded_queue_impl.is_empty a) then
          check_term "fronts agree"
            (Bounded_queue_impl.front a)
            (Bounded_queue_impl.front b)
      end)
    pairs;
  Alcotest.(check bool) "Phi is genuinely many-to-one" true (!collisions > 0)

let test_model_within_bound () =
  (* the representation is correct for clients that respect the bound:
     queue variables range over at most 2 elements so that the axioms'
     own ADD_Q stays within the 3-slot buffer *)
  let u = Enum.universe Bounded_queue_spec.spec in
  match Model.check u Bounded_queue_impl.model ~size:5 with
  | Ok n -> Alcotest.(check bool) "ran" true (n > 50)
  | Error cex -> Alcotest.failf "%a" Model.pp_counterexample cex

let test_conditional_correctness_boundary () =
  (* beyond the bound the model diverges from the (unbounded) abstract
     axioms: ADD_Q on a full queue is an implementation error while the
     axioms happily build a 4-element queue — the exact shape of the
     paper's "conditional correctness" *)
  let ax2 = Option.get (Spec.find_axiom "b2" Bounded_queue_spec.spec) in
  let u = Enum.universe Bounded_queue_spec.spec in
  match Model.check_axiom u Bounded_queue_impl.model ~size:9 ax2 with
  | Some cex ->
    Alcotest.(check string) "axiom b2 at the boundary" "b2"
      (Axiom.name cex.Model.axiom)
  | None -> Alcotest.fail "expected a boundary counterexample beyond the bound"

let suite =
  [
    case "specification is complete and consistent" test_spec_checks;
    case "SIZE_Q and IS_FULL?" test_size_and_fullness;
    case "ring buffer: FIFO" test_ring_fifo;
    case "ring buffer: wrap-around" test_ring_wraps;
    case "ring buffer: overflow and underflow" test_overflow_and_underflow;
    case "the paper's two figures reproduced" test_paper_figures;
    case "Phi is many-to-one, collisions are equivalent"
      test_phi_many_to_one_systematically;
    case "model of the axioms within the bound" test_model_within_bound;
    case "conditional correctness: violated beyond the bound"
      test_conditional_correctness_boundary;
  ]
