open Adt
open Helpers
open Adt_specs

let test_memo_agrees_with_plain () =
  let memo = Rewrite.Memo.create () in
  (* the whole enumerated queue universe: front, remove, is_empty *)
  let u = Enum.universe Queue_spec.spec in
  let sys = Rewrite.of_spec Queue_spec.spec in
  List.iter
    (fun q ->
      List.iter
        (fun t ->
          check_term
            (Fmt.str "agree on %a" Term.pp t)
            (Rewrite.normalize sys t)
            (Rewrite.normalize ~memo sys t))
        [ Queue_spec.front q; Queue_spec.remove q; Queue_spec.is_empty q ])
    (Enum.terms_up_to u Queue_spec.sort ~size:9)

let test_memo_hits_on_repetition () =
  let memo = Rewrite.Memo.create () in
  let sys = Rewrite.of_spec Queue_spec.spec in
  let q = Queue_spec.of_items [ Builtins.item 1; Builtins.item 2; Builtins.item 3 ] in
  let (_ : Term.t) = Rewrite.normalize ~memo sys (Queue_spec.front q) in
  let before = Rewrite.Memo.hits memo in
  let (_ : Term.t) = Rewrite.normalize ~memo sys (Queue_spec.front q) in
  Alcotest.(check bool) "second run hits" true (Rewrite.Memo.hits memo > before);
  Alcotest.(check bool) "entries cached" true (Rewrite.Memo.size memo > 0);
  Rewrite.Memo.clear memo;
  Alcotest.(check int) "cleared" 0 (Rewrite.Memo.size memo)

let test_memo_interp () =
  let plain = Interp.create Queue_spec.spec in
  let memoized = Interp.create ~memo:true Queue_spec.spec in
  Alcotest.(check bool) "plain has no stats" true (Interp.memo_stats plain = None);
  let q = Queue_spec.of_items [ Builtins.item 2; Builtins.item 1 ] in
  List.iter
    (fun t ->
      let a = Fmt.str "%a" Interp.pp_value (Interp.eval plain t) in
      let b = Fmt.str "%a" Interp.pp_value (Interp.eval memoized t) in
      Alcotest.(check string) "same value" a b)
    [
      Queue_spec.front q;
      Queue_spec.remove q;
      Queue_spec.front (Queue_spec.remove q);
      Queue_spec.front Queue_spec.new_;
    ];
  match Interp.memo_stats memoized with
  | Some s ->
    Alcotest.(check bool) "worked" true
      (s.Interp.misses > 0 && s.Interp.entries > 0);
    Alcotest.(check int) "no evictions yet" 0 s.Interp.evictions;
    Alcotest.(check int) "default capacity" Rewrite.Memo.default_capacity
      s.Interp.capacity
  | None -> Alcotest.fail "memoized session lost its memo"

let test_memo_error_propagation () =
  let memo = Rewrite.Memo.create () in
  let sys = Rewrite.of_spec Queue_spec.spec in
  let t = Queue_spec.is_empty (Queue_spec.remove Queue_spec.new_) in
  Alcotest.(check bool) "error" true
    (Term.is_error (Rewrite.normalize ~memo sys t));
  (* and again, from the cache *)
  Alcotest.(check bool) "error (cached)" true
    (Term.is_error (Rewrite.normalize ~memo sys t))

let test_memo_open_terms () =
  let memo = Rewrite.Memo.create () in
  check_term "open term"
    (v "n")
    (Rewrite.normalize ~memo nat_system (plus z (v "n")));
  (* cached result for the open term is still correct *)
  check_term "open term again"
    (v "n")
    (Rewrite.normalize ~memo nat_system (plus z (v "n")))

let test_memo_fuel () =
  let loop = Rewrite.rule ~name:"loop" ~lhs:(isz (v "x")) ~rhs:(isz (s (v "x"))) () in
  let sys = Rewrite.of_rules [ loop ] in
  let memo = Rewrite.Memo.create () in
  match Rewrite.normalize ~memo ~fuel:50 sys (isz z) with
  | exception Rewrite.Out_of_fuel _ -> ()
  | t -> Alcotest.failf "terminated at %a" Term.pp t

(* the memo is now a bounded LRU: a tiny capacity forces evictions, and
   eviction must never change any answer *)
let test_memo_bounded_agrees () =
  let memo = Rewrite.Memo.create ~capacity:8 () in
  let u = Enum.universe Queue_spec.spec in
  let sys = Rewrite.of_spec Queue_spec.spec in
  List.iter
    (fun q ->
      List.iter
        (fun t ->
          check_term
            (Fmt.str "agree under eviction on %a" Term.pp t)
            (Rewrite.normalize sys t)
            (Rewrite.normalize ~memo sys t);
          Alcotest.(check bool) "size bounded" true (Rewrite.Memo.size memo <= 8))
        [ Queue_spec.front q; Queue_spec.remove q; Queue_spec.is_empty q ])
    (Enum.terms_up_to u Queue_spec.sort ~size:9);
  Alcotest.(check bool) "evictions happened" true
    (Rewrite.Memo.evictions memo > 0);
  Alcotest.(check int) "capacity reported" 8 (Rewrite.Memo.capacity memo);
  Rewrite.Memo.clear memo;
  Alcotest.(check int) "clear resets evictions" 0 (Rewrite.Memo.evictions memo)

let test_memo_count () =
  let memo = Rewrite.Memo.create () in
  let sys = Rewrite.of_spec Queue_spec.spec in
  let q = Queue_spec.of_items [ Builtins.item 1; Builtins.item 2 ] in
  let nf1, steps1 = Rewrite.normalize_count ~memo sys (Queue_spec.front q) in
  Alcotest.(check bool) "first run rewrites" true (steps1 > 0);
  let nf2, steps2 = Rewrite.normalize_count ~memo sys (Queue_spec.front q) in
  check_term "same normal form" nf1 nf2;
  Alcotest.(check int) "cached run is free" 0 steps2

let test_memo_invalid_capacity () =
  match Rewrite.Memo.create ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted"

let suite =
  [
    case "memoized normalization agrees with plain" test_memo_agrees_with_plain;
    case "repeated terms hit the cache" test_memo_hits_on_repetition;
    case "memoized interpreter sessions" test_memo_interp;
    case "error propagation through the cache" test_memo_error_propagation;
    case "open terms are cached correctly" test_memo_open_terms;
    case "fuel still bounds memoized runs" test_memo_fuel;
    case "eviction never changes answers" test_memo_bounded_agrees;
    case "memoized step counting" test_memo_count;
    case "non-positive capacity rejected" test_memo_invalid_capacity;
  ]
