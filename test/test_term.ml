open Adt
open Helpers

let test_sort_of () =
  Alcotest.check sort_testable "var" nat (Term.sort_of (v "x"));
  Alcotest.check sort_testable "app" nat (Term.sort_of (plus z z));
  Alcotest.check sort_testable "err" nat (Term.sort_of (Term.err nat));
  Alcotest.check sort_testable "ite" nat
    (Term.sort_of (Term.ite Term.tt z (s z)));
  Alcotest.check sort_testable "bool" Sort.bool (Term.sort_of (isz z))

let test_app_checks_arity () =
  Alcotest.check_raises "too few" (Term.Ill_sorted "s applied to 0 arguments, expects 1")
    (fun () -> ignore (Term.app succ_op []));
  match Term.app plus_op [ z ] with
  | exception Term.Ill_sorted _ -> ()
  | _ -> Alcotest.fail "arity violation accepted"

let test_app_checks_sorts () =
  match Term.app succ_op [ isz z ] with
  | exception Term.Ill_sorted _ -> ()
  | _ -> Alcotest.fail "sort violation accepted"

let test_ite_checks () =
  (match Term.ite z z z with
  | exception Term.Ill_sorted _ -> ()
  | _ -> Alcotest.fail "non-bool condition accepted");
  match Term.ite Term.tt z Term.tt with
  | exception Term.Ill_sorted _ -> ()
  | _ -> Alcotest.fail "mismatched branches accepted"

let test_equal_compare () =
  let t1 = plus (s z) (v "x") in
  let t2 = plus (s z) (v "x") in
  let t3 = plus (s z) (v "y") in
  Alcotest.(check bool) "equal" true (Term.equal t1 t2);
  Alcotest.(check bool) "not equal" false (Term.equal t1 t3);
  Alcotest.(check int) "compare self" 0 (Term.compare t1 t2);
  Alcotest.(check bool) "total" true (Term.compare t1 t3 <> 0);
  (* antisymmetry on this pair *)
  Alcotest.(check bool) "antisym" true
    (Term.compare t1 t3 = -Term.compare t3 t1)

let test_size_depth () =
  Alcotest.(check int) "size const" 1 (Term.size z);
  Alcotest.(check int) "size" 4 (Term.size (plus (s z) (v "x")));
  Alcotest.(check int) "depth" 3 (Term.depth (plus (s z) (v "x")));
  Alcotest.(check int) "ite size" 4 (Term.size (Term.ite Term.tt z (v "x")));
  Alcotest.(check int) "church" 11 (Term.size (church 10))

let test_vars () =
  let t = plus (v "x") (plus (v "y") (v "x")) in
  Alcotest.(check (list (pair string sort_testable)))
    "first-occurrence order"
    [ ("x", nat); ("y", nat) ]
    (Term.vars t);
  Alcotest.(check bool) "ground" true (Term.is_ground (church 3));
  Alcotest.(check bool) "not ground" false (Term.is_ground t)

let test_ops_count () =
  let t = plus (s (s z)) (v "x") in
  Alcotest.(check bool) "ops" true (Op.Set.mem succ_op (Term.ops t));
  Alcotest.(check int) "count s" 2 (Term.count_op "s" t);
  Alcotest.(check int) "count plus" 1 (Term.count_op "plus" t);
  Alcotest.(check int) "count absent" 0 (Term.count_op "nope" t)

let test_positions () =
  let t = plus (s z) (v "x") in
  Alcotest.(check int) "number of positions" (Term.size t)
    (List.length (Term.positions t));
  check_term "root" t (Option.get (Term.subterm_at t []));
  check_term "child 0" (s z) (Option.get (Term.subterm_at t [ 0 ]));
  check_term "nested" z (Option.get (Term.subterm_at t [ 0; 0 ]));
  Alcotest.(check bool) "out of range" true
    (Term.subterm_at t [ 7 ] = None)

let test_replace_at () =
  let t = plus (s z) (v "x") in
  check_term "replace root" z (Option.get (Term.replace_at t [] z));
  check_term "replace nested"
    (plus (s (v "y")) (v "x"))
    (Option.get (Term.replace_at t [ 0; 0 ] (v "y")));
  Alcotest.(check bool) "bad position" true
    (Term.replace_at t [ 5; 0 ] z = None);
  (* replace inside an if-then-else *)
  let ite = Term.ite (isz (v "c")) z (s z) in
  check_term "ite cond"
    (Term.ite (isz z) z (s z))
    (Option.get (Term.replace_at ite [ 0; 0 ] z))

let test_subterms_fold () =
  let t = plus (s z) z in
  Alcotest.(check int) "subterms" 4 (List.length (Term.subterms t));
  Alcotest.(check int) "fold counts nodes" 4
    (Term.fold (fun n _ -> n + 1) 0 t)

let test_rename_map_vars () =
  let t = plus (v "x") (v "y") in
  check_term "rename"
    (plus (v "x_1") (v "y_1"))
    (Term.rename (fun x -> x ^ "_1") t);
  check_term "map_vars"
    (plus z (v "y"))
    (Term.map_vars (fun x sort -> if x = "x" then z else Term.var x sort) t)

let test_fresh_wrt () =
  Alcotest.(check string) "free" "q" (Term.fresh_wrt ~avoid:[] "q" nat);
  Alcotest.(check string) "taken" "q1"
    (Term.fresh_wrt ~avoid:[ ("q", nat) ] "q" nat);
  Alcotest.(check string) "taken twice" "q2"
    (Term.fresh_wrt ~avoid:[ ("q", nat); ("q1", nat) ] "q" nat)

let test_check () =
  Alcotest.(check bool) "well formed" true
    (Term.check base_signature (plus z (s z)) = Ok ());
  let rogue = Op.v "rogue" ~args:[] ~result:nat in
  Alcotest.(check bool) "undeclared op" true
    (Result.is_error (Term.check base_signature (Term.const rogue)));
  let wrong_rank = Op.v "plus" ~args:[ nat ] ~result:nat in
  Alcotest.(check bool) "wrong rank" true
    (Result.is_error (Term.check base_signature (Term.app wrong_rank [ z ])))

let test_hash_consing () =
  (* equal constructions are the same heap value, with the same id *)
  let a = plus (s z) (v "x") in
  let b = plus (s z) (v "x") in
  Alcotest.(check bool) "app f xs == app f xs" true (a == b);
  Alcotest.(check int) "same id" (Term.id a) (Term.id b);
  Alcotest.(check int) "same hash" (Term.hash a) (Term.hash b);
  Alcotest.(check bool) "distinct terms get distinct ids" true
    (Term.id a <> Term.id (plus (s z) (v "y")));
  Alcotest.(check bool) "vars shared" true (v "x" == v "x");
  Alcotest.(check bool) "errors shared" true (Term.err nat == Term.err nat);
  Alcotest.(check bool) "ite shared" true
    (Term.ite Term.tt z (s z) == Term.ite Term.tt z (s z));
  (* physical equality agrees with deep structural comparison *)
  Alcotest.(check bool) "structural_equal" true (Term.structural_equal a b);
  let live, total = Term.intern_stats () in
  Alcotest.(check bool) "intern table sane" true (live <= total && live > 0)

let test_ids_stable_under_substitution () =
  let t = plus (v "x") (plus z (v "y")) in
  (* the identity substitution returns the term itself, not a copy *)
  Alcotest.(check bool) "map_vars identity is physical identity" true
    (Term.map_vars Term.var t == t);
  (* subterms untouched by a real substitution keep their identity *)
  let right = Option.get (Term.subterm_at t [ 1 ]) in
  let t' =
    Term.map_vars (fun x sort -> if x = "x" then z else Term.var x sort) t
  in
  check_term "substitution applied" (plus z (plus z (v "y"))) t';
  Alcotest.(check bool) "untouched branch keeps its id" true
    (Option.get (Term.subterm_at t' [ 1 ]) == right)

(* Regression (PR 7): intern held a raw Mutex.lock across the weak-table
   probe, so any exception inside the critical section left the lock held
   and deadlocked every later construction hashing into the same shard.
   With Mutex.protect, an injected failure propagates — and interning the
   very same term afterwards still works. *)
let test_intern_exception_safety () =
  let fired = ref 0 in
  Term.intern_fault_hook :=
    Some
      (fun () ->
        incr fired;
        failwith "injected intern fault");
  Fun.protect ~finally:(fun () -> Term.intern_fault_hook := None)
  @@ fun () ->
  (match Term.var "intern_fault_probe" nat with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "the injected fault did not fire");
  Alcotest.(check int) "hook fired inside the critical section" 1 !fired;
  Term.intern_fault_hook := None;
  (* the shard lock was released: this interns instead of deadlocking *)
  let t = Term.var "intern_fault_probe" nat in
  Alcotest.(check bool) "same shard interns after the fault" true
    (t == Term.var "intern_fault_probe" nat)

(* Domains hammering overlapping constructions must agree on identity:
   equal terms are pointer-equal across domains (they met in the same
   shard), distinct terms have distinct ids (one atomic counter). *)
let test_multi_domain_interning () =
  let n_domains = 4 and depth = 40 in
  let build d =
    (* shared: church numerals every domain builds; private: a variable
       spine only this domain builds *)
    let shared = Array.init depth church in
    let private_ =
      Array.init depth (fun i -> v (Fmt.str "dom%d_x%d" d i))
    in
    (shared, private_)
  in
  let results =
    Array.init n_domains (fun d -> Domain.spawn (fun () -> build d))
    |> Array.map Domain.join
  in
  (* pointer equality across domains on the shared terms *)
  let shared0, _ = results.(0) in
  Array.iteri
    (fun d (shared, _) ->
      Array.iteri
        (fun i t ->
          Alcotest.(check bool)
            (Fmt.str "church %d from domain %d is the domain-0 node" i d)
            true (t == shared0.(i)))
        shared)
    results;
  (* id uniqueness across every distinct term built by any domain *)
  let all_ids =
    Array.to_list results
    |> List.concat_map (fun (shared, private_) ->
           List.map Term.id
             (List.sort_uniq Term.compare
                (Array.to_list shared @ Array.to_list private_)))
  in
  let distinct_terms =
    (* shared churches counted once, private spines once per domain *)
    depth + (n_domains * depth)
  in
  Alcotest.(check int) "every distinct term has a distinct id"
    distinct_terms
    (List.length (List.sort_uniq Int.compare all_ids));
  let _, total = Term.intern_stats () in
  Alcotest.(check bool) "the id counter covers every id" true
    (List.for_all (fun id -> id >= 1 && id <= total) all_ids)

let test_pp () =
  Alcotest.(check string) "const" "z" (Term.to_string z);
  Alcotest.(check string) "nested" "plus(s(z), x)"
    (Term.to_string (plus (s z) (v "x")));
  Alcotest.(check string) "error" "error" (Term.to_string (Term.err nat));
  Alcotest.(check string) "ite" "if isz(x) then z else s(z)"
    (Term.to_string (Term.ite (isz (v "x")) z (s z)))

(* nf store keys carry [Term.hash] (lib/engine/session.ml), so a change
   of the hash function must come with a store format bump *)
let test_hash_pinned () =
  let parsed spec src =
    match Parser.parse_term spec src with
    | Ok t -> t
    | Error e -> Alcotest.failf "%s: %a" src Parser.pp_error e
  in
  List.iter
    (fun (t, pinned) ->
      if Term.hash t <> pinned then
        Alcotest.failf
          "Term.hash %s = %d, pinned %d: nf store keys persist Term.hash: \
           bump Persist.Store.format_version"
          (Term.to_string t) (Term.hash t) pinned)
    [
      ( parsed Adt_specs.Queue_spec.spec "ADD(ADD(NEW, ITEM1), ITEM2)",
        2245214429470545111 );
      ( parsed Adt_specs.Symboltable_spec.spec
          "ADD(ENTERBLOCK(INIT), ID_X, ATTRS1)",
        3758322627758152507 );
      (Term.err (Sort.v "Queue"), 996388383);
    ]

let suite =
  [
    case "sort_of on every form" test_sort_of;
    case "application arity is checked" test_app_checks_arity;
    case "application sorts are checked" test_app_checks_sorts;
    case "if-then-else is checked" test_ite_checks;
    case "equality and comparison" test_equal_compare;
    case "size and depth" test_size_depth;
    case "free variables" test_vars;
    case "operation collection and counting" test_ops_count;
    case "positions and subterm_at" test_positions;
    case "replace_at" test_replace_at;
    case "subterms and fold" test_subterms_fold;
    case "rename and map_vars" test_rename_map_vars;
    case "fresh variable names" test_fresh_wrt;
    case "deep signature check" test_check;
    case "hash-consing invariants" test_hash_consing;
    case "ids are stable under substitution" test_ids_stable_under_substitution;
    case "interning is exception safe (injected fault)" test_intern_exception_safety;
    case "multi-domain interning: shared pointers, unique ids"
      test_multi_domain_interning;
    case "printing" test_pp;
    case "Term.hash is pinned (nf store keys)" test_hash_pinned;
  ]
