open Adt
open Helpers

let base_source =
  {|
spec Item
  sort Item
  ops
    I1 : -> Item
    I2 : -> Item
  constructors I1 I2
end
|}

let queue_source =
  {|
spec Queue
  uses Item
  sort Queue
  ops
    NEW : -> Queue
    ADD : Queue Item -> Queue
    IS_EMPTY? : Queue -> Bool
  constructors NEW ADD
  vars
    q : Queue
    i : Item
  axioms
    [1] IS_EMPTY?(NEW) = true
    [2] IS_EMPTY?(ADD(q, i)) = false
end
|}

let load_exn lib src =
  match Library.load_source lib src with
  | Ok lib -> lib
  | Error e -> Alcotest.failf "load: %a" Parser.pp_error e

let test_registration () =
  let lib = Library.add nat_spec Library.empty in
  Alcotest.(check bool) "mem" true (Library.mem "N" lib);
  Alcotest.(check bool) "find" true (Library.find "N" lib <> None);
  Alcotest.(check bool) "absent" true (Library.find "Ghost" lib = None);
  Alcotest.(check (list string)) "names" [ "N" ] (Library.names lib)

let test_replacement () =
  let lib = Library.add nat_spec Library.empty in
  let smaller = Spec.without_axiom "p0" nat_spec in
  let lib = Library.add smaller lib in
  Alcotest.(check int) "replaced, not duplicated" 1
    (List.length (Library.names lib));
  match Library.find "N" lib with
  | Some found ->
    Alcotest.(check int) "newest wins" 3 (List.length (Spec.axioms found))
  | None -> Alcotest.fail "lost"

let test_cross_file_uses () =
  let lib = load_exn Library.builtin base_source in
  let lib = load_exn lib queue_source in
  Alcotest.(check (list string)) "both registered" [ "Item"; "Queue" ]
    (Library.names lib);
  match Library.find "Queue" lib with
  | Some queue ->
    Alcotest.(check bool) "Item ops visible" true
      (Spec.find_op "I1" queue <> None)
  | None -> Alcotest.fail "Queue missing"

let test_unresolved_uses_fails () =
  match Library.load_source Library.builtin queue_source with
  | Error e ->
    Alcotest.(check bool) "mentions Item" true
      (Astring_contains.contains e.Parser.message "Item")
  | Ok _ -> Alcotest.fail "unresolved uses accepted"

let suite =
  [
    case "registration and lookup" test_registration;
    case "re-registration replaces" test_replacement;
    case "uses resolves across files" test_cross_file_uses;
    case "unresolved uses is an error" test_unresolved_uses_fails;
  ]
