open Adt_specs

(* Generation sizes are semantic boundaries, not tuning knobs: the
   Bounded Queue's 5 keeps every axiom instance within the ring's
   capacity (the specification has no add-on-full axiom, so a fourth
   ADD_Q is a legal spec value the clean implementation refuses); the
   Symboltable's 6 keeps the enumerated universe small enough that
   uniform sampling stays cheap. *)

let clean =
  [
    Impl.v ~impl_name:"two-list" ~spec:Queue_spec.spec ~rep_sort:Queue_spec.sort
      ~gen_size:7 Queue_impl.model;
    Impl.v ~impl_name:"ring-buffer" ~spec:Bounded_queue_spec.spec
      ~rep_sort:Bounded_queue_spec.sort ~gen_size:5 Bounded_queue_impl.model;
    Impl.v ~impl_name:"linked-list"
      ~spec:Stack_spec.default.Stack_spec.spec
      ~rep_sort:Stack_spec.default.Stack_spec.sort ~gen_size:7
      (Stack_impl.model Stack_spec.default);
    Impl.v ~impl_name:"hash" ~spec:Array_spec.default.Array_spec.spec
      ~rep_sort:Array_spec.default.Array_spec.sort ~gen_size:7
      (Array_intf.model
         (module Array_impl_hash : Array_intf.ARRAY
           with type t = Array_impl_hash.t)
         Array_spec.default);
    Impl.v ~impl_name:"assoc" ~spec:Array_spec.default.Array_spec.spec
      ~rep_sort:Array_spec.default.Array_spec.sort ~gen_size:7
      (Array_intf.model
         (module Array_impl_assoc : Array_intf.ARRAY
           with type t = Array_impl_assoc.t)
         Array_spec.default);
    Impl.v ~impl_name:"stack-of-hash" ~spec:Symboltable_spec.spec
      ~rep_sort:Symboltable_spec.sort ~gen_size:6 Symboltable_impl.Hash.model;
    Impl.v ~impl_name:"stack-of-assoc" ~spec:Symboltable_spec.spec
      ~rep_sort:Symboltable_spec.sort ~gen_size:6 Symboltable_impl.Assoc.model;
    Impl.v ~impl_name:"list" ~spec:Knowlist_spec.spec
      ~rep_sort:Knowlist_spec.sort ~gen_size:7 Knowlist_impl.model;
  ]

let mutants =
  [
    Impl.v ~impl_name:"mutant-remove-back" ~mutant_of:"two-list"
      ~spec:Queue_spec.spec ~rep_sort:Queue_spec.sort ~gen_size:7
      Faulty_impls.queue_remove_back;
    Impl.v ~impl_name:"mutant-lifo-front" ~mutant_of:"two-list"
      ~spec:Queue_spec.spec ~rep_sort:Queue_spec.sort ~gen_size:7
      Faulty_impls.queue_lifo_front;
    Impl.v ~impl_name:"mutant-premature-full" ~mutant_of:"ring-buffer"
      ~spec:Bounded_queue_spec.spec ~rep_sort:Bounded_queue_spec.sort
      ~gen_size:5 Faulty_impls.bq_premature_full;
    Impl.v ~impl_name:"mutant-remove-back" ~mutant_of:"ring-buffer"
      ~spec:Bounded_queue_spec.spec ~rep_sort:Bounded_queue_spec.sort
      ~gen_size:5 Faulty_impls.bq_remove_back;
    Impl.v ~impl_name:"mutant-stale-read" ~mutant_of:"hash"
      ~spec:Array_spec.default.Array_spec.spec
      ~rep_sort:Array_spec.default.Array_spec.sort ~gen_size:7
      Faulty_impls.array_stale_read;
    Impl.v ~impl_name:"mutant-stale-scope" ~mutant_of:"stack-of-hash"
      ~spec:Symboltable_spec.spec ~rep_sort:Symboltable_spec.sort ~gen_size:6
      Faulty_impls.symboltable_stale_read;
    Impl.v ~impl_name:"mutant-replace-pushes" ~mutant_of:"linked-list"
      ~spec:Stack_spec.default.Stack_spec.spec
      ~rep_sort:Stack_spec.default.Stack_spec.sort ~gen_size:7
      Faulty_impls.stack_replace_pushes;
  ]

let all = clean @ mutants

let norm s = String.lowercase_ascii s
let same_name a b = String.equal (norm a) (norm b)

let for_spec ?(mutants = false) spec_name =
  List.filter
    (fun e ->
      same_name (Impl.spec_name e) spec_name && Impl.is_mutant e = mutants)
    all

let find ~spec ~impl =
  List.find_opt
    (fun e ->
      same_name (Impl.spec_name e) spec && same_name (Impl.name e) impl)
    all

let default_for spec_name =
  match for_spec spec_name with e :: _ -> Some e | [] -> None

let spec_names () =
  List.fold_left
    (fun acc e ->
      let n = Impl.spec_name e in
      if List.exists (same_name n) acc then acc else acc @ [ n ])
    [] all

let resolve ~spec ~impl =
  let no_spec () =
    Error
      (`Unknown_spec
        (Fmt.str "no implementation is registered for %s (have: %s)" spec
           (String.concat ", " (spec_names ()))))
  in
  match impl with
  | None -> ( match default_for spec with Some e -> Ok e | None -> no_spec ())
  | Some name -> (
    match (find ~spec ~impl:name, for_spec spec @ for_spec ~mutants:true spec) with
    | Some e, _ -> Ok e
    | None, [] -> no_spec ()
    | None, registered ->
      Error
        (`Unknown_impl
          (Fmt.str "no implementation named %s is registered for %s (have: %s)"
             name spec
             (String.concat ", " (List.map Impl.name registered)))))
