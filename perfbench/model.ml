(* The reply oracle: hand-written models of the three served
   specifications, written from each type's intended meaning (a list, a
   stack of blocks, an association list) rather than from its axioms, so
   they share no code with the rewriting engine. A request is a small
   syntax tree; [line] renders it for the wire, and [expect] evaluates it
   in the model and prints the value the way the engine prints a normal
   form. *)

type queue = New | Add of queue * int | Remove of queue

type symtab =
  | Init
  | Enterblock of symtab
  | Leaveblock of symtab
  | Declare of symtab * int * int  (** ADD(symtab, identifier, attributes) *)

type db = Empty_db | Insert of db * int * int | Delete of db * int

type request =
  | Front of queue
  | Is_empty of queue
  | Queue_term of queue
  | Retrieve of symtab * int
  | Is_inblock of symtab * int
  | Db_term of db
  | Count of db
  | Lookup of db * int
  | Has of db * int

(* Constants are indexes into these tables. *)
let items = [| "ITEM1"; "ITEM2"; "ITEM3" |]
let identifiers = [| "ID_X"; "ID_Y"; "ID_Z" |]
let attributes = [| "ATTRS1"; "ATTRS2" |]
let keys = [| "K1"; "K2"; "K3" |]
let records = [| "REC_A"; "REC_B" |]

(* {1 Wire rendering} *)

let spec_name = function
  | Front _ | Is_empty _ | Queue_term _ -> "Queue"
  | Retrieve _ | Is_inblock _ -> "Symboltable"
  | Db_term _ | Count _ | Lookup _ | Has _ -> "Database"

let app b name args =
  Buffer.add_string b name;
  Buffer.add_char b '(';
  List.iteri
    (fun i arg ->
      if i > 0 then Buffer.add_string b ", ";
      arg ())
    args;
  Buffer.add_char b ')'

let const b s () = Buffer.add_string b s
let sub f b x () = f b x

let rec queue b = function
  | New -> Buffer.add_string b "NEW"
  | Add (q, i) -> app b "ADD" [ sub queue b q; const b items.(i) ]
  | Remove q -> app b "REMOVE" [ sub queue b q ]

let rec symtab b = function
  | Init -> Buffer.add_string b "INIT"
  | Enterblock s -> app b "ENTERBLOCK" [ sub symtab b s ]
  | Leaveblock s -> app b "LEAVEBLOCK" [ sub symtab b s ]
  | Declare (s, id, a) ->
    app b "ADD"
      [ sub symtab b s; const b identifiers.(id); const b attributes.(a) ]

let rec db b = function
  | Empty_db -> Buffer.add_string b "EMPTY_DB"
  | Insert (d, k, r) ->
    app b "INSERT" [ sub db b d; const b keys.(k); const b records.(r) ]
  | Delete (d, k) -> app b "DELETE" [ sub db b d; const b keys.(k) ]

let line r =
  let b = Buffer.create 256 in
  Buffer.add_string b "normalize ";
  Buffer.add_string b (spec_name r);
  Buffer.add_char b ' ';
  (match r with
  | Front q -> app b "FRONT" [ sub queue b q ]
  | Is_empty q -> app b "IS_EMPTY?" [ sub queue b q ]
  | Queue_term q -> queue b q
  | Retrieve (s, id) ->
    app b "RETRIEVE" [ sub symtab b s; const b identifiers.(id) ]
  | Is_inblock (s, id) ->
    app b "IS_INBLOCK?" [ sub symtab b s; const b identifiers.(id) ]
  | Db_term d -> db b d
  | Count d -> app b "COUNT" [ sub db b d ]
  | Lookup (d, k) -> app b "LOOKUP" [ sub db b d; const b keys.(k) ]
  | Has (d, k) -> app b "HAS?" [ sub db b d; const b keys.(k) ]);
  Buffer.contents b

(* {1 The models}

   [None] is the distinguished error value; every operation is strict in
   it, as the paper's error convention requires. *)

(* Queue: a list of items, front first. *)
let rec queue_value = function
  | New -> Some []
  | Add (q, i) -> Option.map (fun l -> l @ [ i ]) (queue_value q)
  | Remove q -> (
    match queue_value q with Some (_ :: rest) -> Some rest | Some [] | None -> None)

(* Symboltable: a stack of blocks, innermost first, each listing its
   declarations newest first. INIT is the outermost block, which
   LEAVEBLOCK may not pop. *)
let rec symtab_value = function
  | Init -> Some [ [] ]
  | Enterblock s -> Option.map (fun blocks -> [] :: blocks) (symtab_value s)
  | Declare (s, id, a) -> (
    match symtab_value s with
    | Some (block :: outer) -> Some (((id, a) :: block) :: outer)
    | Some [] | None -> None)
  | Leaveblock s -> (
    match symtab_value s with
    | Some (_ :: (_ :: _ as outer)) -> Some outer
    | Some _ | None -> None)

(* Database: an association list from key to record, newest insertion
   first; DELETE drops every insertion of its key. No Database-valued
   operation can fail. *)
let rec db_value = function
  | Empty_db -> []
  | Insert (d, k, r) -> (k, r) :: db_value d
  | Delete (d, k) -> List.filter (fun (k', _) -> k' <> k) (db_value d)

(* {1 Values printed as the engine prints normal forms} *)

let error sort = "error : " ^ sort
let bool b = if b then "true" else "false"

let render_queue l =
  List.fold_left (fun acc i -> Printf.sprintf "ADD(%s, %s)" acc items.(i)) "NEW" l

(* the canonical constructor term: the surviving insertions, oldest
   innermost *)
let render_db entries =
  List.fold_right
    (fun (k, r) acc -> Printf.sprintf "INSERT(%s, %s, %s)" acc keys.(k) records.(r))
    entries "EMPTY_DB"

let rec render_nat n = if n = 0 then "ZERO" else "SUCC(" ^ render_nat (n - 1) ^ ")"

let expect = function
  | Front q -> (
    match queue_value q with Some (i :: _) -> items.(i) | Some [] | None -> error "Item")
  | Is_empty q -> (
    match queue_value q with Some l -> bool (l = []) | None -> error "Bool")
  | Queue_term q -> (
    match queue_value q with Some l -> render_queue l | None -> error "Queue")
  | Retrieve (s, id) -> (
    match Option.map List.concat (symtab_value s) with
    | None -> error "Attributelist"
    | Some decls -> (
      match List.assoc_opt id decls with
      | Some a -> attributes.(a)
      | None -> error "Attributelist"))
  | Is_inblock (s, id) -> (
    match symtab_value s with
    | Some (block :: _) -> bool (List.mem_assoc id block)
    | Some [] | None -> error "Bool")
  | Db_term d -> render_db (db_value d)
  | Count d ->
    (* COUNT is the number of distinct keys, SUCC^n(ZERO) *)
    render_nat (List.length (List.sort_uniq compare (List.map fst (db_value d))))
  | Lookup (d, k) -> (
    match List.assoc_opt k (db_value d) with
    | Some r -> records.(r)
    | None -> error "Record")
  | Has (d, k) -> bool (List.mem_assoc k (db_value d))
