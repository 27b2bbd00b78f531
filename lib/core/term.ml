type t = {
  node : node;
  id : int;
  hash : int;
  size : int;
  ground : bool;
}

and node =
  | Var of string * Sort.t
  | App of Op.t * t list
  | Err of Sort.t
  | Ite of t * t * t

let view t = t.node
let id t = t.id
let hash t = t.hash

exception Ill_sorted of string

let ill_sorted fmt = Fmt.kstr (fun s -> raise (Ill_sorted s)) fmt

let rec sort_of t =
  match t.node with
  | Var (_, s) -> s
  | App (op, _) -> Op.result op
  | Err s -> s
  | Ite (_, t, _) -> sort_of t

(* {2 Interning}

   A weak table holds every live term, striped into independently locked
   shards selected by structural hash. Keys compare shallowly: two nodes
   are equal when their heads agree and their children are physically
   identical — children are already interned, so this is structural
   equality one level deep. The tables are weak so normal forms dropped by
   callers can be collected; [tt]/[ff] below pin the common constants.

   The engine serves a pool of domains, each running many connection
   threads, so interning synchronizes: equal nodes hash equally and
   therefore land in the same shard, whose mutex serializes the
   find-or-insert. Distinct terms usually land in distinct shards, so
   domains intern in parallel instead of convoying on one global lock.
   Ids stay dense and unique because they are drawn from one atomic
   counter, incremented only under a shard lock when a genuinely new node
   is inserted. Construction is the only synchronized operation; reads
   (equal, hash, view, ...) touch immutable fields only. *)

module Node_key = struct
  type nonrec t = t

  let equal a b =
    match (a.node, b.node) with
    | Var (x, s), Var (y, s') -> String.equal x y && Sort.equal s s'
    | Err s, Err s' -> Sort.equal s s'
    | App (f, xs), App (g, ys) ->
      Op.equal f g
      && List.length xs = List.length ys
      && List.for_all2 ( == ) xs ys
    | Ite (c, t, e), Ite (c', t', e') -> c == c' && t == t' && e == e'
    | (Var _ | App _ | Err _ | Ite _), _ -> false

  let hash t = t.hash
end

module H = Weak.Make (Node_key)

let shard_bits = 4
let shard_count = 1 lsl shard_bits

type shard = { lock : Mutex.t; table : H.t }

let shards =
  Array.init shard_count (fun _ ->
      { lock = Mutex.create (); table = H.create 512 })

let counter = Atomic.make 0

(* Test instrumentation: when set, invoked inside the shard critical
   section so exception safety of interning is observable from tests. *)
let intern_fault_hook : (unit -> unit) option ref = ref None

let intern node ~hash ~size ~ground =
  let hash = hash land max_int in
  let candidate = { node; id = 0; hash; size; ground } in
  let shard = shards.(hash land (shard_count - 1)) in
  (* Mutex.protect: an exception here (including an asynchronous one) must
     release the shard lock, or every later construction hashing into this
     shard deadlocks. *)
  Mutex.protect shard.lock (fun () ->
      (match !intern_fault_hook with None -> () | Some f -> f ());
      match H.find_opt shard.table candidate with
      | Some existing -> existing
      | None ->
        let fresh = { candidate with id = Atomic.fetch_and_add counter 1 + 1 } in
        H.add shard.table fresh;
        fresh)

let intern_stats () =
  let live =
    Array.fold_left
      (fun acc shard ->
        acc + Mutex.protect shard.lock (fun () -> H.count shard.table))
      0 shards
  in
  (live, Atomic.get counter)

(* FNV-style mixing of the head tag with child hashes; deterministic across
   runs (never derived from ids). *)
let mix h x = ((h * 0x01000193) lxor x) land max_int

let var name sort =
  let hash = mix (mix 17 (Hashtbl.hash name)) (Hashtbl.hash sort) in
  intern (Var (name, sort)) ~hash ~size:1 ~ground:false

let err s =
  let hash = mix 31 (Hashtbl.hash s) in
  intern (Err s) ~hash ~size:1 ~ground:true

let app_unchecked op args =
  let hash =
    List.fold_left (fun h a -> mix h a.hash) (mix 73 (Hashtbl.hash (Op.name op))) args
  in
  let size = List.fold_left (fun n a -> n + a.size) 1 args in
  let ground = List.for_all (fun a -> a.ground) args in
  intern (App (op, args)) ~hash ~size ~ground

let ite_unchecked c t e =
  let hash = mix (mix (mix 127 c.hash) t.hash) e.hash in
  intern (Ite (c, t, e))
    ~hash
    ~size:(1 + c.size + t.size + e.size)
    ~ground:(c.ground && t.ground && e.ground)

let app op args =
  let expected = Op.args op in
  let n_expected = List.length expected and n_given = List.length args in
  if n_expected <> n_given then
    ill_sorted "%a applied to %d arguments, expects %d" Op.pp op n_given
      n_expected;
  List.iteri
    (fun i (want, arg) ->
      let got = sort_of arg in
      if not (Sort.equal want got) then
        ill_sorted "argument %d of %a has sort %a, expected %a" (i + 1) Op.pp
          op Sort.pp got Sort.pp want)
    (List.combine expected args);
  app_unchecked op args

let const op = app op []

let ite c t e =
  if not (Sort.is_bool (sort_of c)) then
    ill_sorted "if-condition has sort %a, expected Bool" Sort.pp (sort_of c);
  if not (Sort.equal (sort_of t) (sort_of e)) then
    ill_sorted "if-branches have sorts %a and %a" Sort.pp (sort_of t) Sort.pp
      (sort_of e);
  ite_unchecked c t e

(* pinned: module-level references keep the shared constants out of the
   weak table's reach *)
let tt = app_unchecked Signature.true_op []
let ff = app_unchecked Signature.false_op []

let check sg term =
  let rec go t =
    match t.node with
    | Var (_, s) ->
      if Signature.mem_sort s sg then Ok ()
      else Error (Fmt.str "undeclared sort %a" Sort.pp s)
    | Err s ->
      if Signature.mem_sort s sg then Ok ()
      else Error (Fmt.str "undeclared sort %a" Sort.pp s)
    | App (op, args) -> (
      match Signature.find_op (Op.name op) sg with
      | None -> Error (Fmt.str "undeclared operation %a" Op.pp op)
      | Some declared when not (Op.equal declared op) ->
        Error
          (Fmt.str "operation %a used with rank %a but declared as %a" Op.pp
             op Op.pp_decl op Op.pp_decl declared)
      | Some _ -> (
        match app op args with
        | exception Ill_sorted msg -> Error msg
        | _ -> go_all args))
    | Ite (c, t, e) -> (
      match ite c t e with
      | exception Ill_sorted msg -> Error msg
      | _ -> go_all [ c; t; e ])
  and go_all = function
    | [] -> Ok ()
    | t :: ts -> ( match go t with Ok () -> go_all ts | Error _ as e -> e)
  in
  go term

let equal a b = a == b

let rec compare a b =
  if a == b then 0
  else
    match (a.node, b.node) with
    | Var (x, s), Var (y, s') ->
      let c = String.compare x y in
      if c <> 0 then c else Sort.compare s s'
    | Var _, _ -> -1
    | _, Var _ -> 1
    | Err s, Err s' -> Sort.compare s s'
    | Err _, _ -> -1
    | _, Err _ -> 1
    | App (f, xs), App (g, ys) ->
      let c = Op.compare f g in
      if c <> 0 then c else List.compare compare xs ys
    | App _, _ -> -1
    | _, App _ -> 1
    | Ite (c1, t1, e1), Ite (c2, t2, e2) ->
      List.compare compare [ c1; t1; e1 ] [ c2; t2; e2 ]

(* deliberately deep — the differential oracle must not rely on the
   hash-consing invariant it is helping to validate *)
let rec structural_equal a b =
  match (a.node, b.node) with
  | Var (x, s), Var (y, s') -> String.equal x y && Sort.equal s s'
  | Err s, Err s' -> Sort.equal s s'
  | App (f, xs), App (g, ys) ->
    Op.equal f g
    && List.length xs = List.length ys
    && List.for_all2 structural_equal xs ys
  | Ite (c, t, e), Ite (c', t', e') ->
    structural_equal c c' && structural_equal t t' && structural_equal e e'
  | (Var _ | App _ | Err _ | Ite _), _ -> false

let size t = t.size

let rec depth t =
  match t.node with
  | Var _ | Err _ -> 1
  | App (_, []) -> 1
  | App (_, args) -> 1 + List.fold_left (fun d t -> max d (depth t)) 0 args
  | Ite (c, t, e) -> 1 + max (depth c) (max (depth t) (depth e))

let rec var_set t acc =
  if t.ground then acc
  else
    match t.node with
    | Var (x, s) -> if List.mem (x, s) acc then acc else (x, s) :: acc
    | Err _ -> acc
    | App (_, args) -> List.fold_left (fun acc t -> var_set t acc) acc args
    | Ite (c, t, e) -> var_set e (var_set t (var_set c acc))

(* first-occurrence order *)
let vars t =
  let rec go acc t =
    if t.ground then acc
    else
      match t.node with
      | Var (x, s) -> if List.mem (x, s) acc then acc else acc @ [ (x, s) ]
      | Err _ -> acc
      | App (_, args) -> List.fold_left go acc args
      | Ite (c, t, e) -> go (go (go acc c) t) e
  in
  go [] t

let is_ground t = t.ground
let is_error t = match t.node with Err _ -> true | _ -> false

let rec ops t =
  match t.node with
  | Var _ | Err _ -> Op.Set.empty
  | App (op, args) ->
    List.fold_left
      (fun acc t -> Op.Set.union acc (ops t))
      (Op.Set.singleton op) args
  | Ite (c, t, e) -> Op.Set.union (ops c) (Op.Set.union (ops t) (ops e))

let rec count_op name t =
  match t.node with
  | Var _ | Err _ -> 0
  | App (op, args) ->
    let here = if String.equal (Op.name op) name then 1 else 0 in
    List.fold_left (fun n t -> n + count_op name t) here args
  | Ite (c, t, e) -> count_op name c + count_op name t + count_op name e

type position = int list

let children t =
  match t.node with
  | Var _ | Err _ -> []
  | App (_, args) -> args
  | Ite (c, t, e) -> [ c; t; e ]

let positions t =
  let rec go t =
    []
    :: List.concat
         (List.mapi (fun i c -> List.map (fun p -> i :: p) (go c)) (children t))
  in
  go t

let rec subterm_at t = function
  | [] -> Some t
  | i :: p -> (
    match List.nth_opt (children t) i with
    | None -> None
    | Some c -> subterm_at c p)

let rec replace_at t pos repl =
  match pos with
  | [] -> Some repl
  | i :: p -> (
    let replace_child args =
      match List.nth_opt args i with
      | None -> None
      | Some c -> (
        match replace_at c p repl with
        | None -> None
        | Some c' -> Some (List.mapi (fun j a -> if j = i then c' else a) args))
    in
    match t.node with
    | Var _ | Err _ -> None
    | App (op, args) -> (
      match replace_child args with
      | None -> None
      | Some args' -> Some (app_unchecked op args'))
    | Ite (c, th, el) -> (
      match replace_child [ c; th; el ] with
      | Some [ c'; th'; el' ] -> Some (ite_unchecked c' th' el')
      | _ -> None))

let rec subterms t = t :: List.concat_map subterms (children t)

let rec fold f acc t =
  let acc = f acc t in
  List.fold_left (fold f) acc (children t)

(* shared children come back physically identical, so both traversals
   return [t] itself whenever nothing below actually changed — ids are
   stable under substitution *)
let rec map_vars f t =
  match t.node with
  | Var (x, s) -> f x s
  | Err _ -> t
  | App (op, args) ->
    let args' = List.map (map_vars f) args in
    if List.for_all2 ( == ) args args' then t else app_unchecked op args'
  | Ite (c, th, e) ->
    let c' = map_vars f c and th' = map_vars f th and e' = map_vars f e in
    if c == c' && th == th' && e == e' then t else ite_unchecked c' th' e'

let rename f t =
  map_vars
    (fun x s ->
      let x' = f x in
      var x' s)
    t

let fresh_wrt ~avoid base sort =
  let taken name = List.exists (fun (x, _) -> String.equal x name) avoid in
  ignore sort;
  if not (taken base) then base
  else
    let rec try_idx i =
      let candidate = Fmt.str "%s%d" base i in
      if taken candidate then try_idx (i + 1) else candidate
    in
    try_idx 1

let rec pp ppf t =
  match t.node with
  | Var (x, _) -> Fmt.string ppf x
  | Err _ -> Fmt.string ppf "error"
  | App (op, []) -> Op.pp ppf op
  | App (op, args) ->
    Fmt.pf ppf "@[<hov 1>%a(%a)@]" Op.pp op Fmt.(list ~sep:comma pp) args
  | Ite (c, t, e) ->
    Fmt.pf ppf "@[<hv>if %a@ then %a@ else %a@]" pp c pp t pp e

(* the canonical rendering is single-line whatever the term size: it keys
   the persist store and is embedded in diagnostic messages, where a
   margin-driven line break would corrupt the framing *)
let to_string t =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf 1_000_000;
  pp ppf t;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
