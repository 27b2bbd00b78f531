(* The three workloads: seeded request streams and the server settings
   each runs under (why each was chosen is in NOTES.md). Every random
   stream is named by (seed, purpose), so one stream's length never shifts
   another's draws, and a stream is a pure function of the seed: the
   traced replay regenerates exactly the requests the socket client
   sent. *)

type req = { line : string; expect : string }

let req r = { line = Model.line r; expect = Model.expect r }

type t = Hot_queue | Cold_symtab | Restart_db

let all = [ Hot_queue; Cold_symtab; Restart_db ]

let name = function
  | Hot_queue -> "hot-queue"
  | Cold_symtab -> "cold-symtab"
  | Restart_db -> "restart-db"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

let spec_files =
  [ "specs/queue.adt"; "specs/symboltable.adt"; "specs/database.adt" ]

let rng seed purpose = Random.State.make [| seed; purpose |]
let int st n = Random.State.int st n

(* Fills an array left to right, so draws happen in index order. *)
let draw n f = Array.to_list (Array.init n (fun _ -> f ()))

(* {1 hot-queue: a Zipf replay over a small pool of short requests} *)

let pool_size = 64

(* Pool entry [k] has 2 + k mod 5 operations under observer k / 5 mod 3, and
   only the operations' kinds and items are drawn: the size mix the Zipf
   replay sees is the same for every seed, so seeds do not move the
   latency quantiles. *)
let hot_request st k =
  let rec go q n =
    if n = 0 then q
    else if int st 10 < 7 then go (Model.Add (q, int st 3)) (n - 1)
    else go (Model.Remove q) (n - 1)
  in
  let q = go Model.New (2 + (k mod 5)) in
  match k / 5 mod 3 with
  | 0 -> Model.Front q
  | 1 -> Model.Is_empty q
  | _ -> Model.Queue_term q

let hot_pool seed =
  let st = rng seed 1 in
  let seen = Hashtbl.create pool_size in
  let rec fill acc k =
    if k = pool_size then Array.of_list (List.rev acc)
    else
      let r = req (hot_request st k) in
      if Hashtbl.mem seen r.line then fill acc k
      else begin
        Hashtbl.add seen r.line ();
        fill (r :: acc) (k + 1)
      end
  in
  fill [] 0

(* Zipf(1) over pool ranks: rank k has weight 1/(k+1). *)
let zipf_cdf n =
  let w = Array.init n (fun k -> 1. /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf st =
  let u = Random.State.float st 1. in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) > u then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length cdf - 1)

(* {1 cold-symtab: distinct long Symboltable terms} *)

(* Far below the ~90 new memo entries each request makes times the
   requests of a run, so the LRU evicts throughout the timed phase. *)
let cold_cache_capacity = 4096

let symtab_ops st =
  let rec go s depth k =
    if k = 0 then s
    else
      match int st 4 with
      | 0 -> go (Model.Enterblock s) (depth + 1) (k - 1)
      | 1 when depth > 1 -> go (Model.Leaveblock s) (depth - 1) (k - 1)
      | 1 when int st 100 = 0 ->
        (* rarely leave the outermost block: the strict-error path *)
        go (Model.Leaveblock s) depth (k - 1)
      | _ ->
        let id = int st 3 in
        let attrs = int st 2 in
        go (Model.Declare (s, id, attrs)) depth (k - 1)
  in
  let ops = 40 + int st 81 in
  go Model.Init 1 ops

let cold_request st =
  let s = symtab_ops st in
  let id = int st 3 in
  if Random.State.bool st then Model.Retrieve (s, id) else Model.Is_inblock (s, id)

(* {1 restart-db: store reads beside fresh writes} *)

let db_ops st =
  let rec go d k =
    if k = 0 then d
    else if int st 5 = 0 then go (Model.Delete (d, int st 3)) (k - 1)
    else
      let key = int st 3 in
      let record = int st 2 in
      go (Model.Insert (d, key, record)) (k - 1)
  in
  let ops = 4 + int st 21 in
  go Model.Empty_db ops

let db_request st =
  let d = db_ops st in
  let k = int st 3 in
  match int st 4 with
  | 0 -> Model.Db_term (Model.Delete (d, k))
  | 1 -> Model.Count d
  | 2 -> Model.Lookup (d, k)
  | _ -> Model.Has (d, k)

(* S1, served into a fresh store by a first server process *)
let s1_size = 1500

(* {1 Plans} *)

type plan = {
  warmup : req list;  (** Untimed, before the timed phase. *)
  stream : unit -> req;  (** The timed requests. *)
  prepare : req list;  (** Served by a first server before the measured one. *)
  uses_store : bool;
  cache_capacity : int option;
}

(* One connection each: two connections on one server domain doubled the
   hot-queue median (the two worker threads hand the domain lock back and
   forth) and its run-to-run spread, and on two domains the median was
   bimodal, as the accept race decides whether the two share a domain. *)
let plan w seed =
  match w with
  | Hot_queue ->
    let pool = hot_pool seed in
    let cdf = zipf_cdf pool_size in
    let st = rng seed 10 in
    {
      warmup = Array.to_list pool;
      stream = (fun () -> pool.(zipf_draw cdf st));
      prepare = [];
      uses_store = false;
      cache_capacity = None;
    }
  | Cold_symtab ->
    let warm = rng seed 20 in
    let st = rng seed 2 in
    {
      warmup = draw 20 (fun () -> req (cold_request warm));
      stream = (fun () -> req (cold_request st));
      prepare = [];
      uses_store = false;
      cache_capacity = Some cold_cache_capacity;
    }
  | Restart_db ->
    let s1 =
      let st = rng seed 3 in
      Array.of_list (draw s1_size (fun () -> req (db_request st)))
    in
    let warm = rng seed 30 in
    (* a fair coin between a store read (an S1 request) and a fresh S2
       request, which the server evaluates and records *)
    let coin = rng seed 5 in
    let reads = rng seed 6 in
    let fresh = rng seed 4 in
    {
      warmup = draw 20 (fun () -> req (db_request warm));
      stream =
        (fun () ->
          if Random.State.bool coin then s1.(int reads s1_size)
          else req (db_request fresh));
      prepare = Array.to_list s1;
      uses_store = true;
      cache_capacity = None;
    }
