(* Metrics are striped per domain: each stripe is a full set of counters
   guarded by its own mutex, and recording touches only the stripe of the
   calling domain — the request path never contends with other domains.
   Scrapes rebuild the global view by merging every stripe exactly
   (integers add, histograms merge by the Obs.Hist merge law), so a
   snapshot after quiescence equals what a single global lock would have
   counted. Systhreads within one domain share that domain's stripe; the
   stripe mutex serializes them. *)

type stripe = {
  lock : Mutex.t;
  mutable requests : int;
  kinds : int array;
  mutable malformed : int;
  mutable errors : int;
  mutable fuel_spent : int;
  rule_hits : (string, int) Hashtbl.t;
  mutable testgen_suites : int;
  testgen_failures : (string, int) Hashtbl.t;
  latency : Obs.Hist.t;
  fuel_hist : Obs.Hist.t;
}

type t = { stripes : stripe array }

type snapshot = {
  requests : int;
  kinds : int array;
  malformed : int;
  errors : int;
  fuel_spent : int;
  rule_hits : (string * int) list;
  testgen_suites : int;
  testgen_failures : (string * int) list;
  latency : Obs.Hist.t;
  fuel_hist : Obs.Hist.t;
}

let make_stripe () =
  {
    lock = Mutex.create ();
    requests = 0;
    kinds = Array.make (List.length Protocol.kinds) 0;
    malformed = 0;
    errors = 0;
    fuel_spent = 0;
    rule_hits = Hashtbl.create 8;
    testgen_suites = 0;
    testgen_failures = Hashtbl.create 8;
    latency = Obs.Hist.create ~bounds:Obs.Hist.default_latency_bounds;
    fuel_hist = Obs.Hist.create ~bounds:Obs.Hist.default_fuel_bounds;
  }

let default_stripes = min 64 (max 8 (Domain.recommended_domain_count ()))

let create ?(stripes = default_stripes) () =
  if stripes < 1 then invalid_arg "Metrics.create: stripes must be positive";
  { stripes = Array.init stripes (fun _ -> make_stripe ()) }

let stripes t = Array.length t.stripes

(* Domain ids are small, dense integers (the main domain is 0), so modular
   reduction spreads a pool of worker domains evenly over the stripes. *)
let stripe_of t =
  t.stripes.((Domain.self () :> int) mod Array.length t.stripes)

let with_stripe t f =
  let s = stripe_of t in
  Mutex.protect s.lock (fun () -> f s)

(* one array bump: a request's kind is its index into Protocol.kinds, so
   every kind the protocol can parse has its counter by construction
   (malformed lines have their own counter) *)
let record_request t request =
  let i = Protocol.kind_index request in
  with_stripe t (fun s ->
      s.requests <- s.requests + 1;
      s.kinds.(i) <- s.kinds.(i) + 1)

let record_malformed_request t =
  with_stripe t (fun s ->
      s.requests <- s.requests + 1;
      s.malformed <- s.malformed + 1;
      s.errors <- s.errors + 1)

let add_fuel t steps = with_stripe t (fun s -> s.fuel_spent <- s.fuel_spent + steps)

let bump_table table key =
  Hashtbl.replace table key
    (1 + Option.value ~default:0 (Hashtbl.find_opt table key))

let record_rule_hits t codes =
  with_stripe t (fun s -> List.iter (bump_table s.rule_hits) codes)

let record_testgen_run t ~failures =
  with_stripe t (fun s ->
      s.testgen_suites <- s.testgen_suites + 1;
      List.iter (bump_table s.testgen_failures) failures)

let record_outcome t ~latency ?fuel ~error () =
  with_stripe t (fun s ->
      Obs.Hist.observe s.latency latency;
      (match fuel with
      | None -> ()
      | Some steps -> Obs.Hist.observe s.fuel_hist (float_of_int steps));
      if error then s.errors <- s.errors + 1)

(* {1 Snapshots} *)

let assoc_of_table table =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun key n acc -> (key, n) :: acc) table [])

let snapshot_stripe (s : stripe) =
  Mutex.protect s.lock (fun () ->
      {
        requests = s.requests;
        kinds = Array.copy s.kinds;
        malformed = s.malformed;
        errors = s.errors;
        fuel_spent = s.fuel_spent;
        rule_hits = assoc_of_table s.rule_hits;
        testgen_suites = s.testgen_suites;
        testgen_failures = assoc_of_table s.testgen_failures;
        latency = Obs.Hist.copy s.latency;
        fuel_hist = Obs.Hist.copy s.fuel_hist;
      })

let merge_assoc a b =
  let table = Hashtbl.create 16 in
  List.iter (fun (k, n) -> Hashtbl.replace table k n) a;
  List.iter
    (fun (k, n) ->
      Hashtbl.replace table k (n + Option.value ~default:0 (Hashtbl.find_opt table k)))
    b;
  assoc_of_table table

let merge a b =
  {
    requests = a.requests + b.requests;
    kinds = Array.map2 ( + ) a.kinds b.kinds;
    malformed = a.malformed + b.malformed;
    errors = a.errors + b.errors;
    fuel_spent = a.fuel_spent + b.fuel_spent;
    rule_hits = merge_assoc a.rule_hits b.rule_hits;
    testgen_suites = a.testgen_suites + b.testgen_suites;
    testgen_failures = merge_assoc a.testgen_failures b.testgen_failures;
    latency = Obs.Hist.merge a.latency b.latency;
    fuel_hist = Obs.Hist.merge a.fuel_hist b.fuel_hist;
  }

let stripe_snapshots t = Array.to_list (Array.map snapshot_stripe t.stripes)

(* Merged in stripe order, so float sums are deterministic; with a single
   stripe the snapshot is byte-for-byte what the stripe recorded. *)
let snapshot t =
  match stripe_snapshots t with
  | [] -> assert false (* create enforces stripes >= 1 *)
  | first :: rest -> List.fold_left merge first rest

let by_kind snap =
  List.mapi (fun i kind -> (kind, snap.kinds.(i))) Protocol.kinds

let latency_total snap = Obs.Hist.sum snap.latency
let latency_max snap = Obs.Hist.max_value snap.latency
