open Adt

(* Each specification gets a stripe of memoizing interpreters, one per
   domain slot, forked lazily from a shared prototype: the compiled rewrite
   system is immutable and shared, while each slot owns its own LRU memo
   behind its own lock, so domains normalize in parallel without convoying
   on one cache mutex. The memos are keyed on hash-consed term ids
   ([Term.id], physical equality) — terms arriving over different
   connections (and different domains) intern to the same node, so every
   slot's probes stay one pointer comparison.

   Slots are created on first use by a given domain slot and published
   through an [Atomic.t], so a single-threaded process only ever has slot 0
   — exactly the pre-striping behavior, cache capacity included. These
   bounded memos are the only in-memory cache of normal forms computed in
   this process; a store adds no memory per request. *)

type slot = { interp : Interp.t; lock : Mutex.t }

(* One specification's slice of the persistent store: the normal forms
   and meta payloads loaded at boot (the warm start), plus the records this
   process filed since, buffered in [pending] until a flush appends
   them to the entry as one checksummed frame. On disk an nf record is
   keyed by [<Term.hash> <Term.to_string>]. Loaded nf records sit unparsed
   in [warm], bucketed by that hash (hashes collide, so a bucket is a
   list); the first probe that reaches a bucket verifies its candidates
   once against the current signature ([verify]), and from then on a hit
   is one [==] against a verified key, which the slot keeps interned.
   Normal forms computed in this process are cached only by the bounded
   per-slot memo; [warm] never grows after boot. *)
type bucket =
  | Raw of (string * string) list  (* key rendering, value text *)
  | Verified of (Term.t * (Term.t * int)) list  (* key, (nf, cold steps) *)

(* meta payloads by (kind, key); the client chooses the keys of [prove]
   and [testgen] requests, so the table is bounded like the memo *)
module Meta_lru = Lru.Make (struct
  type t = string * string

  let equal (k, k') (l, l') = String.equal k l && String.equal k' l'
  let hash = Hashtbl.hash
end)

type persist_state = {
  digest : string;  (* Spec_digest.spec — the on-disk entry this feeds *)
  plock : Mutex.t;
  warm : (int, bucket) Hashtbl.t;  (* Term.hash of the key -> candidates *)
  meta : string Meta_lru.t;  (* (kind, key) -> payload *)
  mutable pending : Persist.Store.record list;  (* newest first *)
  mutable pending_count : int;
  mutable hits : int;
  mutable misses : int;
  mutable parse_corrupt : int;  (* loaded records that failed verification *)
  loaded : int;  (* records read from disk at boot *)
}

type entry = {
  spec : Spec.t;
  slots : slot option Atomic.t array;
  slots_lock : Mutex.t;  (* serializes lazy slot creation only *)
  persist : persist_state option;
}

type t = {
  registry : (string * entry) list;  (* registration order, names unique *)
  limits : Limits.t;
  metrics : Metrics.t;
  slowlog : Obs.Slowlog.t option;
  tracing : bool;
  store : Persist.Store.t option;
  docs : Docsession.Manager.t;
}

(* {1 The persistent normal-form store}

   On-disk record encodings. A normal form is either error-free or [error]
   at the top (strict propagation), so two shapes suffice: [T steps term]
   for constructor/stuck normal forms and [E steps Sort] for errors —
   [error] alone has no parseable rendering, the sort rebuilds it. *)

let nf_record value steps =
  match value with
  | Interp.Value nf | Interp.Stuck nf ->
    Some (Fmt.str "T %d %s" steps (Term.to_string nf))
  | Interp.Error_value sort -> Some (Fmt.str "E %d %s" steps (Sort.name sort))
  | Interp.Diverged -> None

let split_word s =
  match String.index_opt s ' ' with
  | Some i when i > 0 && i < String.length s - 1 ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | _ -> None

let parse_nf_value spec value =
  match split_word value with
  | None -> None
  | Some (tag, rest) -> (
    match split_word rest with
    | None -> None
    | Some (steps, payload) -> (
      match (int_of_string_opt steps, tag) with
      | Some steps, "T" when steps >= 0 -> (
        match Parser.parse_term spec payload with
        | Ok nf -> Some (nf, steps)
        | Error _ -> None)
      | Some steps, "E" when steps >= 0 -> Some (Term.err (Sort.v payload), steps)
      | _ -> None))

(* an nf record's key: [Term.hash] then the canonical rendering *)
let nf_key term =
  String.concat " " [ string_of_int (Term.hash term); Term.to_string term ]

let split_nf_key key =
  match split_word key with
  | Some (hash, rendering) ->
    Option.map (fun hash -> (hash, rendering)) (int_of_string_opt hash)
  | None -> None

(* the warm start parses nothing: each nf record goes, as text, into the
   bucket of the hash its key claims; a key without one can never be
   probed, so it is counted corrupt here *)
let load_persist ?cache_capacity store spec =
  let digest = Spec_digest.spec spec in
  let warm = Hashtbl.create 256 in
  let meta = Meta_lru.create ?capacity:cache_capacity () in
  let parse_corrupt = ref 0 in
  let loaded = ref 0 in
  List.iter
    (fun r ->
      if String.equal r.Persist.Store.kind "nf" then
        match split_nf_key r.Persist.Store.key with
        | None -> incr parse_corrupt
        | Some (hash, rendering) ->
          let candidates =
            match Hashtbl.find_opt warm hash with Some (Raw cs) -> cs | _ -> []
          in
          Hashtbl.replace warm hash
            (Raw ((rendering, r.Persist.Store.value) :: candidates));
          incr loaded
      else begin
        Meta_lru.add meta
          (r.Persist.Store.kind, r.Persist.Store.key)
          r.Persist.Store.value;
        incr loaded
      end)
    (Persist.Store.load store ~digest);
  {
    digest;
    plock = Mutex.create ();
    warm;
    meta;
    pending = [];
    pending_count = 0;
    hits = 0;
    misses = 0;
    parse_corrupt = !parse_corrupt;
    loaded = !loaded;
  }

let create ?fuel ?timeout ?cache_capacity ?slowlog_ms ?slowlog_capacity
    ?tracing ?store ?env specs =
  let limits = Limits.v ?fuel ?timeout () in
  let metrics = Metrics.create () in
  let stripes = Metrics.stripes metrics in
  let slowlog =
    Option.map
      (fun ms ->
        Obs.Slowlog.create ?capacity:slowlog_capacity
          ~threshold_s:(ms /. 1000.) ())
      slowlog_ms
  in
  (* the slow-request log needs span breakdowns and trace IDs, so it
     implies tracing; tracing alone (adtc trace) needs no log *)
  let tracing =
    match tracing with Some b -> b | None -> Option.is_some slowlog
  in
  let registry =
    List.fold_left
      (fun registry spec ->
        let name = Spec.name spec in
        let interp =
          Interp.create ~fuel:limits.Limits.fuel ~memo:true
            ?memo_capacity:cache_capacity spec
        in
        let slots = Array.init stripes (fun _ -> Atomic.make None) in
        Atomic.set slots.(0) (Some { interp; lock = Mutex.create () });
        let persist =
          Option.map (fun s -> load_persist ?cache_capacity s spec) store
        in
        let entry = { spec; slots; slots_lock = Mutex.create (); persist } in
        (* replace an earlier registration of the same name in place *)
        if List.mem_assoc name registry then
          List.map
            (fun (n, e) -> if String.equal n name then (n, entry) else (n, e))
            registry
        else registry @ [ (name, entry) ])
      [] specs
  in
  {
    registry;
    limits;
    metrics;
    slowlog;
    tracing;
    store;
    docs = Docsession.Manager.create ?env ~fuel:limits.Limits.fuel ();
  }

let entry_spec entry = entry.spec

let with_interp entry f =
  let cell =
    entry.slots.((Domain.self () :> int) mod Array.length entry.slots)
  in
  let slot =
    match Atomic.get cell with
    | Some slot -> slot
    | None ->
      Mutex.protect entry.slots_lock (fun () ->
          match Atomic.get cell with
          | Some slot -> slot (* another thread of this slot won the race *)
          | None ->
            let proto =
              match Atomic.get entry.slots.(0) with
              | Some s -> s.interp
              | None -> assert false (* slot 0 is created eagerly *)
            in
            let slot = { interp = Interp.fork proto; lock = Mutex.create () } in
            Atomic.set cell (Some slot);
            slot)
  in
  Mutex.protect slot.lock (fun () -> f slot.interp)

let find t name = List.assoc_opt name t.registry
let spec_names t = List.map fst t.registry
let limits t = t.limits
let metrics t = t.metrics
let slowlog t = t.slowlog
let tracing t = t.tracing
let store t = t.store
let docs t = t.docs

(* {1 Persist probes and recording} *)

let flush_locked store p =
  if p.pending <> [] then begin
    (* oldest first, so a later record for the same (kind, key) is the
       one the store's load keeps *)
    Persist.Store.append store ~digest:p.digest (List.rev p.pending);
    p.pending <- [];
    p.pending_count <- 0
  end

(* writes amortize: a flush appends one frame (one open, one write), so
   batch records rather than paying that per request *)
let pending_flush_threshold = 64

(* Verifies a raw bucket once, on the first probe of its hash: each
   candidate's key is parsed against the current signature and must have
   the hash it was filed under, then its value is parsed. A candidate that
   fails is counted corrupt and dropped, never served. *)
let verify spec p hash candidates =
  let slots =
    List.filter_map
      (fun (key_text, value) ->
        let key =
          match Parser.parse_term spec key_text with
          | Ok key when Term.hash key = hash -> Some key
          | Ok _ | Error _ -> None
        in
        let slot =
          Option.bind key (fun key ->
              Option.map
                (fun cached -> (key, cached))
                (parse_nf_value spec value))
        in
        if Option.is_none slot then p.parse_corrupt <- p.parse_corrupt + 1;
        slot)
      candidates
  in
  if slots = [] then Hashtbl.remove p.warm hash
  else Hashtbl.replace p.warm hash (Verified slots);
  slots

(* the loaded record for [term]; under [plock] *)
let lookup spec p term =
  let hash = Term.hash term in
  match Hashtbl.find_opt p.warm hash with
  | None -> None
  | Some (Verified slots) -> List.assq_opt term slots
  | Some (Raw candidates) -> List.assq_opt term (verify spec p hash candidates)

let push_pending store p record =
  p.pending <- record :: p.pending;
  p.pending_count <- p.pending_count + 1;
  if p.pending_count >= pending_flush_threshold then flush_locked store p

let persist_find entry term =
  match entry.persist with
  | None -> None
  | Some p ->
    Mutex.protect p.plock (fun () ->
        match lookup entry.spec p term with
        | Some (nf, steps) ->
          p.hits <- p.hits + 1;
          (* classify exactly as an evaluation would *)
          Some (Interp.classify entry.spec nf, steps)
        | None ->
          p.misses <- p.misses + 1;
          None)

(* files only evaluations that fired a rule, without a re-probe: callers
   come here after [persist_find] missed (see the interface for why) *)
let persist_record t entry term value steps =
  match (t.store, entry.persist) with
  | Some store, Some p when steps > 0 -> (
    match nf_record value steps with
    | None -> ()
    | Some encoded ->
      let record =
        { Persist.Store.kind = "nf"; key = nf_key term; value = encoded }
      in
      Mutex.protect p.plock (fun () -> push_pending store p record))
  | _ -> ()

let persist_meta_find entry ~kind ~key =
  match entry.persist with
  | None -> None
  | Some p ->
    Mutex.protect p.plock (fun () ->
        match Meta_lru.find p.meta (kind, key) with
        | Some payload ->
          p.hits <- p.hits + 1;
          Some payload
        | None ->
          p.misses <- p.misses + 1;
          None)

let persist_meta_record t entry ~kind ~key payload =
  match (t.store, entry.persist) with
  | Some store, Some p ->
    Mutex.protect p.plock (fun () ->
        if not (Meta_lru.mem p.meta (kind, key)) then begin
          Meta_lru.add p.meta (kind, key) payload;
          push_pending store p { Persist.Store.kind; key; value = payload }
        end)
  | _ -> ()

let persist_flush t =
  match t.store with
  | None -> ()
  | Some store ->
    List.iter
      (fun (_, entry) ->
        match entry.persist with
        | None -> ()
        | Some p -> Mutex.protect p.plock (fun () -> flush_locked store p))
      t.registry

type persist_totals = {
  hits : int;
  misses : int;
  corrupt : int;
  loaded : int;
  files : int;
  bytes : int;
  read_only : bool;
}

let persist_totals t =
  match t.store with
  | None -> None
  | Some store ->
    let hits, misses, parse_corrupt, loaded =
      List.fold_left
        (fun (h, m, c, l) (_, entry) ->
          match entry.persist with
          | None -> (h, m, c, l)
          | Some p ->
            Mutex.protect p.plock (fun () ->
                (h + p.hits, m + p.misses, c + p.parse_corrupt, l + p.loaded)))
        (0, 0, 0, 0) t.registry
    in
    let s = Persist.Store.stats store in
    Some
      {
        hits;
        misses;
        corrupt = parse_corrupt + Persist.Store.corrupt_count store;
        loaded;
        files = s.Persist.Store.files;
        bytes = s.Persist.Store.bytes;
        read_only = Persist.Store.mode store = Persist.Store.Read_only;
      }

type cache_totals = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

let cache_totals t =
  List.fold_left
    (fun acc (_, entry) ->
      Array.fold_left
        (fun acc cell ->
          match Atomic.get cell with
          | None -> acc
          | Some slot -> (
            match
              Mutex.protect slot.lock (fun () -> Interp.memo_stats slot.interp)
            with
            | None -> acc
            | Some s ->
              {
                hits = acc.hits + s.Interp.hits;
                misses = acc.misses + s.Interp.misses;
                evictions = acc.evictions + s.Interp.evictions;
                entries = acc.entries + s.Interp.entries;
                capacity = acc.capacity + s.Interp.capacity;
              }))
        acc entry.slots)
    { hits = 0; misses = 0; evictions = 0; entries = 0; capacity = 0 }
    t.registry

(* {1 Prometheus exposition} *)

let prometheus t =
  let buf = Buffer.create 2048 in
  let m = Metrics.snapshot t.metrics in
  let f = float_of_int in
  Obs.Export.counter buf ~name:"adtc_requests_total"
    ~help:"Requests received, malformed lines included."
    (f m.Metrics.requests);
  Obs.Export.counter buf ~name:"adtc_requests_kind_total"
    ~help:"Requests by protocol kind."
    ~labelled:
      (List.map
         (fun (kind, n) -> ([ ("kind", kind) ], f n))
         (Metrics.by_kind m))
    0.;
  Obs.Export.counter buf ~name:"adtc_malformed_requests_total"
    ~help:"Lines that failed protocol parsing." (f m.Metrics.malformed);
  Obs.Export.counter buf ~name:"adtc_errors_total"
    ~help:"Error responses sent." (f m.Metrics.errors);
  Obs.Export.counter buf ~name:"adtc_fuel_steps_total"
    ~help:"Rewrite-rule applications across all requests."
    (f m.Metrics.fuel_spent);
  Obs.Export.counter buf ~name:"adtc_lint_findings_total"
    ~help:"Lint findings by ADTxxx rule code, across lint requests."
    ~labelled:
      (List.map
         (fun (code, n) -> ([ ("rule", code) ], f n))
         m.Metrics.rule_hits)
    0.;
  Obs.Export.counter buf ~name:"adtc_testgen_suites_total"
    ~help:"Conformance suites executed by testgen requests."
    (f m.Metrics.testgen_suites);
  Obs.Export.counter buf ~name:"adtc_testgen_failures_total"
    ~help:"Axioms falsified by testgen suites, by axiom name."
    ~labelled:
      (List.map
         (fun (axiom, n) -> ([ ("axiom", axiom) ], f n))
         m.Metrics.testgen_failures)
    0.;
  Obs.Export.histogram buf ~name:"adtc_request_latency_seconds"
    ~help:"Per-request wall-clock latency." m.Metrics.latency;
  Obs.Export.histogram buf ~name:"adtc_request_fuel_steps"
    ~help:"Rewrite steps per fuel-metered request (normalize, prove)."
    m.Metrics.fuel_hist;
  let c = cache_totals t in
  Obs.Export.counter buf ~name:"adtc_cache_hits_total"
    ~help:"Normal-form cache hits, summed over specifications." (f c.hits);
  Obs.Export.counter buf ~name:"adtc_cache_misses_total"
    ~help:"Normal-form cache misses, summed over specifications." (f c.misses);
  Obs.Export.counter buf ~name:"adtc_cache_evictions_total"
    ~help:"LRU evictions, summed over specifications." (f c.evictions);
  Obs.Export.gauge buf ~name:"adtc_cache_entries"
    ~help:"Live normal-form cache entries." (f c.entries);
  Obs.Export.gauge buf ~name:"adtc_cache_capacity"
    ~help:"Normal-form cache capacity, summed over specifications."
    (f c.capacity);
  Obs.Export.gauge buf ~name:"adtc_specs_loaded"
    ~help:"Specifications served by this session."
    (f (List.length t.registry));
  (match t.slowlog with
  | None -> ()
  | Some sl ->
    Obs.Export.gauge buf ~name:"adtc_slowlog_threshold_seconds"
      ~help:"Latency at or above which a request enters the slow log."
      (Obs.Slowlog.threshold_s sl);
    Obs.Export.gauge buf ~name:"adtc_slowlog_entries"
      ~help:"Entries currently held by the slow-request ring log."
      (f (Obs.Slowlog.length sl)));
  (match persist_totals t with
  | None -> ()
  | Some p ->
    Obs.Export.counter buf ~name:"adtc_persist_hits_total"
      ~help:"Requests answered from the persistent on-disk store."
      (f p.hits);
    Obs.Export.counter buf ~name:"adtc_persist_misses_total"
      ~help:"Persistent-store probes that fell through to evaluation."
      (f p.misses);
    Obs.Export.counter buf ~name:"adtc_persist_corrupt_total"
      ~help:
        "Store records rejected by validation (bad header, checksum, \
         version, or unparseable payload) and treated as misses."
      (f p.corrupt);
    Obs.Export.gauge buf ~name:"adtc_persist_warm_entries"
      ~help:"Records loaded from disk when the session started (warm start)."
      (f p.loaded);
    Obs.Export.gauge buf ~name:"adtc_persist_entries"
      ~help:"Entry files currently in the store directory." (f p.files);
    Obs.Export.gauge buf ~name:"adtc_persist_bytes"
      ~help:"Bytes of entry files currently in the store directory."
      (f p.bytes);
    Obs.Export.gauge buf ~name:"adtc_persist_read_only"
      ~help:
        "1 when another live session holds the writer lock and this one \
         fell back to read-only."
      (if p.read_only then 1. else 0.));
  Buffer.contents buf
