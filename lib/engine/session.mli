(** Engine session state.

    A session is what makes the engine better than one-shot CLI calls: the
    specification library is parsed and turned into rewrite systems {e
    once}, and each specification owns memoized interpreters whose bounded
    LRU normal-form caches ({!Adt.Rewrite.Memo}) are shared across every
    subsequent request — the warm-path payoff measured by benchmark E9.
    The session also carries the per-request limits and the metrics
    counters.

    A session is shared by every connection thread of every domain of the
    socket server, so its mutable state is striped per domain: each
    specification entry holds one interpreter slot per domain stripe,
    forked lazily ({!Adt.Interp.fork}) from a shared prototype so the
    compiled rewrite system is built once while memo state stays
    domain-local, and {!Metrics} stripes its counters the same way.
    Evaluate through {!with_interp}, which picks the calling domain's slot
    and holds its lock. A single-threaded process only ever materializes
    slot 0, so it behaves exactly like the pre-striping design (cache
    capacity included). The registry itself is immutable after
    {!create}. *)

type entry
(** One specification's state: the spec plus its striped interpreter
    slots. *)

type t

val create :
  ?fuel:int ->
  ?timeout:float ->
  ?cache_capacity:int ->
  ?slowlog_ms:float ->
  ?slowlog_capacity:int ->
  ?tracing:bool ->
  ?store:Persist.Store.t ->
  ?env:(string -> Adt.Spec.t option) ->
  Adt.Spec.t list ->
  t
(** [fuel] is the per-request step ceiling (default
    {!Adt.Rewrite.default_fuel}); [timeout] the per-request wall-clock
    budget (default none); [cache_capacity] the per-slot LRU capacity
    (default {!Adt.Rewrite.Memo.default_capacity}), which also bounds each
    entry's in-memory table of stored meta payloads. A later
    specification with the name of an earlier one replaces it.

    [slowlog_ms] switches on the slow-request ring log: requests whose
    latency is at least the threshold are recorded (trace ID, kind,
    spec, fuel, span breakdown) into a ring of [slowlog_capacity]
    entries (default {!Obs.Slowlog.default_capacity}), queryable via the
    [slowlog] verb. [tracing] controls whether the dispatcher builds a
    span tree per request; it defaults to whether the slow log is on
    (the log needs span breakdowns), and disabled tracing costs ~nothing
    (benchmark E11).

    The interpreter slots are striped per domain like the metrics, over
    {!Metrics.stripes} slots.

    [store] plugs in the persistent on-disk result store: each
    specification's entry (keyed by {!Adt.Spec_digest.spec}) is loaded at
    creation — the warm start — and normal forms that cost rewrite steps,
    check/lint payloads, proofs and testgen verdicts computed during the
    session are written back through it (see {!persist_flush}). [env]
    resolves [uses] clauses when document-session edits are parsed
    ({!docs}). *)

val entry_spec : entry -> Adt.Spec.t

val with_interp : entry -> (Adt.Interp.t -> 'a) -> 'a
(** Runs the function on the calling domain's interpreter slot, holding
    that slot's lock (released on exception): the way every evaluation
    that reads or fills a memo cache must run. The slot is forked from
    the entry's prototype on the domain stripe's first use. *)

val find : t -> string -> entry option
val spec_names : t -> string list
(** In registration order. *)

val limits : t -> Limits.t
val metrics : t -> Metrics.t

val slowlog : t -> Obs.Slowlog.t option
(** The shared slow-request log, when enabled. *)

val tracing : t -> bool
(** Whether the dispatcher should trace requests. *)

type cache_totals = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

val cache_totals : t -> cache_totals
(** Summed over every specification's materialized interpreter slots. *)

(** {1 The persistent store}

    When the session was created with a [store], every specification
    entry carries its slice of the on-disk cache: normal forms keyed by
    the input term ([Term.hash] and canonical rendering on disk) and
    opaque meta payloads keyed by [(kind, key)]. A hit answers
    without evaluation — and reports zero steps, the memo-hit
    convention. All probes and recordings are no-ops without a store. *)

val store : t -> Persist.Store.t option

val persist_find : entry -> Adt.Term.t -> (Adt.Interp.value * int) option
(** The cached classification of the term's normal form plus the rewrite
    steps the cold run paid, when the records loaded at creation hold the
    term under this specification digest. Those records are not parsed
    there: they wait, as text, under the {!Adt.Term.hash} their key was
    stored with. The first probe of a hash verifies each record under it
    once: its key is parsed and must have the hash it was filed under,
    and its value is parsed. The records that pass keep their key term,
    so a later probe is one physical comparison. A record that fails is
    counted corrupt and never served. Results computed in this process
    are not found here: the interpreter's bounded memo caches them. *)

val persist_record : t -> entry -> Adt.Term.t -> Adt.Interp.value -> int -> unit
(** Files an evaluation outcome for later processes. Call it only after
    {!persist_find} missed on the term: it does not probe again. Only an
    evaluation that fired a rule ([steps > 0]) is filed. A 0-step one is
    either a memo hit, whose first evaluation in this process was filed
    if that term was a query root, or a term no rule rewrites; a later
    process recomputes either at no rule cost with the same [steps=0]
    reply. [Diverged] is never recorded — a larger fuel budget could
    still normalize the term. Buffered; written back in batches and at
    {!persist_flush}. *)

val persist_meta_find : entry -> kind:string -> key:string -> string option
val persist_meta_record : t -> entry -> kind:string -> key:string -> string -> unit
(** Stored replies (check/lint/proof/testgen, as {!Protocol.payload}
    text) under the same digest-keyed entry. The in-memory table holds at most [cache_capacity]
    payloads and evicts the least recently used, since [prove] goals and
    [testgen] keys are the client's choice; an evicted payload is
    recomputed and filed again on its next request. While a [(kind, key)]
    stays cached its first recording wins; across processes the store's
    load keeps the newest. *)

val persist_flush : t -> unit
(** Appends every entry's buffered records to the store, one checksummed
    frame per entry. Called by the server at end of connection and
    shutdown; call it before dropping a session whose results should
    survive. *)

type persist_totals = {
  hits : int;
  misses : int;
  corrupt : int;
      (** Validation failures: the store's (bad header or frame), and
          loaded nf records that fail verification, counted when a probe
          first reaches them. *)
  loaded : int;
      (** Records taken from disk at session creation; the normal forms
          among them are verified only when first probed. *)
  files : int;  (** Entry files on disk now. *)
  bytes : int;
  read_only : bool;
}

val persist_totals : t -> persist_totals option
(** [None] without a store. *)

val docs : t -> Docsession.Manager.t
(** The versioned-document layer behind the [session-open] /
    [session-edit] / [session-status] verbs. *)

val prometheus : t -> string
(** The session's full Prometheus text exposition: request counters (by
    kind), malformed/error totals, latency and fuel histograms
    ([_bucket]/[_sum]/[_count] series), cache hit/miss/eviction and
    occupancy, and — when enabled — slow-log gauges. Counters are the
    exact merge of every metrics stripe ({!Metrics.snapshot}).
    Newline-terminated lines; served by the [metrics] verb and
    [adtc stats --prometheus]. *)
