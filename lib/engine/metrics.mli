(** Engine metrics, striped per domain.

    A long-lived evaluation service must be observable: the dispatcher
    counts requests by kind, malformed lines, error responses, rewrite
    steps spent, and summarizes wall-clock latency and per-request fuel
    as fixed-bucket histograms ({!Obs.Hist}) ready for Prometheus
    exposition.

    The per-kind counters are one array indexed by {!Protocol.kind_index}:
    {!Protocol.kinds} is the only list of request kinds, and recording a
    kind is one array bump.

    The counters are striped: each domain records into its own stripe (a
    full set of counters behind its own mutex, selected by [Domain.self]),
    so the request hot path never takes a lock another domain is holding —
    only the systhreads of one domain share a stripe. Reads go through
    {!snapshot}, which merges every stripe {e exactly}: integer counters
    add and histograms combine by the {!Obs.Hist.merge} law, so a snapshot
    taken after quiescence equals what a single global counter set would
    have recorded. Metrics are queryable over the wire through the
    [stats] and [metrics] requests ({!Dispatch}). *)

type t

val create : unit -> t

val stripes : t -> int
(** The number of per-domain stripes: the machine's recommended domain
    count, at least 8 and at most 64. Domains map onto stripes by
    [Domain.self mod stripes], so more domains than stripes only
    shares — never corrupts. *)

(** {1 Recording}

    All recording operations lock only the calling domain's stripe and
    are safe from any thread of any domain. *)

val record_request : t -> Protocol.request -> unit
(** Bumps the total request counter and the request's kind counter: one
    array slot, {!Protocol.kind_index}, so every kind the protocol can
    parse is counted by construction. *)

val record_malformed_request : t -> unit
(** One malformed line: counts towards [requests], [malformed], and
    [errors] atomically (one stripe lock). *)

val record_rule_hits : t -> string list -> unit
(** Bumps the per-rule lint finding counter for each ADTxxx code, under
    one stripe lock. *)

val record_testgen_run : t -> failures:string list -> unit
(** One conformance suite executed; [failures] names the axioms it
    falsified (one bump per occurrence). *)

val record_outcome :
  t -> latency:float -> ?fuel:int -> error:bool -> unit -> unit
(** Per-request epilogue: observes wall-clock [latency] seconds, adds the
    request's [fuel] steps (when it was fuel-metered: normalize and prove,
    each rule application counting once) to [fuel_spent] and observes
    them in [fuel_hist], and bumps the error counter when the response
    was an error — all under one stripe lock. The one place fuel reaches
    the session totals. *)

(** {1 Snapshots} *)

type snapshot = {
  requests : int;  (** Every request line, malformed ones included. *)
  kinds : int array;
      (** Requests per kind, indexed by {!Protocol.kind_index}; read them
          by name through {!by_kind}. *)
  malformed : int;
      (** Lines that failed protocol parsing (they also count towards
          [requests] and [errors]). *)
  errors : int;  (** Error responses sent. *)
  fuel_spent : int;
  rule_hits : (string * int) list;
      (** Lint findings per ADTxxx rule code, sorted by code. *)
  testgen_suites : int;
  testgen_failures : (string * int) list;
      (** Axioms falsified per [testgen] run, sorted by axiom name — the
          [adtc_testgen_failures_total{axiom}] series. *)
  latency : Obs.Hist.t;  (** Per-request wall-clock seconds. *)
  fuel_hist : Obs.Hist.t;
      (** Per-request rewrite steps, observed once per fuel-metered
          request (normalize and prove). *)
}

val snapshot : t -> snapshot
(** The exact merge of every stripe, in stripe order. The result is
    detached: it never changes as recording continues. *)

val stripe_snapshots : t -> snapshot list
(** One snapshot per stripe, in stripe order — the decomposition whose
    {!merge}-fold {!snapshot} returns. Exposed so tests can assert the
    merge law against per-domain state. *)

val merge : snapshot -> snapshot -> snapshot
(** Exact combination: integer counters add, labelled counters add per
    label, histograms merge by {!Obs.Hist.merge}. *)

val by_kind : snapshot -> (string * int) list
(** [(kind, count)] for every kind of {!Protocol.kinds}, in that order. *)

val latency_total : snapshot -> float
(** Seconds, summed over requests. *)

val latency_max : snapshot -> float
