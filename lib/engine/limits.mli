(** Per-request resource limits.

    The engine serves untrusted request streams against axioms that may
    not terminate (section 5's symbolic interpretation has no termination
    guarantee for arbitrary specifications), so every request runs under
    two independent budgets:

    - a {b fuel} budget — a rewrite-step count enforced inside the
      normalization loop (a request may lower but never raise the
      session's ceiling);
    - a {b wall-clock} budget — a deadline checked cooperatively at every
      rewrite step (by the request's {!Adt.Rewrite} rule hook, after the
      step is charged), which interrupts work the fuel metric prices
      badly (pathological matching, huge terms).

    Either exhaustion yields a structured error response; the session and
    its cache survive. The deadline is cooperative rather than
    signal-based on purpose: a [SIGALRM] handler is process-global, so
    under the threaded server one request's alarm could fire inside
    another request — and even single-threaded it could fire between the
    work finishing and the alarm being disarmed, escaping as a stray
    exception. A closure checking the clock has neither race and is
    per-request by construction. *)

type t = {
  fuel : int;  (** Per-request rewrite-step ceiling. *)
  timeout : float option;  (** Per-request wall-clock budget, seconds. *)
}

val v : ?fuel:int -> ?timeout:float -> unit -> t
(** [fuel] defaults to {!Adt.Rewrite.default_fuel}; no timeout unless
    given. Raises [Invalid_argument] on a non-positive budget. *)

val effective_fuel : t -> int option -> int
(** The budget a request gets: its own [fuel=N] option capped by the
    session ceiling, or the ceiling when it asks for nothing. *)

exception Timed_out

val with_deadline :
  float option -> ((unit -> unit) option -> 'a) -> ('a, [ `Timeout ]) result
(** [with_deadline timeout f] calls [f poll] where [poll] (to be invoked
    from inside the metered loop — the dispatcher calls it last in the
    request's rule hook, the [?on_rule] of {!Adt.Interp.eval_count} and
    {!Adt.Proof.config}) raises {!Timed_out} once [timeout] seconds have
    elapsed; the escape is caught here and reported as [Error `Timeout].
    [f None] is called when [timeout] is [None] — no limit. Work that
    completes without ever polling always returns [Ok]: a deadline can
    only interrupt a poll point, never misclassify a finished result.
    Thread-safe and reentrant. *)
