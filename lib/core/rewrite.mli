(** Term rewriting.

    Axioms read left to right are rewrite rules; normalizing a ground term
    against a specification is the paper's "symbolic interpretation" of the
    algebra (section 5). The engine implements the two semantic rules the
    paper builds into its notation:

    - {b strict error propagation}: an operation applied to an argument list
      containing [error] is [error];
    - {b lazy if-then-else}: the condition is evaluated first and selects a
      branch; the unselected branch is never evaluated (so axioms such as
      [FRONT(ADD(q,i)) = if IS_EMPTY?(q) then i else FRONT(q)] do not poison
      themselves through [FRONT(NEW) = error]).

    Normalization is leftmost-innermost, which matches the strict
    semantics. Redexes are located by a matching automaton ({!Match_tree})
    compiled once per system, and one loop fuses matching with
    right-hand-side instantiation, through an optional normal-form cache
    ({!Memo}). {!Reference}, a naive linear-scan engine, is kept as the
    test oracle; the differential harness in [test/test_diff.ml] checks
    the two are observably identical. The oracle also offers the
    leftmost-outermost strategy, which may normalize terms the innermost
    strategy sends to [error] (it enforces strictness only on arguments
    in normal form); the tests compare the two strategies on ground
    terms. *)

type rule = private { rule_name : string; lhs : Term.t; rhs : Term.t }

val rule : ?name:string -> lhs:Term.t -> rhs:Term.t -> unit -> rule
(** Same validity conditions as {!Axiom.v}, except the left-hand side may be
    any non-variable term. *)

val rule_of_axiom : Axiom.t -> rule
val axiom_of_rule : rule -> Axiom.t
val pp_rule : rule Fmt.t

type system

val of_spec : Spec.t -> system
(** Rules are the specification's {e executable} axioms in order; an axiom
    with free right-hand-side variables ({!Axiom.is_executable} false) is
    skipped — it is an equation the static analyzer reports (ADT011), not a
    rule the rewriter may fire. *)

val of_spec_keyed : key:string -> Spec.t -> system
(** {!of_spec} through a process-wide compiled-system cache: [key] must
    identify the specification's executable-axiom list and priority
    order — {!Spec_digest.spec} is (more than) fine — and equal keys
    return the {e same} compiled system.
    Sound to share across threads and domains: a system is immutable
    after construction (the forked-interpreter contract, {!Interp.fork}).
    This is what makes reloading an unchanged specification one table
    probe instead of a from-scratch compilation. *)

type compile_cache_stats = { hits : int; misses : int; entries : int }

val compile_cache_stats : unit -> compile_cache_stats
val compile_cache_clear : unit -> unit

val of_rules : rule list -> system

val add_rules : rule list -> system -> system
(** Added rules take priority over existing ones with the same head. *)

val add_axioms : Axiom.t list -> system -> system
val rules : system -> rule list
val size : system -> int

type strategy = Innermost | Outermost  (** {!Reference}'s strategies. *)

exception Out_of_fuel of Term.t
(** Raised when the step budget is exhausted. The normalization entry
    points ({!normalize}, {!normalize_count} and their {!Reference}
    twins), memoized or not and under either {!Reference} strategy, carry
    the input term; {!trace} carries the whole term it reached. *)

val default_fuel : int

(** {2 The normal-form memo}

    An evaluation session (the symbolic interpreter, the model checker)
    normalizes many terms sharing large subterms — e.g. draining a queue
    evaluates [FRONT(q)] and [REMOVE(q)] over the same [q] again and
    again. A memo passed to {!normalize} caches the normal form of the
    query and of every application node it reduces (tiny interior nodes
    excepted), bounded by a least-recently-used eviction policy ({!Lru})
    so that long-lived sessions — the evaluation engine serving a request
    stream — hold their footprint constant. A memo is only sound for the
    system it was created against: results cached under one rule set must
    not be reused under another. *)

module Memo : sig
  type t

  val default_capacity : int

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default {!default_capacity}) bounds the number of cached
      normal forms; raises [Invalid_argument] when [capacity < 1]. *)

  val clear : t -> unit
  (** Drops every entry and resets all counters, evictions included. *)

  val size : t -> int
  (** Never exceeds {!capacity}. *)

  val capacity : t -> int
  val hits : t -> int
  val misses : t -> int
  val evictions : t -> int
end

(** {2 The deadline hook}

    Every fuel-metered normalization entry point accepts an optional
    [poll] callback, invoked once per rule application (at the same
    site where fuel is charged). A caller enforcing a wall-clock budget
    — the evaluation engine's per-request deadline — passes a closure
    that checks a monotonic deadline and raises to abort; the exception
    propagates out of the normalization untouched. Signal-based
    interruption is unsound once the engine serves requests from
    multiple threads, so interruption is cooperative: the rewriting
    loop reaches a poll point constantly, bounded computations between
    polls stay bounded. Omitting [poll] costs nothing.

    [on_rule] is [poll]'s observability sibling, invoked at the same
    site with the name of the rule being applied — per-rule firing
    attribution for the tracing layer ([Obs.Trace]). Omitting it costs
    one option test per application; it must not raise. *)

val normalize :
  ?memo:Memo.t ->
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?on_rule:(string -> unit) ->
  system ->
  Term.t ->
  Term.t
(** Raises {!Out_of_fuel}. With [memo], normalization goes through the
    cache; an abort raised by [poll] leaves the cache sound: every entry
    added so far is a true normal form. *)

val normalize_opt :
  ?memo:Memo.t ->
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?on_rule:(string -> unit) ->
  system ->
  Term.t ->
  Term.t option
(** [None] when the fuel runs out. *)

val normalize_count :
  ?memo:Memo.t ->
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?on_rule:(string -> unit) ->
  system ->
  Term.t ->
  Term.t * int
(** Also returns the number of rule applications performed (builtin
    error/ite steps are not counted). Through a memo only the rules
    actually fired are counted: a fully cached term reports 0 and fires
    [on_rule] not at all, since attribution counts real work, not cache
    hits. *)

val joinable : ?fuel:int -> system -> Term.t -> Term.t -> bool
(** Both terms normalize (within fuel) to equal normal forms. *)

(** {1 The reference engine}

    The test oracle, for tests and benchmarks only: a linear scan over
    every rule in priority order, with a matcher that binds and compares
    via deep structural equality and never consults term ids,
    precomputed hashes, or the intern table.
    Same strict-error and lazy-ite semantics, same fuel accounting as the
    entry points above; [strategy] (default [Innermost]) also selects
    leftmost-outermost normalization. *)

module Reference : sig
  val normalize :
    ?strategy:strategy ->
    ?fuel:int ->
    ?poll:(unit -> unit) ->
    ?on_rule:(string -> unit) ->
    system ->
    Term.t ->
    Term.t
  (** Raises {!Out_of_fuel}. *)

  val normalize_opt :
    ?strategy:strategy ->
    ?fuel:int ->
    ?poll:(unit -> unit) ->
    ?on_rule:(string -> unit) ->
    system ->
    Term.t ->
    Term.t option

  val normalize_count :
    ?strategy:strategy ->
    ?fuel:int ->
    ?poll:(unit -> unit) ->
    ?on_rule:(string -> unit) ->
    system ->
    Term.t ->
    Term.t * int
end

val is_normal_form : system -> Term.t -> bool
(** No rule, error step, or if-then-else step applies anywhere. *)

(** {1 Single steps and traces} *)

type event = {
  position : Term.position;
  rule_used : string;
      (** Rule name, or ["<error>"] / ["<if>"] for builtin steps. *)
  before : Term.t;  (** Whole term before the step. *)
  after : Term.t;  (** Whole term after the step. *)
}

val step : system -> Term.t -> event option
(** One leftmost-innermost step, or [None] if the term is in normal form. *)

val trace :
  ?fuel:int ->
  ?max_events:int ->
  ?on_rule:(string -> unit) ->
  system ->
  Term.t ->
  Term.t * event list
(** Innermost normalization recording every step (up to [max_events], after
    which steps are still performed but not recorded). Fuel and [on_rule]
    meter rule applications only, exactly as in {!normalize_count}:
    builtin error / if-then-else steps are free, so a term traces within
    the same budget it normalizes in. Raises {!Out_of_fuel}. *)

val pp_event : event Fmt.t
