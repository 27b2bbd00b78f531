(** The symbolic interpreter.

    Section 5 of the paper: "In the absence of an implementation, the
    operations of the algebra may be interpreted symbolically. Thus, except
    for a significant loss in efficiency, the lack of an implementation can
    be made completely transparent to the user."

    An interpreter session wraps a specification's rewrite system and
    evaluates ground terms to values: constructor normal forms, [error], or
    — when the axioms are not sufficiently complete — a stuck term, which
    the interpreter reports rather than mis-evaluating. Benchmark E1
    measures this module against the direct implementations to quantify the
    "significant loss". *)

type t

val create : ?fuel:int -> ?memo:bool -> ?memo_capacity:int -> Spec.t -> t
(** [memo] (default false) caches the normal form of every application
    node the session ever normalizes — profitable when a workload
    revisits the same values (see the E1 ablation in the benchmarks).
    [memo_capacity] bounds the cache ({!Rewrite.Memo.default_capacity}
    entries by default); least recently used normal forms are evicted. *)

val fork : t -> t
(** A sibling interpreter sharing the compiled rewrite system and spec but
    owning a fresh, empty memo cache of the same capacity (no memo if the
    original had none). Forking is how the engine gives each domain its own
    interpreter: the compiled system is immutable and safely shared, while
    memo state — the only mutable part — stays domain-local. *)

val spec : t -> Spec.t
val system : t -> Rewrite.system

val fuel : t -> int
(** The session's default step budget. *)

type memo_stats = {
  hits : int;
  misses : int;
  entries : int;  (** Live cache entries; never exceeds [capacity]. *)
  evictions : int;
  capacity : int;
}

val memo_stats : t -> memo_stats option
(** Cache counters when created with [~memo:true], [None] otherwise. *)

type value =
  | Value of Term.t  (** A constructor normal form. *)
  | Error_value of Sort.t
  | Stuck of Term.t  (** Normal form containing non-constructor operations:
                         evidence of insufficient completeness. *)
  | Diverged  (** Fuel exhausted. *)

val classify : Spec.t -> Term.t -> value
(** How {!eval} reads a normal form: [error] terms are {!Error_value},
    constructor-ground terms are {!Value}, anything else is {!Stuck}.
    Exposed so callers holding an already-known normal form (the persist
    cache) classify it exactly as a fresh evaluation would. *)

val eval : ?fuel:int -> t -> Term.t -> value
(** Evaluates a ground term (leftmost-innermost). Raises
    [Invalid_argument] on terms with free variables. [fuel] overrides the
    session's step budget for this call only (per-request limits in the
    evaluation engine). *)

val eval_count :
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?on_rule:(string -> unit) ->
  t ->
  Term.t ->
  value * int
(** {!eval}, also returning the number of rule applications performed; a
    [Diverged] result reports the whole budget as spent. Cache hits in a
    memoized session cost no steps — a fully cached term reports 0.
    [poll] is the cooperative deadline hook of {!Rewrite}: called once
    per rule application, and whatever it raises propagates out.
    [on_rule] is the per-rule attribution hook ({!Rewrite}), fired at
    the same site with the applied rule's name. *)

val eval_bool : t -> Term.t -> bool option
(** [Some b] when evaluation yields the Boolean constant [b]. *)

val apply : t -> string -> Term.t list -> Term.t
(** [apply t name args] builds the checked application of the named
    operation — the interpreter's "call" syntax. Raises [Not_found] for
    unknown operations and [Term.Ill_sorted] on argument mismatch. *)

val call : t -> string -> Term.t list -> value
(** [apply] then [eval]. *)

val reduce :
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?on_rule:(string -> unit) ->
  t ->
  Term.t ->
  Term.t
(** Normalization without classification (also accepts open terms). *)

val steps : t -> Term.t -> int
(** Number of rule applications needed to normalize the term. *)

val trace :
  ?max_events:int ->
  ?on_rule:(string -> unit) ->
  t ->
  Term.t ->
  Term.t * Rewrite.event list
(** {!Rewrite.trace} under this interpreter's fuel. *)

val pp_value : value Fmt.t
