(** Bounded least-recently-used caches.

    The rewriting memo ({!Rewrite.Memo}) and the evaluation engine's shared
    normal-form cache must survive long-lived sessions: an unbounded table
    keyed by every application node ever normalized grows without limit
    under sustained traffic. This functor provides the replacement policy:
    a hash table paired with an intrusive recency list, O(1) lookup,
    insertion and eviction, with an eviction counter for the metrics
    endpoints.

    Since terms are hash-consed, term-keyed instantiations use physical
    equality and [Term.id] as the hash — a perfect hash, unique per live
    term — so probes never walk term structure.

    Caches are single-threaded mutable values, like [Hashtbl]. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'a t

  val default_capacity : int
  (** 65536 entries. *)

  val create : ?capacity:int -> unit -> 'a t
  (** Raises [Invalid_argument] when [capacity < 1]. *)

  val capacity : 'a t -> int
  val length : 'a t -> int
  (** Never exceeds {!capacity}. *)

  val find : 'a t -> K.t -> 'a option
  (** A hit refreshes the binding's recency. *)

  val peek : 'a t -> K.t -> 'a option
  (** Like {!find} but leaves recency untouched.
      Exported for test_lru's model only; no library code calls it. *)

  val mem : 'a t -> K.t -> bool
  (** Recency-neutral, like {!peek}. *)

  val add : 'a t -> K.t -> 'a -> unit
  (** Inserts or replaces the binding and makes it the most recently used;
      when the cache is over capacity the least recently used binding is
      evicted. *)

  val evictions : 'a t -> int
  (** Evictions since creation (or the last {!clear}). *)

  val clear : 'a t -> unit
  (** Drops every binding and resets the eviction counter. *)

  val to_list : 'a t -> (K.t * 'a) list
  (** Bindings from most to least recently used.
      Exported for test_lru's model only; no library code calls it. *)
end
