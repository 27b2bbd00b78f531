(** Implementations as models of a specification.

    The paper defines a representation of a type [T] as "(i) an
    interpretation of the operations of the type that is a model for the
    axioms of the specification of [T], and (ii) a function [Phi] that maps
    terms in the model domain onto their representatives in the abstract
    domain". This module packages an OCaml implementation as such a model
    and checks the "inherent invariants": every axiom must hold in the model
    under [Phi], for all (bounded-exhaustively enumerated or random)
    assignments of values to the axiom's variables.

    A model carries one representation type ['r] for the implemented sort;
    values of the other sorts involved (parameters such as [Item], results
    such as [Bool]) travel as terms. Implementations signal the
    distinguished error value by raising {!Impl_error}. *)

exception Impl_error of string

type 'r value =
  | Rep of 'r  (** A value of the implemented type. *)
  | Foreign of Term.t  (** A ground constructor term of another sort. *)

type 'r t = {
  model_name : string;
  interp : string -> 'r value list -> 'r value option;
      (** Interpretation of the named operation; [None] means the
          operation is foreign to the implementation and is evaluated
          symbolically instead. Raise {!Impl_error} for error results. *)
  abstraction : 'r -> Term.t;
      (** [Phi]: the representation-to-abstract-value map. It need not be
          injective (the paper's ring-buffer example); it must be total on
          reachable values. *)
}

val eval : Spec.t -> 'r t -> Term.t -> ('r value, Sort.t) result
(** Evaluates a ground term bottom-up in the model: implemented operations
    go through [interp]; foreign applications are normalized symbolically.
    [Error s] results (from strict error propagation or {!Impl_error})
    come back as [Error s]. *)

(** {2 Precompiled evaluation contexts}

    {!eval} compiles the specification's rewrite system on every call. A
    harness evaluating many terms against one model builds a {!ctx} once;
    {!ctx_eval} additionally accepts an [env] giving values to chosen free
    variables, which is how the conformance harness ([lib/testgen])
    evaluates an observation context [C[#]]: the hole variable [#] is
    bound to an already-computed representation value. *)

type 'r ctx

val ctx : Spec.t -> 'r t -> 'r ctx

val ctx_eval :
  ?env:(string -> 'r value option) ->
  'r ctx ->
  Term.t ->
  ('r value, Sort.t) result
(** Like {!eval} with the precompiled system; a free variable is looked up
    in [env] first and only raises [Invalid_argument] when unbound there. *)

val ctx_denote : 'r ctx -> ('r value, Sort.t) result -> Term.t
(** Like {!to_term} with the precompiled system. *)

val to_term : Spec.t -> 'r t -> ('r value, Sort.t) result -> Term.t
(** The abstract term denoted by an evaluation result: [Phi] of a [Rep],
    the normalized term of a [Foreign], [Term.err] of an error. *)

type counterexample = {
  axiom : Axiom.t;
  valuation : Subst.t;
  lhs_denotes : Term.t;
  rhs_denotes : Term.t;
}

val check_axiom :
  Enum.universe -> 'r t -> size:int -> Axiom.t -> counterexample option
(** Tests one axiom over every substitution of ground constructor terms of
    size at most [size]: both sides are evaluated in the model and their
    denotations (through [Phi], then normalization) compared. *)

val check :
  Enum.universe -> 'r t -> size:int -> (int, counterexample) result
(** All axioms of the universe's specification; [Ok n] reports how many
    (axiom, valuation) instances were verified. This is the
    bounded-exhaustive rendition of the paper's representation-correctness
    proof obligation. *)

val check_random :
  Enum.universe ->
  'r t ->
  count:int ->
  size:int ->
  Random.State.t ->
  (int, counterexample) result

val pp_counterexample : counterexample Fmt.t
