(** An equational prover for representation-correctness proofs.

    Section 4 of the paper proves the stack-of-arrays implementation of
    [Symboltable] correct: each abstract axiom, with its operations replaced
    by their implementations, must follow from the axioms of the lower-level
    types. Musser's verifier did this "completely mechanically" in the
    original; this module is that verifier. Its three proof devices are the
    ones the paper names:

    - {b normalization}: rewrite both sides with the available rules (the
      lower-level axioms, the implementation's definitional equations, the
      abstraction function) and compare;
    - {b case analysis} on the Boolean conditions left irreducible by
      normalization (e.g. [SAME?(id, id1)]);
    - {b generator induction} (the paper cites Wegbreit's term): to prove a
      property of all reachable values, prove it for each generator with
      the property assumed for the generator's sub-values.

    Free variables of a generated sort are implicitly quantified over
    {e reachable} values only, so registered single-variable invariant
    lemmas (such as the non-emptiness invariant that embodies the paper's
    Assumption 1) are instantiated for them. Proving the same goal without
    the invariant fails — the prover makes the paper's notion of
    {e conditional correctness} precise and testable. *)

type config = {
  spec : Spec.t;
      (** Axioms become rules; constructors are the default generators. *)
  extra_rules : Rewrite.rule list;
      (** Definitional equations of the implementation, the abstraction
          function, etc. These take priority over the spec's rules. *)
  generators : (Sort.t * Op.t list) list;
      (** Per-sort override of the generator set used by induction (for a
          representation proof: the images [INIT', ENTERBLOCK', ADD'] of
          the abstract constructors, not the raw [NEWSTACK]/[PUSH]). *)
  invariants : Axiom.t list;
      (** Proven single-variable lemmas, instantiated for every free and
          induction variable of matching sort. *)
  fuel : int;
  max_case_depth : int;
  max_induction_depth : int;
  case_candidates : int;
      (** How many distinct conditions to try splitting on per level. *)
  max_goals : int;
      (** Total subgoals the search may visit before giving up with
          [Unknown] — the guarantee that the prover terminates even on
          unprovable goals whose case analysis would otherwise explode. *)
  on_rule : (string -> unit) option;
      (** The rule hook of {!Rewrite}, threaded into every normalization
          the search performs, so it fires once per rule application of
          the whole proof attempt; whatever it raises (a deadline) aborts
          the attempt and propagates to the caller. *)
}

val default_fuel : int
(** Per-normalization step budget of {!config} when [fuel] is omitted. *)

val config :
  ?extra_rules:Rewrite.rule list ->
  ?generators:(Sort.t * Op.t list) list ->
  ?invariants:Axiom.t list ->
  ?fuel:int ->
  ?max_case_depth:int ->
  ?max_induction_depth:int ->
  ?case_candidates:int ->
  ?max_goals:int ->
  ?on_rule:(string -> unit) ->
  Spec.t ->
  config

type proof =
  | By_normalization of { lhs_nf : Term.t; rhs_nf : Term.t }
      (** Both sides reached the same normal form ([lhs_nf = rhs_nf];
          both are recorded for the report). *)
  | By_cases of { condition : Term.t; if_true : proof; if_false : proof }
  | By_induction of {
      on : string * Sort.t;
      cases : (Op.t * proof) list;  (** One sub-proof per generator. *)
    }

type outcome =
  | Proved of proof
  | Unknown of { lhs_nf : Term.t; rhs_nf : Term.t }
      (** The normal forms of the most advanced stuck subgoal. *)

val prove : config -> Term.t * Term.t -> outcome

val prove_axiom : config -> Axiom.t -> outcome

val prove_lemma : config -> Axiom.t -> (config, outcome) result
(** On success returns the configuration extended with the lemma as an
    invariant (when it has exactly one variable) and as a rewrite rule. *)

val holds : config -> Term.t * Term.t -> bool

val disprove :
  config ->
  universe:Enum.universe ->
  size:int ->
  Term.t * Term.t ->
  (Subst.t * Term.t * Term.t) option
(** Searches bounded-exhaustively for a ground instantiation on which the
    two sides normalize to distinct values — a counterexample, used to tell
    "prover too weak" apart from "goal false". *)

val proof_size : proof -> int
(** Number of nodes in the proof tree. *)

val proof_depth : proof -> int

val pp_proof : proof Fmt.t
val pp_outcome : outcome Fmt.t
