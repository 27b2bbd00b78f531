(** The verification passes: sufficient completeness (ADT020), termination
    (ADT021), and confluence (ADT022).

    These three passes {e decide} the properties the paper's method rests
    on:

    - {b ADT020} — one finding per {!Adt.Completeness.hole}: each
      observer's defining left-hand sides, read as a pattern matrix over
      the observer's argument sorts, must be exhaustive; the witness is a
      concrete ground constructor context such as [FRONT(NEW)]. The same
      hole list feeds ADT001's prompts ({!Adt.Heuristics}), so the two
      rules always name the same operations. Non-left-linear axioms are
      excluded from the matrix (it would over-approximate their
      coverage); a hole is then confirmed by ground enumeration over a
      small universe, or demoted to an undecided warning when no ground
      counterexample surfaces.
    - {b ADT021} — a recursive-path-ordering prover with greedy precedence
      search ({!Adt.Ordering.search}) orients every executable axiom or
      reports the non-orientable set.
    - {b ADT022} — full critical-pair computation (proper subterm overlaps
      included, via {!Adt.Consistency}) with fueled joinability. All pairs
      joinable + ADT021's termination certificate concludes confluence by
      Newman's lemma; a left-linear overlap-free system is confluent by
      orthogonality even without termination; otherwise the verdict demotes
      to "locally confluent only".

    ADT002 (critical-pair divergence, per pair) is routed through the same
    {!analysis} value as ADT022, so the two rules can never disagree about
    which pairs exist or whether they join.

    {!analyze} is the only place that decides termination, confluence and
    consistency: {!summarize} wraps one analysis with the hole list into
    the check summary that both [adtc check] and the engine's [check] verb
    render. *)

(** {1 Termination + confluence (ADT021, ADT022, shared with ADT002)} *)

type status =
  | Confluent_newman  (** Locally confluent and terminating. *)
  | Confluent_orthogonal
      (** Left-linear with no critical pairs; confluent regardless of
          termination. *)
  | Locally_confluent_only
      (** All pairs joinable, but no termination certificate and not
          orthogonal: Newman's lemma does not apply. *)
  | Not_locally_confluent  (** Some critical pair diverges. *)
  | Undecided  (** Some joinability search ran out of fuel. *)

type analysis = {
  a_spec : Adt.Spec.t;
  report : Adt.Consistency.report;
      (** Every critical pair with its joinability verdict — the single
          computation both ADT002 and ADT022 consume. *)
  search : Adt.Ordering.search_result;  (** The ADT021 verdict. *)
  status : status;
}

val analyze : ?fuel:int -> Adt.Spec.t -> analysis

(** {1 Findings} *)

val adt020 : Adt.Spec.t -> Adt.Completeness.hole list -> Diagnostic.t list
(** One finding per hole of {!Adt.Completeness.holes}: error with the
    witness when decided, warning when non-left-linear axioms leave it
    open. *)

val adt021 : analysis -> Diagnostic.t list
(** One error per non-orientable executable axiom. *)

val adt022 : analysis -> Diagnostic.t list
(** The system-level confluence verdict: an error naming the first
    divergent pair when local confluence fails, an info when the verdict
    demotes ("locally confluent only" or fuel ran out), nothing when
    confluence is established. *)

val adt002 : analysis -> Diagnostic.t list
(** The historical per-pair rule, now fed from the same {!analysis}: the
    pairs of {!Adt.Consistency.inconsistencies} (distinct value normal
    forms) are errors, other divergence warnings, joinability timeouts
    infos. *)

(** {1 The check summary} *)

type summary = {
  s_analysis : analysis;  (** Termination, confluence, critical pairs. *)
  s_holes : Adt.Completeness.hole list;  (** The ADT020 hole list. *)
  s_missing : int;
      (** The number of {!Adt.Heuristics.prompts} for [s_holes]: the
          [missing=] count of the [check] and [skeletons] verbs. *)
  s_consistent : bool;
      (** {!Adt.Consistency.is_consistent} of the analysis' report. *)
}

val summarize : ?fuel:int -> Adt.Spec.t -> summary
(** One {!analyze} and one {!Adt.Completeness.holes}: everything
    [adtc check] prints and exits by, and the whole payload of the [check]
    verb. *)

val critical_pairs : summary -> int
(** The number of critical pairs. *)

val verified : summary -> bool
(** Sufficiently complete, terminating, and confluent. *)

val pp_summary : summary Fmt.t
(** The one-line [verify NAME: ...] verdict. *)
