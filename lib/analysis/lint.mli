(** The lint driver: one entry point that runs every published rule over a
    specification and returns the findings as {!Diagnostic.t} values.

    Two rules adapt existing semantic analyses — ADT001 wraps
    {!Adt.Heuristics.prompts} (sufficient completeness) and ADT002 wraps
    the critical-pair analysis — the ADT01x rules are purely syntactic
    passes over the axiom list, and the ADT02x rules are the {!Verify}
    decision passes (pattern-matrix completeness, RPO termination,
    critical-pair confluence). ADT001 and ADT020 share one
    {!Adt.Completeness.holes} list per run, and ADT002, ADT021 and ADT022
    one {!Verify.analyze} computation, so their verdicts can never
    disagree. [static] runs only the syntactic passes; [adtc check] prints
    them after its {!Verify.summarize} line and the ADT020-ADT022 findings
    of that same summary. *)

type config = {
  only : string list option;
      (** Restrict to these rule codes; [None] runs every rule. Unknown
          codes raise [Invalid_argument] in {!run}. *)
  fuel : int option;
      (** Fuel for the ADT002/ADT022 joinability search of
          {!Verify.analyze} ([None] = the rewrite engine's default). *)
}

val default_config : config

val run : ?config:config -> Adt.Spec.t -> Diagnostic.t list
(** All findings, grouped by rule code in the order of
    {!Diagnostic.rules}. *)

val static_codes : string list
(** The purely syntactic rules: ADT010, ADT011, ADT012, ADT013, ADT014. *)

val static : Adt.Spec.t -> Diagnostic.t list
(** [run] restricted to {!static_codes}. *)

val pass_version : int
(** Version of the analysis pass set, baked into the engine's persisted
    lint record kind: a cached lint verdict produced under a different
    pass version is invalidated (a counted store miss) rather than served
    stale. Bumped whenever the rule set or a rule's semantics changes. *)

val counts_by_rule : Diagnostic.t list -> (string * int) list
(** Findings per rule code, every published code present (zero included),
    in {!Diagnostic.rules} order. *)

val max_severity : Diagnostic.t list -> Diagnostic.severity option
(** The most severe finding, [None] on a clean report. *)
