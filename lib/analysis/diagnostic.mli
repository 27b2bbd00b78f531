(** Lint diagnostics with stable rule codes.

    Guttag's section 3 calls for a {e mechanical} procedure that examines an
    axiomatisation and tells the user what is wrong with it. The repo's two
    deep checkers ({!Adt.Completeness}, {!Adt.Consistency}), the decision
    passes of {!Verify} and the five cheap well-formedness passes of this
    library all report through this one currency: a diagnostic with a
    stable [ADTxxx] code, a severity, a locus (specification, and
    optionally the operation or axiom concerned), a human message, and —
    when the analyzer can compute one — a concrete fix suggestion (the
    stub {!Adt.Heuristics.stub_axioms} builds from a completeness hole, for
    ADT001).

    Codes are append-only: a code, once published, never changes meaning. *)

type severity = Error | Warning | Info

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val severity_of_string : string -> severity option

val severity_at_least : severity -> threshold:severity -> bool
(** [severity_at_least s ~threshold] — [Error] outranks [Warning] outranks
    [Info]. *)

type locus = {
  spec : string;  (** Specification name; always present. *)
  op : string option;  (** Operation concerned, when one is. *)
  axiom : string option;  (** Axiom label, when one is. *)
}

type t = {
  code : string;  (** Stable rule code, e.g. ["ADT001"]. *)
  severity : severity;
  locus : locus;
  message : string;
  suggestion : string option;  (** A concrete fix, e.g. a stub axiom. *)
}

val v :
  code:string ->
  severity:severity ->
  spec:string ->
  ?op:string ->
  ?axiom:string ->
  ?suggestion:string ->
  string ->
  t
(** Raises [Invalid_argument] on a code not in {!rules}. *)

(** {1 The rule table} *)

type rule_info = {
  rule_code : string;
  slug : string;  (** Short kebab-case name, e.g. ["missing-case"]. *)
  default_severity : severity;
  summary : string;  (** One-line description for SARIF rule metadata. *)
}

val rules : rule_info list
(** Every published rule, in code order:

    - [ADT001 missing-case] (error) — sufficient-completeness hole
    - [ADT002 critical-pair-divergence] (error) — unjoinable critical pair
    - [ADT010 non-left-linear] (warning) — repeated left-hand-side variable
    - [ADT011 free-rhs-variable] (error) — non-executable axiom
    - [ADT012 dead-axiom] (warning) — axiom shadowed by an earlier one
    - [ADT013 unreachable-sort] (error) — constructed sort with no ground term
    - [ADT014 non-strict-error] (warning) — axiom pattern-matches on [error]
    - [ADT020 sufficient-completeness] (error) — uncovered constructor
      context, one per {!Adt.Completeness.holes} entry
    - [ADT021 termination] (error) — axiom no searched recursive path
      ordering orients
    - [ADT022 confluence] (error) — confluence refuted or not established
      by critical pairs + Newman *)

val codes : string list
(** The codes of {!rules}, in order. *)

val info : string -> rule_info
(** Raises [Not_found] on an unpublished code. *)

val slug_of_code : string -> string

val pp : t Fmt.t
(** One line:
    [CODE slug severity SPEC(, op OP)(, axiom \[N\]): message (suggest: ...)]. *)

val to_line : t -> string
