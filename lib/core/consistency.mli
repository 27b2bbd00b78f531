(** Consistency checking via critical-pair analysis.

    The paper (section 3) requires an axiomatisation to be {e consistent}:
    no two axioms may contradict. For a specification read as a rewrite
    system, contradictions surface as {e critical pairs} — terms to which
    two axioms apply in overlapping ways — whose two results cannot be
    rewritten back together. This module computes all critical pairs,
    decides joinability by normalization, and flags the unmistakable
    inconsistencies: pairs whose normal forms are distinct ground
    constructor terms (in the initial algebra, distinct constructor terms
    denote distinct values — deriving [true = false] is the canonical
    example).

    This module holds the critical pairs and their joinability only.
    Termination, and with it the confluence verdict, is decided once, by
    [Analysis.Verify.analyze]; the ADT002 and ADT022 lint rules, the
    [check] engine verb and [adtc check] all read that one analysis.

    All of the paper's specifications are orthogonal (left-linear and
    overlap-free), so their reports contain no critical pairs at all; the
    seeded-fault tests exercise the detection paths. *)

type cp = {
  rule1 : string;
  rule2 : string;
  position : Term.position;  (** Overlap position inside rule1's LHS. *)
  peak : Term.t;  (** The common instance both rules rewrite. *)
  left : Term.t;  (** Result of rewriting the peak with rule1 at the root. *)
  right : Term.t;  (** Result of rewriting the peak with rule2 at [position]. *)
}

type verdict =
  | Joinable of Term.t
  | Diverges of Term.t * Term.t  (** Distinct normal forms. *)
  | Timeout

type report = (cp * verdict) list
(** Every critical pair with its joinability verdict. *)

val critical_pairs : Rewrite.rule list -> cp list
(** All critical pairs between (renamed-apart) rules, including
    root overlaps of distinct rules and proper overlaps of a rule with
    itself. Trivial pairs (syntactically equal sides) are kept and will be
    reported joinable. *)

val check : ?fuel:int -> Spec.t -> report

val locally_confluent : report -> bool
(** Every pair joinable. *)

val inconsistencies : Spec.t -> report -> (cp * Term.t * Term.t) list
(** Pairs with distinct value normal forms, with those normal forms. A
    value is a ground constructor term or [error]; this is the one value
    predicate, read by both [consistent=] and ADT002's error severity. *)

val is_consistent : Spec.t -> report -> bool
(** [inconsistencies] is empty. A [true] verdict is relative: divergence
    between non-value terms is reported but not counted as proof of
    inconsistency. *)
