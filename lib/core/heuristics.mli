(** Axiom-construction heuristics and user prompting.

    Section 3 of the paper describes "heuristics to aid the user in the
    initial presentation of an axiomatic specification" and "a system to
    mechanically verify the sufficient-completeness" that would "prompt the
    user to supply the additional information" needed. This module is that
    system's front half, a view of {!Completeness.holes}:

    - {!prompts} renders each hole as the question the original system
      would have asked, flagging boundary conditions (the cases
      "particularly likely to be overlooked"). A hole that is the
      operation applied to variables alone — nothing discriminates yet —
      is split one level on its first constructor-bearing argument, so an
      unaxiomatised [FRONT] prompts for [FRONT(NEW)] and
      [FRONT(ADD(queue, item))];
    - {!stub_axioms} materialises the missing cases as [... = error] stubs
      so a specification can be made executable and refined interactively. *)

type kind =
  | Boundary  (** Every constructor argument at the split position is a
                  constant constructor, e.g. [REMOVE(NEW)]. *)
  | General  (** e.g. [REMOVE(ADD(q, i))]. *)

type prompt = {
  op : Op.t;
  missing_lhs : Term.t;
  kind : kind;
  question : string;
      (** English text of the question the system asks the user. *)
  suggested_rhs : Term.t option;
      (** A guess when one is forced (single-constructor result sorts);
          usually [None]. *)
}

val prompts : ?holes:Completeness.hole list -> Spec.t -> prompt list
(** Prompts for every hole, boundary cases first. [holes] defaults to
    {!Completeness.holes} of the specification; a caller that already has
    them passes them in. *)

val stub_axioms : ?prefix:string -> Spec.t -> Axiom.t list
(** One [lhs = error] axiom per missing case, named [prefix]-[n]. *)

val complete_with_stubs : Spec.t -> Spec.t
(** The specification extended with {!stub_axioms}. Every stub is
    left-linear, so a specification whose axioms are left-linear comes out
    sufficiently complete. *)

val pp_prompt : prompt Fmt.t
