(** Versioned specification documents with O(edit) rechecking.

    The PIDE-style session layer the roadmap asks for: the server holds
    one {e document} per opened specification; each edit replaces the
    document's source, and instead of rechecking the world, the manager
    diffs the freshly elaborated specification against the previous
    version ({!Adt.Spec_diff}), computes the invalidation cone through
    the defining-axiom dependency structure, and re-runs only the
    obligations inside the cone — everything outside it carries its
    verdict over, because its reachable rule set is byte-identical.

    An {e obligation} is per-axiom: normalize both sides of the
    equation under the document's compiled rewrite system (bounded by
    the manager's fuel) and record whether they join — the axiom's
    normal-form consistency, whose outcome depends exactly on the rules
    reachable from the operations the axiom mentions, which is what
    makes cone-scoped reuse sound rather than heuristic. The cheap
    whole-spec static lint ({!Analysis.Lint.static}) is re-run on every
    version — some static rules are global (dead axioms, reachability),
    so their findings are never carried over — and its findings are
    attributed to obligations by locus.

    Thread-safe: one lock around the document table; obligations run
    outside any per-document interpreter state (the compiled system is
    immutable and shared via {!Adt.Rewrite.of_spec_keyed}). *)

type status = [ `Ok | `Diverged | `Unjoinable ]

val status_name : status -> string

type oblig = {
  axiom_name : string;  (** May be [""] for unnamed axioms. *)
  axiom_digest : string;  (** {!Adt.Spec_digest.axiom}. *)
  status : status;
  steps : int;  (** Rewrite steps both sides cost when checked. *)
  findings : int;  (** Static lint findings at this axiom's locus. *)
  reused : bool;  (** Carried over from the previous version. *)
}

type summary = {
  version : int;
  axioms : int;
  sig_changed : bool;
  changed : int;  (** Added plus removed equations in the last edit. *)
  cone : int;  (** Axioms inside the last edit's invalidation cone. *)
  checked : int;  (** Obligations actually re-run for this version. *)
  reused : int;  (** Obligations served from the previous version. *)
}

type doc = {
  name : string;  (** The session key, not necessarily the spec name. *)
  version : int;
  source : string;
  spec : Adt.Spec.t;
  digest : string;  (** {!Adt.Spec_digest.spec} of [spec]. *)
  obligations : oblig list;  (** In axiom order. *)
  summary : summary;
}

type t

val create : ?env:(string -> Adt.Spec.t option) -> ?fuel:int -> unit -> t
(** [env] resolves [uses] clauses in edited sources (a session library,
    {!Adt.Library.to_env}); [fuel] bounds each obligation's rewriting
    (default {!Adt.Rewrite.default_fuel}). *)

val open_doc : t -> name:string -> source:string -> (doc, string) result
(** Parses [source] (the last specification of the input, [uses]
    merged) and checks {e every} obligation — version 1, the full
    recheck an edit is measured against. Reopening a name resets it. *)

type edit_error =
  | Not_open  (** No document of that name was opened. *)
  | Unparsable  (** The new source does not parse. *)

val edit :
  t -> name:string -> source:string -> (doc, edit_error * string) result
(** Replaces the document's source: diff, cone, recheck inside the
    cone, reuse outside it, version+1. Errors, with a message, when the
    document was never opened or the source does not parse. An edit
    that elaborates to an unchanged specification rechecks nothing. *)

val status : t -> name:string -> doc option
val names : t -> string list
(** Open documents, sorted. *)
