(** Canonical content digests for specifications.

    The paper's contract for an abstract type is its axiom set, not its
    source text or its representation — which is exactly what makes
    results about a specification (normal forms, lint verdicts, proof
    obligations) cacheable by {e content}: a digest computed from the
    elaborated signature and axiom list identifies the semantics, so it
    is stable under whitespace, comments, reformatting, axiom renaming
    of the {e file}, and even renaming the specification itself — and it
    changes whenever any operation declaration, constructor set, or
    axiom equation changes.

    Digests are MD5 over canonical renderings ([Digest] from the
    standard library), printed as 32 lowercase hex characters. The
    canonical term rendering is {!Term.to_string} — the same rendering
    the parser round-trips — so a digest computed in one process equals
    the digest computed in any other process for the same elaborated
    specification.

    This is the keying layer of the on-disk persist store
    ([lib/persist]) and the identity relation of the document-session
    diff ({!Spec_diff}); [adtc hash] prints it. *)

val axiom : Axiom.t -> string
(** Digest of the {e equation} alone — the axiom's name is deliberately
    excluded, so relabelling [\[4\]] to [\[5\]] does not invalidate
    anything. *)

val signature_digest : Spec.t -> string
(** Digest of the elaborated signature: sorts (sorted), operation
    declarations (declaration order), and the constructor set. *)

val spec : Spec.t -> string
(** The specification digest: signature digest plus every axiom digest,
    in axiom order (order matters — rules fire by priority). The
    specification's {e name} is excluded: content, not label. *)

val axioms : Spec.t -> (string * string) list
(** [(axiom name, equation digest)] in axiom order — the per-axiom
    breakdown [adtc hash --json] prints and {!Spec_diff} diffs. *)
