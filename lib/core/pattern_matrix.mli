(** Maranget-style pattern matrices: exhaustiveness over constructor
    patterns, with every uncovered vector listed.

    A {e pattern} here is a term whose applications are constructor
    applications and whose variables are wildcards; a {e row} is one
    pattern per column. The matrix [P] is {e exhaustive} when every vector
    of ground constructor terms over the column sorts matches some row.
    The recursion on the first column specializes the matrix by each
    constructor the column's sort declares, or drops to the default matrix
    where the column's head constructors are absent (Maranget, {e Warnings
    for pattern matching}, JFP 2007); here it lists every vector no row
    matches rather than stopping at the first.

    The sufficient-completeness decider ({!Completeness}) reads each
    observer's defining left-hand sides as a matrix over the observer's
    argument sorts; its hole list is this module's uncovered vectors.

    Caveats, enforced by construction rather than checks:

    - Rows must be {e left-linear}: a repeated variable is treated as a
      plain wildcard, which over-approximates what the row matches.
      Callers that admit non-linear rows must compensate ({!Completeness}
      excludes them and re-checks its holes by ground enumeration).
    - Patterns whose head is not a constructor of the matrix's
      specification — an observer application, [error], [if-then-else] —
      never match a ground constructor vector and simply never specialize:
      such rows contribute nothing to coverage.
    - A sort with no declared constructors (a parameter sort such as
      [Item]) behaves as an infinite signature: no head set spans it, so
      only wildcard rows cover it. *)

type t
(** A matrix: column sorts plus rows, against a fixed specification. *)

val create : Spec.t -> sorts:Sort.t list -> rows:Term.t list list -> t
(** Raises [Invalid_argument] when a row's width differs from the number
    of column sorts. *)

val holes : t -> Term.t list list
(** Every vector no row matches, in constructor declaration order, as
    patterns: a column whose rows carry some constructor heads splits on
    each constructor of its sort (an absent one with wildcard arguments);
    a column with no constructor heads stays a wildcard. Every wildcard of
    a sort carries the same name (the lowercased sort name), so a vector
    is not left-linear in general. *)

val exhaustive : t -> bool
(** [holes] is empty. *)

val uncovered : t -> Term.t list option
(** [None] when the matrix is exhaustive; otherwise the first of {!holes},
    instantiated. Constrained positions carry the missing constructor;
    unconstrained positions are instantiated through
    {!instantiate_wildcards} (first constructor of the sort, recursively,
    or a fresh variable for parameter sorts), so the witness is a concrete
    constructor context like [FRONT(NEW)] rather than [FRONT(_)]. *)

val instantiate_wildcards : Spec.t -> Term.t -> Term.t
(** Replaces each variable of a sort with declared constructors by that
    sort's first constructor, recursively (depth-bounded; positions the
    bound leaves unfilled stay variables). Variables of parameter sorts
    are kept. *)
