(** Rule sets compiled to matching automata.

    A priority-ordered list of rewrite rules — each a left-hand-side
    pattern with a right-hand-side template — is compiled once into a
    Maranget-style decision tree over {!Term.view}. Matching a subject
    term then walks the tree: every interior node inspects one subterm
    (held in a register) exactly once and switches on its head
    constructor, so common pattern prefixes across rules are tested a
    single time, instead of once per candidate rule as a linear scan
    does.

    {b Priority.} First-match-wins order is preserved exactly. A rule
    whose pattern has a variable at the inspected position constrains
    nothing there, so its row is carried into {e every} branch of the
    switch in its original position relative to the specialized rows;
    the default branch (taken when the subject's head matches no case)
    keeps only those generic rows. A branch therefore always contains
    every rule that could still match, in declaration order, and failure
    inside a branch never needs to backtrack into the default.

    {b Non-left-linear patterns.} A repeated pattern variable cannot be
    decided by head switching. The first occurrence binds the variable
    to a register; later occurrences compile to deferred equality checks
    attached to the rule's leaf, verified (by {!Term.equal} — pointer
    equality, thanks to hash-consing) only when every structural test
    has already passed. A leaf whose checks fail falls through to the
    compilation of the remaining lower-priority rows.

    {b Right-hand sides.} Each leaf carries a precomputed instantiation
    template: ground subterms of the right-hand side are interned once
    at compile time and returned as-is, variables compile to a register
    fetch, and everything else to a direct construction — firing a rule
    never re-traverses the pattern and never builds a substitution map.

    {b Sorts.} The automaton performs no sort checks at run time. For
    well-sorted patterns and subjects they are redundant: once the head
    operations along a path agree, the sorts at every position below are
    forced equal by the operations' declared ranks. The differential
    harness ([test/test_diff.ml]) validates this against the
    sort-checking reference engine on every corpus specification. *)

type 'a t
(** A compiled automaton; ['a] is the per-rule payload returned on a
    match. Immutable after construction and safe to share across
    domains. *)

type builder =
  | Ready of Term.t
      (** A ground right-hand-side subterm, interned once at compile
          time. It may still contain redexes — a constant axiom like
          [FRONT(NEW) = error] with a reducible right-hand side stays
          reducible. *)
  | Fetch of int
      (** A right-hand-side variable: fetch the register bound to it.
          Under innermost rewriting the fetched subterm is already in
          normal form. *)
  | Fetch_frozen of int
      (** Like {!Fetch}, but the variable was bound through the
          {e branch} of an if-then-else pattern. Innermost normalization
          freezes the branches of stuck conditionals, so the fetched
          subterm may contain redexes and a fused engine must
          renormalize it. *)
  | Build_app of Op.t * builder list
  | Build_ite of builder * builder * builder
      (** Construct a fresh application / conditional node from
          instantiated children. *)

(** The right-hand-side instantiation template attached to each rule
    leaf. Exposed so the rewriting engine can fuse normalization with
    instantiation: the [Fetch]/[Fetch_frozen] split tells it which
    fetched subterms are guaranteed normal. *)

val compile : ('a * Term.t * Term.t) list -> 'a t
(** [compile rows] compiles [(payload, lhs, rhs)] rows, earlier rows
    taking priority. Left-hand sides must be applications (raises
    [Invalid_argument] otherwise), so the root switch has no generic row
    and its default fails; rules for {e different} head operations may
    share one automaton — the root switch discriminates them, comparing
    operations with {!Op.equal}, so two operations that share a name but
    not a rank never cross-match. *)

val run_template_app :
  'a t -> Op.t -> Term.t list -> ('a * Term.t array * builder) option
(** [run_template_app t op args] is [Some (payload, regs, builder)] for
    the first row (in priority order) whose left-hand side matches the
    application [op(args)], where [regs] is the filled register file and
    [builder] the row's template, so the caller can interleave
    instantiation with further rewriting; [None] when no row matches.
    The application is never constructed (interned): a fused engine
    matches candidate redexes it has just assembled, and when a rule
    fires the assembled node is discarded immediately. Patterns bind and
    check only proper subterms, so the match never needs the node
    itself. This is the one entry into the automaton; {!run} and
    {!run_with} are built on it. *)

val instantiate : Term.t array -> builder -> Term.t
(** Instantiate a template against a register file from
    {!run_template_app}: exactly the term [Subst.apply s rhs] would
    intern under the matching substitution [s]. *)

val run : 'a t -> Term.t -> ('a * Term.t) option
(** [run t subject] is [Some (payload, reduct)] for the first row whose
    left-hand side matches [subject], with [reduct] the row's
    instantiated right-hand side; [None] when no row matches (always for
    a subject that is not an application). For the tests. *)

val run_with :
  'a t -> Term.t -> ('a * (string * Term.t) list * Term.t) option
(** {!run}, also returning the matching substitution as an association
    list over the pattern's variables (one entry per variable, in the
    order the automaton resolves them). For the differential tests. *)

type stats = {
  switches : int;  (** Interior (switch) nodes in the tree. *)
  leaves : int;  (** Match leaves, guarded ones included. *)
  guarded : int;
      (** Leaves carrying deferred non-left-linear equality checks. *)
  max_registers : int;
      (** Size of the register file a match allocates. *)
}

val stats : 'a t -> stats
(** Shape of the compiled tree — the prefix-sharing unit tests assert
    that merging rules with common prefixes produces fewer switch nodes
    than compiling them apart. *)
