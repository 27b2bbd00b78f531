(** Crash-safe on-disk result store, keyed by content digest.

    One store is a directory; one entry file per specification digest
    ({!Adt.Spec_digest.spec}), holding a flat list of [(kind, key,
    value)] string records — the store is deliberately dumb: the engine
    decides that a record is a normal form keyed by a term's hash and
    canonical rendering, a lint payload, or a testgen verdict. Being
    keyed by content means an entry outlives the process (warm restarts)
    and is never served for an edited specification (a different digest
    is a different file).

    {b Crash safety.} An entry file is an append-only log: a header
    (magic, format version, the digest it claims to serve) followed by
    one frame per {!append}, each [body length | MD5(body) | body]. An
    append writes only its own frame, with [O_APPEND]; the file is
    created, and compacted, by writing a temporary sibling and
    [rename]-ing it into place. A bad header (a file cut inside it, a
    foreign file, a format bump, another digest) is {e counted and
    treated as a miss — never a crash and never a wrong answer} (the
    differential suite in [test/test_persist.ml] holds the engine to
    that). A torn or corrupt frame — a crash mid-append, a flipped bit —
    ends the replay: it is counted once and the frames before it still
    serve; a {!Read_write} handle cuts the file back to that valid prefix
    so its later appends stay readable. A {!Read_only} reader racing the
    writer's append may see the new frame half-written and count it;
    it still serves the prefix.

    {b Single writer.} The first open of a directory (per machine, via
    [lockf]; per process, via an in-process registry — POSIX record
    locks do not exclude the owning process) gets read-write mode;
    every later open falls back to {!Read_only}, where {!append} is a
    no-op and reads still serve. So a second server pointed at a live
    cache directory degrades instead of corrupting.

    {b Bounded size.} [max_bytes] garbage-collects oldest-first (entry
    mtime) after every append; [gc]/[stats]/[clear] back the
    [adtc cache] commands. *)

type t

type mode = Read_write | Read_only

type record = { kind : string; key : string; value : string }

val magic : string

val format_version : int
(** The version in every entry header; an entry of any other version is
    a counted miss that the next {!append} replaces. The engine keys
    normal-form records by [<Adt.Term.hash> <rendering>], so a change to
    [Term.hash] must bump this number. *)

val open_ : ?max_bytes:int -> string -> t
(** Opens (creating if needed) the store directory. Raises [Failure]
    when the directory cannot be created; lock contention is not an
    error — it yields a {!Read_only} store. *)

val close : t -> unit
(** Releases the writer lock (idempotent). *)

val mode : t -> mode
val dir : t -> string
val max_bytes : t -> int option

val entry_path : t -> digest:string -> string
(** Where the entry for [digest] lives — exposed for the corruption
    tests. *)

val load : t -> digest:string -> record list
(** The live records of the entry: the last one written per [(kind,
    key)], in the order of those writes. [[]] when the entry is absent or
    its header fails validation; a torn or corrupt frame ends the replay
    early. Either failure bumps {!corrupt_count}. In {!Read_write} mode
    the load also cuts a torn tail off the file and, when dead
    (overwritten) records outnumber live ones, rewrites the entry
    atomically as one frame of the live records. *)

val append : t -> digest:string -> record list -> unit
(** Appends the records as one frame; a record replaces, at the next
    {!load}, any earlier one with the same [(kind, key)]. Existing records
    are neither read nor rewritten, except the first time this handle
    touches the entry (or after it changed behind the handle), when it
    is validated through {!load} first. A no-op in {!Read_only} mode.
    Runs the size-bound GC when [max_bytes] was given. *)

val corrupt_count : t -> int
(** Validation failures observed by this handle (monotone). *)

type stats = { files : int; bytes : int }

val stats : t -> stats
(** Entry files only (lock and temporary files excluded). *)

val gc : ?max_bytes:int -> t -> int
(** Deletes oldest entries until the store fits [max_bytes] (default:
    the bound given at {!open_}; no bound means no deletion). Returns
    the number of entries removed. *)

val clear : t -> int
(** Deletes every entry. Returns the number removed. *)
