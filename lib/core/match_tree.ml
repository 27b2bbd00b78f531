(* Rule-set compilation to a first-match decision tree (Maranget's
   pattern-matrix scheme adapted to first-match-wins rewriting).

   The compiler works on a matrix of rows. Each row carries the
   obligations still separating it from a match:

   - [entries]: (register, constructor pattern) pairs — the subterm in
     that register must open with the pattern's head, recursively;
   - [binds]: pattern variables already resolved to the register holding
     their subject subterm (first occurrence);
   - [checks]: register pairs that must hold equal terms — the deferred
     tests of repeated (non-left-linear) pattern variables.

   Registers name subject subterms. Register 0 is the subject itself;
   a switch that matches constructor [c] loads [c]'s arguments into
   consecutive registers allocated at compile time. A register is
   allocated on the unique tree path that introduces the rows referring
   to it, so every reference reads a loaded slot.

   One compilation step inspects the first obligation of the
   highest-priority row and emits a switch on its register. Rows
   constraining that register are specialized into the branch for their
   head key (their entry replaced by entries for the head's arguments);
   rows without an entry there — generic rows, their pattern has a
   variable at that position — are carried into every branch AND the
   default, each time in their original relative order. A branch thus
   holds a superset of the rows that can still match below it, so a
   failed branch never backtracks into the default branch. A row with no
   obligations left is a match: an unconditional leaf when it has no
   equality checks (lower rows are unreachable and are not compiled), a
   guarded leaf falling through to the remaining rows otherwise. *)

type key = Kop of Op.t | Kerr | Kite

type builder =
  | Ready of Term.t (* ground rhs subterm, interned at compile time *)
  | Fetch of int (* rhs variable: the register bound to it *)
  | Fetch_frozen of int
      (* bound through an if-then-else branch pattern: the register may
         hold a frozen (not yet normalized) branch of a stuck conditional,
         so a fused engine must renormalize it *)
  | Build_app of Op.t * builder list
  | Build_ite of builder * builder * builder

type 'a tree =
  | Fail
  | Leaf of 'a leaf
  | Switch of { reg : int; cases : 'a case list; default : 'a tree }

and 'a leaf = {
  checks : (int * int) list;
  binds : (string * int) list;
  builder : builder;
  payload : 'a;
  otherwise : 'a tree; (* tried when a deferred equality check fails *)
}

and 'a case = { key : key; base : int; arity : int; sub : 'a tree }

type 'a t = { tree : 'a tree; nregs : int }

type 'a row = {
  entries : (int * Term.t) list;
  binds : (string * int) list;
  checks : (int * int) list;
  payload : 'a;
  rhs : Term.t;
}

let key_of p =
  match Term.view p with
  | Term.App (g, _) -> Kop g
  | Term.Err _ -> Kerr
  | Term.Ite _ -> Kite
  | Term.Var _ -> assert false

let key_equal a b =
  match (a, b) with
  | Kop f, Kop g -> Op.equal f g
  | Kerr, Kerr | Kite, Kite -> true
  | _ -> false

let key_arity = function Kop g -> Op.arity g | Kerr -> 0 | Kite -> 3

let sub_pats p =
  match Term.view p with
  | Term.App (_, args) -> args
  | Term.Err _ -> []
  | Term.Ite (c, t, e) -> [ c; t; e ]
  | Term.Var _ -> assert false

(* extend a row with fresh (register, pattern) obligations, resolving
   variable patterns immediately: first occurrence binds, repetitions
   become deferred equality checks *)
let extend row pairs =
  List.fold_left
    (fun row (reg, p) ->
      match Term.view p with
      | Term.Var (x, _) -> (
        match List.assoc_opt x row.binds with
        | Some r0 -> { row with checks = row.checks @ [ (r0, reg) ] }
        | None -> { row with binds = row.binds @ [ (x, reg) ] })
      | _ -> { row with entries = row.entries @ [ (reg, p) ] })
    row pairs

module Int_set = Set.Make (Int)

(* the rhs instantiation template: exactly what [Subst.apply s rhs]
   interns, with the substitution replaced by register fetches. An
   unbound rhs variable is kept in place — the same convention as
   [Subst.apply], so even a rule smuggled past the executability filter
   rewrites identically under the reference engine. [frozen] is the set
   of registers reached through an if-then-else {e branch} position: those
   may hold unnormalized subterms (an innermost-normalized subject
   freezes the branches of stuck conditionals), every other register
   holds a subterm that is already in normal form when the subject's
   arguments are. *)
let rec builder_of frozen binds t =
  if Term.is_ground t then Ready t
  else
    match Term.view t with
    | Term.Var (x, _) -> (
      match List.assoc_opt x binds with
      | Some r -> if Int_set.mem r frozen then Fetch_frozen r else Fetch r
      | None -> Ready t)
    | Term.App (op, args) ->
      Build_app (op, List.map (builder_of frozen binds) args)
    | Term.Ite (c, a, b) ->
      Build_ite
        ( builder_of frozen binds c,
          builder_of frozen binds a,
          builder_of frozen binds b )
    | Term.Err _ -> Ready t

let compile rows =
  List.iter
    (fun (_, lhs, _) ->
      match Term.view lhs with
      | Term.Var _ ->
        invalid_arg "Match_tree.compile: left-hand side is a bare variable"
      | _ -> ())
    rows;
  let max_regs = ref 1 in
  let note n = if n > !max_regs then max_regs := n in
  let rec go next frozen rows =
    note next;
    match rows with
    | [] -> Fail
    | row0 :: rest -> (
      match row0.entries with
      | [] ->
        let leaf otherwise =
          Leaf
            {
              checks = row0.checks;
              binds = row0.binds;
              builder = builder_of frozen row0.binds row0.rhs;
              payload = row0.payload;
              otherwise;
            }
        in
        (* no checks: an unconditional match — lower rows are dead here *)
        if row0.checks = [] then leaf Fail else leaf (go next frozen rest)
      | (r, _) :: _ ->
        let keys =
          List.fold_left
            (fun acc row ->
              match List.assoc_opt r row.entries with
              | Some p ->
                let k = key_of p in
                if List.exists (key_equal k) acc then acc else acc @ [ k ]
              | None -> acc)
            [] rows
        in
        let cases =
          List.map
            (fun k ->
              let arity = key_arity k in
              let base = next in
              (* a child register is frozen when its parent is, or when it
                 holds a branch (not the condition) of a matched
                 if-then-else *)
              let child_frozen =
                List.fold_left
                  (fun acc i ->
                    if
                      Int_set.mem r frozen
                      || (match k with Kite -> i > 0 | Kop _ | Kerr -> false)
                    then Int_set.add (base + i) acc
                    else acc)
                  frozen
                  (List.init arity Fun.id)
              in
              let specialized =
                List.filter_map
                  (fun row ->
                    match List.assoc_opt r row.entries with
                    | None -> Some row (* generic: survives every branch *)
                    | Some p ->
                      if key_equal (key_of p) k then
                        Some
                          (extend
                             {
                               row with
                               entries =
                                 List.filter
                                   (fun (r', _) -> r' <> r)
                                   row.entries;
                             }
                             (List.mapi
                                (fun i p' -> (base + i, p'))
                                (sub_pats p)))
                      else None)
                  rows
              in
              {
                key = k;
                base;
                arity;
                sub = go (next + arity) child_frozen specialized;
              })
            keys
        in
        let generic =
          List.filter (fun row -> not (List.mem_assoc r row.entries)) rows
        in
        Switch { reg = r; cases; default = go next frozen generic })
  in
  let initial =
    List.map
      (fun (payload, lhs, rhs) ->
        extend
          { entries = []; binds = []; checks = []; payload; rhs }
          [ (0, lhs) ])
      rows
  in
  let tree = go 1 Int_set.empty initial in
  { tree; nregs = !max_regs }

let rec instantiate regs = function
  | Ready t -> t
  | Fetch r | Fetch_frozen r -> regs.(r)
  | Build_app (op, bs) ->
    Term.app_unchecked op (List.map (instantiate regs) bs)
  | Build_ite (c, a, b) ->
    Term.ite_unchecked (instantiate regs c) (instantiate regs a)
      (instantiate regs b)

let rec load regs base i = function
  | [] -> ()
  | a :: rest ->
    regs.(base + i) <- a;
    load regs base (i + 1) rest

let load_args regs base = function
  | [] -> ()
  | [ a ] -> regs.(base) <- a
  | [ a; b ] ->
    regs.(base) <- a;
    regs.(base + 1) <- b
  | [ a; b; c ] ->
    regs.(base) <- a;
    regs.(base + 1) <- b;
    regs.(base + 2) <- c
  | args -> load regs base 0 args

let rec exec_tree regs = function
  | Fail -> None
  | Leaf l ->
    if List.for_all (fun (a, b) -> Term.equal regs.(a) regs.(b)) l.checks
    then Some l
    else exec_tree regs l.otherwise
  | Switch { reg; cases; default } -> (
    match Term.view regs.(reg) with
    | Term.Var _ -> exec_tree regs default
    | v ->
      let rec find = function
        | [] -> exec_tree regs default
        | c :: cs -> (
          match (c.key, v) with
          | Kop h, Term.App (g, gargs) when h == g || Op.equal h g ->
            load_args regs c.base gargs;
            exec_tree regs c.sub
          | Kerr, Term.Err _ -> exec_tree regs c.sub
          | Kite, Term.Ite (x, y, z) ->
            regs.(c.base) <- x;
            regs.(c.base + 1) <- y;
            regs.(c.base + 2) <- z;
            exec_tree regs c.sub
          | _ -> find cs)
      in
      find cases)

let exec t subject =
  let regs = Array.make t.nregs subject in
  match exec_tree regs t.tree with None -> None | Some l -> Some (l, regs)

(* match the application [op args] without interning it. The root of a
   compiled tree always switches on register 0 (left-hand sides are
   applications, never bare variables, so every row's first obligation
   sits there), and register 0 is never read back below the root —
   patterns bind and check only proper subterms. The register file can
   therefore be seeded with a placeholder and the root switch driven by
   the uninterned pair directly. *)
let exec_app t op args =
  match t.tree with
  | Switch { reg = 0; cases; default = _ } ->
    let regs =
      Array.make t.nregs (match args with a :: _ -> a | [] -> Term.tt)
    in
    let rec find = function
      | [] -> None
      | c :: cs -> (
        match c.key with
        | Kop h when h == op || Op.equal h op ->
          load_args regs c.base args;
          (match exec_tree regs c.sub with
          | None -> None
          | Some l -> Some (l, regs))
        | _ -> find cs)
    in
    find cases
  | _ -> None

let run t subject =
  match exec t subject with
  | None -> None
  | Some (l, regs) -> Some (l.payload, instantiate regs l.builder)

let run_with t subject =
  match exec t subject with
  | None -> None
  | Some (l, regs) ->
    Some
      ( l.payload,
        List.map (fun (x, r) -> (x, regs.(r))) l.binds,
        instantiate regs l.builder )

let run_template t subject =
  match exec t subject with
  | None -> None
  | Some (l, regs) -> Some (l.payload, regs, l.builder)

let run_template_app t op args =
  match exec_app t op args with
  | None -> None
  | Some (l, regs) -> Some (l.payload, regs, l.builder)

type stats = {
  switches : int;
  leaves : int;
  guarded : int;
  max_registers : int;
}

let stats t =
  let rec walk acc = function
    | Fail -> acc
    | Leaf l ->
      let acc =
        {
          acc with
          leaves = acc.leaves + 1;
          guarded = (acc.guarded + if l.checks = [] then 0 else 1);
        }
      in
      walk acc l.otherwise
    | Switch { cases; default; _ } ->
      let acc = { acc with switches = acc.switches + 1 } in
      walk (List.fold_left (fun acc c -> walk acc c.sub) acc cases) default
  in
  walk
    { switches = 0; leaves = 0; guarded = 0; max_registers = t.nregs }
    t.tree
