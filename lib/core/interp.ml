type t = {
  spec : Spec.t;
  system : Rewrite.system;
  fuel : int;
  memo : Rewrite.Memo.t option;
}

let create ?(fuel = Rewrite.default_fuel) ?(memo = false) ?memo_capacity spec =
  {
    spec;
    (* compiled afresh: compiling costs less than digesting the spec to
       key a shared copy, and interpreters that must share one system
       get it through [fork] *)
    system = Rewrite.of_spec spec;
    fuel;
    memo =
      (if memo then Some (Rewrite.Memo.create ?capacity:memo_capacity ())
       else None);
  }

(* Shares the compiled rewrite system (immutable after of_spec) but owns a
   fresh memo of the same capacity: each domain forks its own interpreter so
   memo lookups never cross a domain boundary. This is the only way two
   interpreters share a compiled system. *)
let fork t =
  {
    t with
    memo =
      Option.map
        (fun m -> Rewrite.Memo.create ~capacity:(Rewrite.Memo.capacity m) ())
        t.memo;
  }

let spec t = t.spec
let system t = t.system
let fuel t = t.fuel

type value =
  | Value of Term.t
  | Error_value of Sort.t
  | Stuck of Term.t
  | Diverged

let classify spec term =
  match Term.view term with
  | Term.Err s -> Error_value s
  | _ ->
    if Spec.is_constructor_ground_term spec term then Value term
    else Stuck term

let eval_count ?fuel ?on_rule t term =
  if not (Term.is_ground term) then
    invalid_arg
      (Fmt.str "Interp.eval: term %a has free variables" Term.pp term);
  let fuel = Option.value ~default:t.fuel fuel in
  match
    Rewrite.normalize_count ?memo:t.memo ~fuel ?on_rule t.system term
  with
  | nf, steps -> (classify t.spec nf, steps)
  | exception Rewrite.Out_of_fuel _ -> (Diverged, fuel)

let eval ?fuel t term = fst (eval_count ?fuel t term)

let eval_bool t term =
  match eval t term with
  | Value v when Term.equal v Term.tt -> Some true
  | Value v when Term.equal v Term.ff -> Some false
  | _ -> None

let apply t name args =
  let op = Spec.find_op_exn name t.spec in
  Term.app op args

let call t name args = eval t (apply t name args)

let reduce ?fuel t term =
  let fuel = Option.value ~default:t.fuel fuel in
  Rewrite.normalize ?memo:t.memo ~fuel t.system term

type memo_stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
  capacity : int;
}

let memo_stats t =
  Option.map
    (fun m ->
      {
        hits = Rewrite.Memo.hits m;
        misses = Rewrite.Memo.misses m;
        entries = Rewrite.Memo.size m;
        evictions = Rewrite.Memo.evictions m;
        capacity = Rewrite.Memo.capacity m;
      })
    t.memo

let steps t term =
  let _, n = Rewrite.normalize_count ~fuel:t.fuel t.system term in
  n

let trace ?max_events ?on_rule t term =
  Rewrite.trace ~fuel:t.fuel ?max_events ?on_rule t.system term

let pp_value ppf = function
  | Value v -> Term.pp ppf v
  | Error_value s -> Fmt.pf ppf "error : %a" Sort.pp s
  | Stuck t -> Fmt.pf ppf "stuck at %a" Term.pp t
  | Diverged -> Fmt.string ppf "diverged (out of fuel)"
