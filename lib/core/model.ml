exception Impl_error of string

type 'r value = Rep of 'r | Foreign of Term.t

type 'r t = {
  model_name : string;
  interp : string -> 'r value list -> 'r value option;
  abstraction : 'r -> Term.t;
}

let value_to_term model = function
  | Rep r -> model.abstraction r
  | Foreign t -> t

exception Error_at of Sort.t

let no_env : string -> 'a value option = fun _ -> None

let eval_sys ?(env = no_env) sys model term =
  let rec go term =
    match Term.view term with
    | Term.Var (x, _) -> (
      match env x with
      | Some v -> v
      | None ->
        invalid_arg
          (Fmt.str "Model.eval: term %a has free variables" Term.pp term))
    | Term.Err s -> raise (Error_at s)
    | Term.Ite (c, th, el) -> (
      match go c with
      | Foreign t when Term.equal t Term.tt -> go th
      | Foreign t when Term.equal t Term.ff -> go el
      | _ -> raise (Error_at (Term.sort_of th)))
    | Term.App (op, args) -> (
      let vals =
        List.map
          (fun arg ->
            match go arg with
            | v -> v
            | exception Error_at _ -> raise (Error_at (Op.result op)))
          args
      in
      match model.interp (Op.name op) vals with
      | Some v -> v
      | None -> (
        (* foreign operation: evaluate symbolically on the abstract terms *)
        let arg_terms = List.map (value_to_term model) vals in
        match Rewrite.normalize_opt sys (Term.app op arg_terms) with
        | Some nf when Term.is_error nf -> raise (Error_at (Term.sort_of nf))
        | Some nf -> Foreign nf
        | None -> raise (Error_at (Op.result op)))
      | exception Impl_error _ -> raise (Error_at (Op.result op)))
  in
  match go term with v -> Ok v | exception Error_at s -> Error s

let to_term_sys sys model = function
  | Ok v -> (
    let t = value_to_term model v in
    match Rewrite.normalize_opt sys t with Some nf -> nf | None -> t)
  | Error s -> Term.err s

let eval spec model term = eval_sys (Rewrite.of_spec spec) model term
let to_term spec model result = to_term_sys (Rewrite.of_spec spec) model result

(* {2 Precompiled evaluation contexts}

   [eval] recompiles the specification's rewrite system on every call; a
   harness evaluating thousands of terms against one model compiles once
   and reuses the system through a [ctx]. The optional [env] gives values
   to chosen free variables — the conformance harness ([lib/testgen])
   evaluates observation contexts [C[#]] by binding the hole variable [#]
   to an already-computed representation value. *)

type 'r ctx = { ctx_sys : Rewrite.system; ctx_model : 'r t }

let ctx spec model = { ctx_sys = Rewrite.of_spec spec; ctx_model = model }

let ctx_eval ?env c term = eval_sys ?env c.ctx_sys c.ctx_model term
let ctx_denote c result = to_term_sys c.ctx_sys c.ctx_model result

type counterexample = {
  axiom : Axiom.t;
  valuation : Subst.t;
  lhs_denotes : Term.t;
  rhs_denotes : Term.t;
}

let check_instance sys model axiom valuation =
  let lhs, rhs = Axiom.instantiate valuation axiom in
  let denote side = to_term_sys sys model (eval_sys sys model side) in
  let lhs_denotes = denote lhs and rhs_denotes = denote rhs in
  if Term.equal lhs_denotes rhs_denotes then None
  else Some { axiom; valuation; lhs_denotes; rhs_denotes }

let check_axiom universe model ~size axiom =
  let sys = Rewrite.of_spec (Enum.spec universe) in
  let substs = Enum.substitutions_up_to universe (Axiom.vars axiom) ~size in
  List.find_map (check_instance sys model axiom) substs

let check universe model ~size =
  let spec = Enum.spec universe in
  let sys = Rewrite.of_spec spec in
  let rec go verified = function
    | [] -> Ok verified
    | axiom :: rest -> (
      let substs = Enum.substitutions_up_to universe (Axiom.vars axiom) ~size in
      match List.find_map (check_instance sys model axiom) substs with
      | Some cex -> Error cex
      | None -> go (verified + List.length substs) rest)
  in
  go 0 (Spec.axioms spec)

let check_random universe model ~count ~size state =
  let spec = Enum.spec universe in
  let sys = Rewrite.of_spec spec in
  let axioms = Array.of_list (Spec.axioms spec) in
  if Array.length axioms = 0 then Ok 0
  else
    let rec go verified remaining =
      if remaining = 0 then Ok verified
      else
        let axiom = axioms.(Random.State.int state (Array.length axioms)) in
        match
          Enum.random_substitution universe (Axiom.vars axiom) ~size state
        with
        | None -> go verified (remaining - 1)
        | Some valuation -> (
          match check_instance sys model axiom valuation with
          | Some cex -> Error cex
          | None -> go (verified + 1) (remaining - 1))
    in
    go 0 count

let pp_counterexample ppf c =
  Fmt.pf ppf
    "@[<v 2>axiom %a@,fails at %a:@,left denotes  %a@,right denotes %a@]"
    Axiom.pp c.axiom Subst.pp c.valuation Term.pp c.lhs_denotes Term.pp
    c.rhs_denotes
