type kind =
  | Duplicate_declaration
  | Undeclared_identifier
  | Type_mismatch
  | Knows_unsupported
  | Toplevel_knows
  | Not_a_procedure
  | Misplaced_return

type diagnostic = { line : int; kind : kind; message : string }

let pp_kind ppf = function
  | Duplicate_declaration -> Fmt.string ppf "duplicate declaration"
  | Undeclared_identifier -> Fmt.string ppf "undeclared identifier"
  | Type_mismatch -> Fmt.string ppf "type mismatch"
  | Knows_unsupported -> Fmt.string ppf "knows lists unsupported"
  | Toplevel_knows -> Fmt.string ppf "knows list on outermost block"
  | Not_a_procedure -> Fmt.string ppf "not a procedure"
  | Misplaced_return -> Fmt.string ppf "misplaced return"

let pp_diagnostic ppf d =
  Fmt.pf ppf "line %d: %a: %s" d.line pp_kind d.kind d.message

type rexpr = { rdesc : rexpr_desc; rty : Ast.typ }

and rexpr_desc =
  | RInt of int
  | RBool of bool
  | RVar of int
  | RBinop of Ast.binop * rexpr * rexpr
  | RNot of rexpr
  | RCall of int * rexpr list

type rstmt =
  | RDecl of int * Ast.typ
  | RAssign of int * rexpr
  | RPrint of rexpr
  | RBlock of rstmt list
  | RIf of rexpr * rstmt list * rstmt list
  | RWhile of rexpr * rstmt list
  | RReturn of rexpr

type rproc = {
  pname : string;
  param_slots : int list;
  pbody : rstmt list;
  ret : Ast.typ;
}

type rprogram = { body : rstmt list; slot_count : int; procs : rproc list }

let ty_code = function Ast.Tint -> 0 | Ast.Tbool -> 1
let ty_of_code = function 0 -> Ast.Tint | _ -> Ast.Tbool

let binop_sig = function
  | Ast.Add | Ast.Sub | Ast.Mul -> (Ast.Tint, Ast.Tint)
  | Ast.Lt | Ast.Eq -> (Ast.Tint, Ast.Tbool)
  | Ast.And | Ast.Or -> (Ast.Tbool, Ast.Tbool)

module Make (Symtab : Symtab_intf.SYMTAB) = struct
  let backend_name = Symtab.backend_name

  type env = {
    mutable st : Symtab.t;
    mutable diags : diagnostic list;
    mutable slots : int;
    mutable procs : rproc list; (* reverse order *)
    mutable current_ret : Ast.typ option;
  }

  let report env line kind message = env.diags <- { line; kind; message } :: env.diags

  let fresh_slot env =
    let s = env.slots in
    env.slots <- s + 1;
    s

  (* error recovery: a dummy expression of the wanted type *)
  let dummy ty =
    { rdesc = (match ty with Ast.Tint -> RInt 0 | Ast.Tbool -> RBool false); rty = ty }

  let rec check_expr env (e : Ast.expr) : rexpr =
    match e.Ast.desc with
    | Ast.Int n -> { rdesc = RInt n; rty = Ast.Tint }
    | Ast.Bool b -> { rdesc = RBool b; rty = Ast.Tbool }
    | Ast.Var x -> (
      match Symtab.retrieve env.st x with
      | None ->
        report env e.Ast.eline Undeclared_identifier
          (Fmt.str "%s is not declared or not visible here" x);
        dummy Ast.Tint
      | Some attrs -> (
        match Adt_specs.Attributes.decode attrs with
        | Some (code, slot) -> { rdesc = RVar slot; rty = ty_of_code code }
        | None ->
          report env e.Ast.eline Type_mismatch
            (Fmt.str "%s is a procedure, not a variable" x);
          dummy Ast.Tint))
    | Ast.Call (f, args) -> (
      let rargs = List.map (check_expr env) args in
      match Symtab.retrieve env.st f with
      | None ->
        report env e.Ast.eline Undeclared_identifier
          (Fmt.str "%s is not declared or not visible here" f);
        dummy Ast.Tint
      | Some attrs -> (
        match Adt_specs.Attributes.decode_proc attrs with
        | None ->
          report env e.Ast.eline Not_a_procedure
            (Fmt.str "%s is a variable, not a procedure" f);
          dummy Ast.Tint
        | Some (ret_code, param_codes, index) ->
          let ret_ty = ty_of_code ret_code in
          if List.length param_codes <> List.length rargs then begin
            report env e.Ast.eline Type_mismatch
              (Fmt.str "%s expects %d argument(s), got %d" f
                 (List.length param_codes) (List.length rargs));
            dummy ret_ty
          end
          else begin
            List.iteri
              (fun i (code, (r : rexpr)) ->
                if r.rty <> ty_of_code code then
                  report env e.Ast.eline Type_mismatch
                    (Fmt.str "argument %d of %s has type %a, expected %a"
                       (i + 1) f Ast.pp_typ r.rty Ast.pp_typ
                       (ty_of_code code)))
              (List.combine param_codes rargs);
            { rdesc = RCall (index, rargs); rty = ret_ty }
          end))
    | Ast.Binop (op, a, b) ->
      let want, result = binop_sig op in
      let ra = check_expr env a and rb = check_expr env b in
      let coerce side (r : rexpr) =
        if r.rty = want then r
        else begin
          report env e.Ast.eline Type_mismatch
            (Fmt.str "%s operand of %s has type %a, expected %a" side
               (Ast.binop_symbol op) Ast.pp_typ r.rty Ast.pp_typ want);
          dummy want
        end
      in
      { rdesc = RBinop (op, coerce "left" ra, coerce "right" rb); rty = result }
    | Ast.Not a ->
      let ra = check_expr env a in
      let ra =
        if ra.rty = Ast.Tbool then ra
        else begin
          report env e.Ast.eline Type_mismatch "operand of not must be bool";
          dummy Ast.Tbool
        end
      in
      { rdesc = RNot ra; rty = Ast.Tbool }

  let rec check_stmt env (s : Ast.stmt) : rstmt option =
    match s.Ast.sdesc with
    | Ast.Decl (x, ty) ->
      if Symtab.is_inblock env.st x then begin
        report env s.Ast.sline Duplicate_declaration
          (Fmt.str "%s is already declared in this block" x);
        None
      end
      else begin
        let slot = fresh_slot env in
        let attrs = Adt_specs.Attributes.mk ~ty:(ty_code ty) ~slot in
        env.st <- Symtab.add env.st x attrs;
        Some (RDecl (slot, ty))
      end
    | Ast.Assign (x, e) -> (
      let re = check_expr env e in
      match Symtab.retrieve env.st x with
      | None ->
        report env s.Ast.sline Undeclared_identifier
          (Fmt.str "%s is not declared or not visible here" x);
        None
      | Some attrs -> (
        match Adt_specs.Attributes.decode attrs with
        | Some (code, slot) ->
          let ty = ty_of_code code in
          if re.rty <> ty then begin
            report env s.Ast.sline Type_mismatch
              (Fmt.str "cannot assign %a to %s : %a" Ast.pp_typ re.rty x
                 Ast.pp_typ ty);
            None
          end
          else Some (RAssign (slot, re))
        | None ->
          report env s.Ast.sline Not_a_procedure
            (Fmt.str "%s is a procedure; it cannot be assigned" x);
          None))
    | Ast.Print e -> Some (RPrint (check_expr env e))
    | Ast.Block b -> check_block env b
    | Ast.If (c, th, el) ->
      let rc = check_bool_condition env s.Ast.sline c in
      let rth = check_block_stmts env th in
      let rel =
        match el with None -> Some [] | Some el -> check_block_stmts env el
      in
      (match (rth, rel) with
      | Some rth, Some rel -> Some (RIf (rc, rth, rel))
      | _ -> None)
    | Ast.While (c, body) -> (
      let rc = check_bool_condition env s.Ast.sline c in
      match check_block_stmts env body with
      | Some rbody -> Some (RWhile (rc, rbody))
      | None -> None)
    | Ast.Proc (f, params, ret, body) ->
      if Symtab.is_inblock env.st f then begin
        report env s.Ast.sline Duplicate_declaration
          (Fmt.str "%s is already declared in this block" f);
        None
      end
      else begin
        (* parameters live in a scope wrapped around the body; the body
           block opens its own scope inside it *)
        let saved_ret = env.current_ret in
        env.current_ret <- Some ret;
        env.st <- Symtab.enterblock env.st;
        let param_slots =
          List.map
            (fun (x, ty) ->
              let slot = fresh_slot env in
              if Symtab.is_inblock env.st x then
                report env s.Ast.sline Duplicate_declaration
                  (Fmt.str "duplicate parameter %s of %s" x f)
              else
                env.st <-
                  Symtab.add env.st x
                    (Adt_specs.Attributes.mk ~ty:(ty_code ty) ~slot);
              slot)
            params
        in
        let rbody = check_block_stmts env body in
        (match Symtab.leaveblock env.st with
        | Some st -> env.st <- st
        | None -> assert false);
        env.current_ret <- saved_ret;
        match rbody with
        | None -> None
        | Some pbody ->
          let index = List.length env.procs in
          env.procs <- { pname = f; param_slots; pbody; ret } :: env.procs;
          let attrs =
            Adt_specs.Attributes.mk_proc ~ret:(ty_code ret)
              ~params:(List.map (fun (_, ty) -> ty_code ty) params)
              ~index
          in
          env.st <- Symtab.add env.st f attrs;
          (* the declaration itself emits no code *)
          Some (RBlock [])
      end
    | Ast.Return e -> (
      let re = check_expr env e in
      match env.current_ret with
      | None ->
        report env s.Ast.sline Misplaced_return
          "return outside of any procedure";
        None
      | Some ret ->
        if re.rty <> ret then begin
          report env s.Ast.sline Type_mismatch
            (Fmt.str "return value has type %a, the procedure returns %a"
               Ast.pp_typ re.rty Ast.pp_typ ret);
          None
        end
        else Some (RReturn re))

  and check_bool_condition env line c =
    let rc = check_expr env c in
    if rc.rty = Ast.Tbool then rc
    else begin
      report env line Type_mismatch
        (Fmt.str "condition has type %a, expected bool" Ast.pp_typ rc.rty);
      dummy Ast.Tbool
    end

  (* a control-flow body: check as a block, then unwrap the statement list *)
  and check_block_stmts env b =
    match check_block env b with
    | Some (RBlock stmts) -> Some stmts
    | Some _ -> assert false
    | None -> None

  and check_block env (b : Ast.block) : rstmt option =
    if b.Ast.knows <> None && not Symtab.supports_knows then begin
      report env 0 Knows_unsupported
        (Fmt.str "backend %s cannot check knows-list programs" backend_name);
      None
    end
    else begin
      env.st <- Symtab.enterblock ?knows:b.Ast.knows env.st;
      let stmts = List.filter_map (check_stmt env) b.Ast.stmts in
      (match Symtab.leaveblock env.st with
      | Some st -> env.st <- st
      | None -> assert false (* enterblock above guarantees a scope *));
      Some (RBlock stmts)
    end

  let run (p : Ast.program) =
    let ids = Ast.identifiers p in
    let env =
      {
        st = Symtab.create ~ids;
        diags = [];
        slots = 0;
        procs = [];
        current_ret = None;
      }
    in
    if p.Ast.knows <> None then
      report env 0 Toplevel_knows "the outermost block cannot have a knows list";
    (* the outermost block lives in the scope INIT established: check its
       statements without a further ENTERBLOCK *)
    let stmts = List.filter_map (check_stmt env) p.Ast.stmts in
    (env, { body = stmts; slot_count = env.slots; procs = List.rev env.procs })

  let check p =
    let env, rp = run p in
    match env.diags with [] -> Ok rp | diags -> Error (List.rev diags)
end

module Direct = Make (Symtab_direct)
module Algebraic = Make (Symtab_algebraic)
module Algebraic_knows = Make (Symtab_algebraic_knows)
