(** Semantic analysis, functorized over the abstract symbol table.

    The checker performs the duties the paper assigns to the symbol table's
    client: it rejects duplicate declarations in a block (via
    [IS_INBLOCK?]), undeclared or not-visible identifiers (via [RETRIEVE]),
    and type mismatches (via the attributes retrieved); block entry and
    exit map to [ENTERBLOCK]/[LEAVEBLOCK]. On success it produces a
    resolved program in which every identifier occurrence carries its slot
    and type — the input of {!Codegen} and {!Eval}.

    Attributes are stored as [MK_ATTRS(type code, slot)] terms
    ({!Adt_specs.Attributes.mk}), so the same checker runs unchanged over
    the direct and the algebraic backends. *)

type kind =
  | Duplicate_declaration
  | Undeclared_identifier
  | Type_mismatch
  | Knows_unsupported
      (** The program uses knows lists but the backend does not support
          them. *)
  | Toplevel_knows  (** A knows list on the outermost block. *)
  | Not_a_procedure  (** Calling a variable, or using a procedure as one. *)
  | Misplaced_return  (** [return] outside any procedure body. *)

type diagnostic = { line : int; kind : kind; message : string }

val pp_diagnostic : diagnostic Fmt.t

(** {1 Resolved programs} *)

type rexpr = { rdesc : rexpr_desc; rty : Ast.typ }

and rexpr_desc =
  | RInt of int
  | RBool of bool
  | RVar of int  (** slot *)
  | RBinop of Ast.binop * rexpr * rexpr
  | RNot of rexpr
  | RCall of int * rexpr list  (** procedure-table index and arguments *)

type rstmt =
  | RDecl of int * Ast.typ
      (** slot, initialised to the type's default (0 / false) *)
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

module Make (Symtab : Symtab_intf.SYMTAB) : sig
  val backend_name : string

  val check : Ast.program -> (rprogram, diagnostic list) result
  (** [Error] lists every diagnostic found (the checker recovers and keeps
      going after each error). *)
end

module Direct : module type of Make (Symtab_direct)
module Algebraic : module type of Make (Symtab_algebraic)
module Algebraic_knows : module type of Make (Symtab_algebraic_knows)
