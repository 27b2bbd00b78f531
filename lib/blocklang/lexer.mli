(** Lexer for the block-structured language. *)

type token =
  | Ident of string
  | Number of int
  | Kbegin
  | Kend
  | Kdecl
  | Kknows
  | Kprint
  | Knot
  | Kif
  | Kthen
  | Kelse
  | Kwhile
  | Kdo
  | Kproc
  | Kreturn
  | Ktrue
  | Kfalse
  | Kint
  | Kbool
  | Assign  (** [:=] *)
  | Colon
  | Semi
  | Comma
  | Lparen
  | Rparen
  | Plus
  | Minus
  | Star
  | Less
  | Eqeq
  | Andand
  | Oror
  | Eof

type located = { token : token; line : int; col : int }
type error = { line : int; col : int; message : string }

val pp_token : token Fmt.t
val tokenize : string -> (located list, error) result
