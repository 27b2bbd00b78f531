(** Lexer for the specification language.

    The concrete syntax follows the paper's notation as closely as ASCII
    allows: operation names may contain [?], [.] and ['] (as in [IS_EMPTY?],
    [IS.NEWSTACK?], [INIT']), axioms are written [LHS = RHS] with
    [if _ then _ else _] right-hand sides, and [--] starts a line comment. *)

type keyword =
  | Kspec
  | Kuses
  | Ksort
  | Kops
  | Kconstructors
  | Kvars
  | Kaxioms
  | Kend
  | Kif
  | Kthen
  | Kelse
  | Kerror

type token =
  | Ident of string
  | Keyword of keyword
  | Lparen
  | Rparen
  | Comma
  | Colon
  | Arrow  (** [->] *)
  | Equals
  | Lbracket
  | Rbracket
  | Eof

type located = { token : token; line : int; col : int }

type error = { line : int; col : int; message : string }

val pp_token : token Fmt.t

val tokenize : string -> (located list, error) result
(** The result always ends with an [Eof] token. *)
