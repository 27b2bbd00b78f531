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
  | Arrow
  | Equals
  | Lbracket
  | Rbracket
  | Eof

type located = { token : token; line : int; col : int }
type error = { line : int; col : int; message : string }

let keyword_of_string = function
  | "spec" -> Some Kspec
  | "uses" -> Some Kuses
  | "sort" -> Some Ksort
  | "ops" -> Some Kops
  | "constructors" -> Some Kconstructors
  | "vars" -> Some Kvars
  | "axioms" -> Some Kaxioms
  | "end" -> Some Kend
  | "if" -> Some Kif
  | "then" -> Some Kthen
  | "else" -> Some Kelse
  | "error" -> Some Kerror
  | _ -> None

let string_of_keyword = function
  | Kspec -> "spec"
  | Kuses -> "uses"
  | Ksort -> "sort"
  | Kops -> "ops"
  | Kconstructors -> "constructors"
  | Kvars -> "vars"
  | Kaxioms -> "axioms"
  | Kend -> "end"
  | Kif -> "if"
  | Kthen -> "then"
  | Kelse -> "else"
  | Kerror -> "error"

let pp_token ppf = function
  | Ident s -> Fmt.pf ppf "identifier %s" s
  | Keyword k -> Fmt.pf ppf "keyword %s" (string_of_keyword k)
  | Lparen -> Fmt.string ppf "("
  | Rparen -> Fmt.string ppf ")"
  | Comma -> Fmt.string ppf ","
  | Colon -> Fmt.string ppf ":"
  | Arrow -> Fmt.string ppf "->"
  | Equals -> Fmt.string ppf "="
  | Lbracket -> Fmt.string ppf "["
  | Rbracket -> Fmt.string ppf "]"
  | Eof -> Fmt.string ppf "end of input"

(* digits may start an identifier so that bare axiom labels like [1] lex *)
let is_ident_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let is_ident_char c = is_ident_start c || c = '?' || c = '.' || c = '\''

let tokenize input =
  let n = String.length input in
  let line = ref 1 and col = ref 1 in
  let tokens = ref [] in
  let emit token = tokens := { token; line = !line; col = !col } :: !tokens in
  let exception Fail of error in
  let fail message = raise (Fail { line = !line; col = !col; message }) in
  let i = ref 0 in
  let advance k =
    for _ = 1 to k do
      (if !i < n && input.[!i] = '\n' then begin
         incr line;
         col := 0
       end);
      incr col;
      incr i
    done
  in
  try
    while !i < n do
      let c = input.[!i] in
      if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance 1
      else if c = '-' && !i + 1 < n && input.[!i + 1] = '-' then begin
        (* line comment *)
        while !i < n && input.[!i] <> '\n' do
          advance 1
        done
      end
      else if c = '-' && !i + 1 < n && input.[!i + 1] = '>' then begin
        emit Arrow;
        advance 2
      end
      else if c = '(' then (emit Lparen; advance 1)
      else if c = ')' then (emit Rparen; advance 1)
      else if c = ',' then (emit Comma; advance 1)
      else if c = ':' then (emit Colon; advance 1)
      else if c = '=' then (emit Equals; advance 1)
      else if c = '[' then (emit Lbracket; advance 1)
      else if c = ']' then (emit Rbracket; advance 1)
      else if is_ident_start c then begin
        let start = !i in
        let start_line = !line and start_col = !col in
        while !i < n && is_ident_char input.[!i] do
          advance 1
        done;
        let word = String.sub input start (!i - start) in
        let token =
          match keyword_of_string word with
          | Some k -> Keyword k
          | None -> Ident word
        in
        tokens := { token; line = start_line; col = start_col } :: !tokens
      end
      else fail (Fmt.str "unexpected character %C" c)
    done;
    emit Eof;
    Ok (List.rev !tokens)
  with Fail e -> Error e
