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
  | Assign
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

let keyword = function
  | "begin" -> Some Kbegin
  | "end" -> Some Kend
  | "decl" -> Some Kdecl
  | "knows" -> Some Kknows
  | "print" -> Some Kprint
  | "not" -> Some Knot
  | "if" -> Some Kif
  | "then" -> Some Kthen
  | "else" -> Some Kelse
  | "while" -> Some Kwhile
  | "do" -> Some Kdo
  | "proc" -> Some Kproc
  | "return" -> Some Kreturn
  | "true" -> Some Ktrue
  | "false" -> Some Kfalse
  | "int" -> Some Kint
  | "bool" -> Some Kbool
  | _ -> None

let pp_token ppf = function
  | Ident s -> Fmt.pf ppf "identifier %s" s
  | Number n -> Fmt.pf ppf "number %d" n
  | Kbegin -> Fmt.string ppf "begin"
  | Kend -> Fmt.string ppf "end"
  | Kdecl -> Fmt.string ppf "decl"
  | Kknows -> Fmt.string ppf "knows"
  | Kprint -> Fmt.string ppf "print"
  | Knot -> Fmt.string ppf "not"
  | Kif -> Fmt.string ppf "if"
  | Kthen -> Fmt.string ppf "then"
  | Kelse -> Fmt.string ppf "else"
  | Kwhile -> Fmt.string ppf "while"
  | Kdo -> Fmt.string ppf "do"
  | Kproc -> Fmt.string ppf "proc"
  | Kreturn -> Fmt.string ppf "return"
  | Ktrue -> Fmt.string ppf "true"
  | Kfalse -> Fmt.string ppf "false"
  | Kint -> Fmt.string ppf "int"
  | Kbool -> Fmt.string ppf "bool"
  | Assign -> Fmt.string ppf ":="
  | Colon -> Fmt.string ppf ":"
  | Semi -> Fmt.string ppf ";"
  | Comma -> Fmt.string ppf ","
  | Lparen -> Fmt.string ppf "("
  | Rparen -> Fmt.string ppf ")"
  | Plus -> Fmt.string ppf "+"
  | Minus -> Fmt.string ppf "-"
  | Star -> Fmt.string ppf "*"
  | Less -> Fmt.string ppf "<"
  | Eqeq -> Fmt.string ppf "=="
  | Andand -> Fmt.string ppf "&&"
  | Oror -> Fmt.string ppf "||"
  | Eof -> Fmt.string ppf "end of input"

let is_alpha c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_alpha c || is_digit c

let tokenize input =
  let n = String.length input in
  let line = ref 1 and col = ref 1 and i = ref 0 in
  let tokens = ref [] in
  let exception Fail of error in
  let fail message = raise (Fail { line = !line; col = !col; message }) in
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
  let emit_at l c token = tokens := { token; line = l; col = c } :: !tokens in
  let emit token =
    emit_at !line !col token;
    advance
      (match token with
      | Assign | Eqeq | Andand | Oror -> 2
      | _ -> 1)
  in
  try
    while !i < n do
      let c = input.[!i] in
      let next = if !i + 1 < n then Some input.[!i + 1] else None in
      if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance 1
      else if c = '-' && next = Some '-' then
        while !i < n && input.[!i] <> '\n' do
          advance 1
        done
      else if c = ':' && next = Some '=' then emit Assign
      else if c = '=' && next = Some '=' then emit Eqeq
      else if c = '&' && next = Some '&' then emit Andand
      else if c = '|' && next = Some '|' then emit Oror
      else if c = ':' then emit Colon
      else if c = ';' then emit Semi
      else if c = ',' then emit Comma
      else if c = '(' then emit Lparen
      else if c = ')' then emit Rparen
      else if c = '+' then emit Plus
      else if c = '-' then emit Minus
      else if c = '*' then emit Star
      else if c = '<' then emit Less
      else if is_digit c then begin
        let start = !i and l = !line and cl = !col in
        while !i < n && is_digit input.[!i] do
          advance 1
        done;
        let text = String.sub input start (!i - start) in
        match int_of_string_opt text with
        | Some v -> emit_at l cl (Number v)
        | None -> fail (Fmt.str "number %s out of range" text)
      end
      else if is_alpha c then begin
        let start = !i and l = !line and cl = !col in
        while !i < n && is_ident_char input.[!i] do
          advance 1
        done;
        let word = String.sub input start (!i - start) in
        emit_at l cl
          (match keyword word with Some k -> k | None -> Ident word)
      end
      else fail (Fmt.str "unexpected character %C" c)
    done;
    emit_at !line !col Eof;
    Ok (List.rev !tokens)
  with Fail e -> Error e
