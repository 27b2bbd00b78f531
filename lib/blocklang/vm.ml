type instr =
  | Push_int of int
  | Push_bool of bool
  | Load of int
  | Store of int
  | Prim of Ast.binop
  | Prim_not
  | Print
  | Jmp of int
  | Jz of int
  | Call of int
  | Ret
  | Halt

type program = { code : instr array; slots : int }

type value = Vint of int | Vbool of bool

let pp_value ppf = function
  | Vint n -> Fmt.int ppf n
  | Vbool b -> Fmt.bool ppf b

let pp_instr ppf = function
  | Push_int n -> Fmt.pf ppf "push %d" n
  | Push_bool b -> Fmt.pf ppf "push %b" b
  | Load s -> Fmt.pf ppf "load %d" s
  | Store s -> Fmt.pf ppf "store %d" s
  | Prim op -> Fmt.pf ppf "prim %s" (Ast.binop_symbol op)
  | Prim_not -> Fmt.string ppf "not"
  | Print -> Fmt.string ppf "print"
  | Jmp target -> Fmt.pf ppf "jmp %d" target
  | Jz target -> Fmt.pf ppf "jz %d" target
  | Call target -> Fmt.pf ppf "call %d" target
  | Ret -> Fmt.string ppf "ret"
  | Halt -> Fmt.string ppf "halt"

exception Stuck of string

let prim op a b =
  match (op, a, b) with
  | Ast.Add, Vint x, Vint y -> Vint (x + y)
  | Ast.Sub, Vint x, Vint y -> Vint (x - y)
  | Ast.Mul, Vint x, Vint y -> Vint (x * y)
  | Ast.Lt, Vint x, Vint y -> Vbool (x < y)
  | Ast.Eq, Vint x, Vint y -> Vbool (x = y)
  | Ast.And, Vbool x, Vbool y -> Vbool (x && y)
  | Ast.Or, Vbool x, Vbool y -> Vbool (x || y)
  | _ -> raise (Stuck "primitive applied to ill-typed operands")

let run ?(max_steps = 10_000_000) p =
  let store = Array.make (max p.slots 1) (Vint 0) in
  let output = ref [] in
  let len = Array.length p.code in
  let steps = ref 0 in
  let check_target target =
    if target < 0 || target > len then raise (Stuck "jump out of range");
    target
  in
  let rec go pc stack frames =
    if pc = len then
      match (stack, frames) with
      | [], [] -> ()
      | _ -> raise (Stuck "fell off the end inside a call or with operands")
    else begin
      incr steps;
      if !steps > max_steps then raise (Stuck "step budget exceeded");
      if pc < 0 || pc > len then raise (Stuck "program counter out of range");
      match (p.code.(pc), stack) with
      | Push_int n, _ -> go (pc + 1) (Vint n :: stack) frames
      | Push_bool b, _ -> go (pc + 1) (Vbool b :: stack) frames
      | Load s, _ -> go (pc + 1) (store.(s) :: stack) frames
      | Store s, v :: rest ->
        store.(s) <- v;
        go (pc + 1) rest frames
      | Prim op, b :: a :: rest -> go (pc + 1) (prim op a b :: rest) frames
      | Prim_not, Vbool b :: rest -> go (pc + 1) (Vbool (not b) :: rest) frames
      | Print, v :: rest ->
        output := v :: !output;
        go (pc + 1) rest frames
      | Jmp target, _ -> go (check_target target) stack frames
      | Jz target, Vbool b :: rest ->
        if b then go (pc + 1) rest frames
        else go (check_target target) rest frames
      | Call target, _ -> go (check_target target) stack ((pc + 1) :: frames)
      | Ret, _ :: _ -> (
        match frames with
        | return_pc :: rest -> go return_pc stack rest
        | [] -> raise (Stuck "return with no frame"))
      | Halt, _ -> (
        match (stack, frames) with
        | [], [] -> ()
        | _ -> raise (Stuck "halt inside a call or with operands"))
      | (Store _ | Prim _ | Prim_not | Print | Jz _ | Ret), _ ->
        raise (Stuck "operand stack underflow or type confusion")
    end
  in
  go 0 [] [];
  List.rev !output
