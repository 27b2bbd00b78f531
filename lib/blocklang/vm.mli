(** A small stack-machine target for checked programs.

    Straight-line code plus two jump instructions for the structured
    control flow ([if]/[while]); blocks themselves erase after checking.
    Running compiled code and the tree-walking {!Eval} must agree — a
    differential test of the whole pipeline. *)

type instr =
  | Push_int of int
  | Push_bool of bool
  | Load of int  (** slot -> stack *)
  | Store of int  (** stack -> slot *)
  | Prim of Ast.binop
  | Prim_not
  | Print
  | Jmp of int  (** absolute target *)
  | Jz of int  (** pop a bool; jump when false *)
  | Call of int
      (** absolute procedure entry; pushes the return address on the frame
          stack *)
  | Ret  (** return to the top frame, the return value stays on the stack *)
  | Halt  (** end of the main code, before the procedure bodies *)

type program = { code : instr array; slots : int }

type value = Vint of int | Vbool of bool

val pp_value : value Fmt.t
val pp_instr : instr Fmt.t

exception Stuck of string
(** Type-confused, underflowing, or out-of-range code — impossible for
    checker-produced programs. *)

val run : ?max_steps:int -> program -> value list
(** The values printed, in order. [max_steps] (default 10 million) guards
    against non-terminating loops; exceeding it raises {!Stuck}. *)
