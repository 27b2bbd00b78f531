type request =
  | Normalize of { spec : string; term : string; fuel : int option }
  | Check of { spec : string }
  | Skeletons of { spec : string }
  | Lint of { spec : string }
  | Testgen of {
      spec : string;
      impl : string option;
      count : int option;
      seed : int option;
    }
  | Prove of {
      spec : string;
      vars : (string * string) list;
      lhs : string;
      rhs : string;
      fuel : int option;
    }
  | Session_open of { spec : string }
  | Session_edit of { spec : string; lines : int }
  | Session_status of { spec : string }
  | Stats of { verbose : bool }
  | Metrics
  | Slowlog
  | Quit

type response =
  | Ok_response of string
  | Ok_framed of { header : string; body : string list }
  | Error_response of { code : string; message : string }

let sanitize s =
  let buf = Buffer.create (String.length s) in
  let pending_space = ref false in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' -> pending_space := true
      | c ->
        if !pending_space && Buffer.length buf > 0 then Buffer.add_char buf ' ';
        pending_space := false;
        Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* {1 The request grammar}

   A cursor reads the trimmed request line left to right. A word is a
   maximal run of characters other than space and tab. *)

type cursor = { line : string; mutable pos : int }

let blank ch = ch = ' ' || ch = '\t'

(* moves past blanks; true when no word is left *)
let at_end c =
  let n = String.length c.line in
  while c.pos < n && blank c.line.[c.pos] do c.pos <- c.pos + 1 done;
  c.pos >= n

let next_word c =
  if at_end c then None
  else
    let start = c.pos in
    while c.pos < String.length c.line && not (blank c.line.[c.pos]) do
      c.pos <- c.pos + 1
    done;
    Some (String.sub c.line start (c.pos - start))

(* the rest of the line from the next word on, its spacing kept: the last
   thing a builder reads *)
let rest c =
  if at_end c then None
  else Some (String.sub c.line c.pos (String.length c.line - c.pos))

let rec remaining_words acc c =
  match next_word c with
  | None -> List.rev acc
  | Some w -> remaining_words (w :: acc) c

(* why a row's builder rejects a line; [Usage] renders as
   "KIND expects: USAGE" from the row *)
type failure = Usage | Invalid of string

let invalid fmt = Fmt.kstr (fun message -> Error (Invalid message)) fmt
let ( let* ) r f = Result.bind r f

(* the one positional word left *)
let single c =
  match next_word c with Some w when at_end c -> Ok w | _ -> Error Usage

(* Leading KEY=VALUE words are options, checked against the keys the
   row accepts; a repeated key's first value counts. *)
let read_options c ~kind ~keys =
  let rec go opts =
    let start = c.pos in
    match next_word c with
    | Some w when String.contains w '=' ->
      let i = String.index w '=' in
      let key = String.sub w 0 i in
      if List.mem key keys then
        go ((key, String.sub w (i + 1) (String.length w - i - 1)) :: opts)
      else
        invalid "unknown option %s for %s%s" key kind
          (if keys = [] then " (none accepted)"
           else Fmt.str " (accepted: %s)" (String.concat ", " keys))
    | _ ->
      c.pos <- start;
      Ok (List.rev opts)
  in
  go []

(* a typed reader of option values: what a value must be, and how it
   converts *)
let positive =
  ( "a positive integer",
    fun v ->
      match int_of_string_opt v with Some n when n > 0 -> Some n | _ -> None )

let integer = ("an integer", int_of_string_opt)
let boolean = ("true or false", bool_of_string_opt)

let option (expects, read) key opts =
  match List.assoc_opt key opts with
  | None -> Ok None
  | Some v -> (
    match read v with
    | Some x -> Ok (Some x)
    | None -> invalid "option %s expects %s, got %s" key expects v)

let parse_vars = function
  | "-" -> Ok []
  | s ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | entry :: rest -> (
        match String.index_opt entry ':' with
        | Some i when i > 0 && i < String.length entry - 1 ->
          let name = String.sub entry 0 i in
          let sort = String.sub entry (i + 1) (String.length entry - i - 1) in
          go ((name, sort) :: acc) rest
        | _ ->
          invalid "variable declaration %s is not of the form name:Sort" entry)
    in
    go [] (String.split_on_char ',' s)

let split_goal ws =
  let rec go acc = function
    | [] -> None
    | "==" :: rhs -> Some (List.rev acc, rhs)
    | w :: rest -> go (w :: acc) rest
  in
  match go [] ws with
  | Some ((_ :: _ as lhs), (_ :: _ as rhs)) ->
    Ok (String.concat " " lhs, String.concat " " rhs)
  | _ ->
    invalid
      "prove expects a goal of the form LHS == RHS after the variable \
       declarations"

(* One row per kind, in the order of {!kinds}: the keyword, the option
   keys it accepts, its usage line, and a builder from the options and
   the positional words to the request. *)
type row = {
  kind : string;
  keys : string list;
  usage : string;
  build : cursor -> (string * string) list -> (request, failure) result;
}

let row kind keys usage build = { kind; keys; usage; build }

let spec_row kind make =
  row kind [] (kind ^ " SPEC") (fun c _ -> Result.map make (single c))

let bare kind request =
  row kind [] kind (fun c _ -> if at_end c then Ok request else Error Usage)

let rows =
  [
    row "normalize" [ "fuel" ] "normalize [fuel=N] SPEC TERM" (fun c opts ->
        let* fuel = option positive "fuel" opts in
        let spec = next_word c in
        match (spec, rest c) with
        | Some spec, Some term -> Ok (Normalize { spec; term; fuel })
        | _ -> Error Usage);
    spec_row "check" (fun spec -> Check { spec });
    spec_row "skeletons" (fun spec -> Skeletons { spec });
    spec_row "lint" (fun spec -> Lint { spec });
    row "testgen" [ "count"; "seed"; "impl" ]
      "testgen [impl=NAME] [count=N] [seed=S] SPEC" (fun c opts ->
        let* count = option positive "count" opts in
        let* seed = option integer "seed" opts in
        let* spec = single c in
        Ok (Testgen { spec; impl = List.assoc_opt "impl" opts; count; seed }));
    row "prove" [ "fuel" ]
      "prove [fuel=N] SPEC VARS LHS == RHS (VARS is '-' or name:Sort,...)"
      (fun c opts ->
        let* fuel = option positive "fuel" opts in
        let spec = next_word c in
        match (spec, next_word c) with
        | Some spec, Some vars_word -> (
          let* vars = parse_vars vars_word in
          let* lhs, rhs = split_goal (remaining_words [] c) in
          Ok (Prove { spec; vars; lhs; rhs; fuel }))
        | _ -> Error Usage);
    row "stats" [ "verbose" ] "stats [verbose=true]" (fun c opts ->
        let* verbose = option boolean "verbose" opts in
        if at_end c then Ok (Stats { verbose = verbose = Some true })
        else Error Usage);
    bare "metrics" Metrics;
    bare "slowlog" Slowlog;
    spec_row "session-open" (fun spec -> Session_open { spec });
    row "session-edit" [ "lines" ]
      "session-edit lines=N SPEC, followed by N raw body lines" (fun c opts ->
        let* lines = option positive "lines" opts in
        let* spec = single c in
        match lines with
        | Some lines -> Ok (Session_edit { spec; lines })
        | None -> Error Usage);
    spec_row "session-status" (fun spec -> Session_status { spec });
    bare "quit" Quit;
  ]

let kinds = List.map (fun r -> r.kind) rows

let expected =
  match List.rev kinds with
  | last :: others -> String.concat ", " (List.rev others) ^ " or " ^ last
  | [] -> ""

let parse line =
  let c = { line = String.trim line; pos = 0 } in
  match next_word c with
  | None -> Ok None
  | Some kind when kind.[0] = '#' -> Ok None
  | Some kind -> (
    match List.find_opt (fun r -> String.equal r.kind kind) rows with
    | None -> Error (Fmt.str "unknown request %s (expected %s)" kind expected)
    | Some r -> (
      match Result.bind (read_options c ~kind ~keys:r.keys) (r.build c) with
      | Ok request -> Ok (Some request)
      | Error Usage -> Error (Fmt.str "%s expects: %s" kind r.usage)
      | Error (Invalid message) -> Error message))

(* the one place a reply's text is made protocol-safe: every line is
   sanitized, so no CR, LF or TAB survives inside a line, and a frame's
   lines are joined here *)
let render = function
  | Ok_response payload -> "ok " ^ sanitize payload
  | Ok_framed { header; body } ->
    String.concat "\n" (("ok " ^ sanitize header) :: List.map sanitize body)
  | Error_response { code; message } ->
    Fmt.str "error %s %s" code (sanitize message)

let payload = function
  | Error_response _ -> None
  | ok ->
    let line = render ok in
    Some (String.sub line 3 (String.length line - 3))

let of_payload text =
  match String.split_on_char '\n' text with
  | header :: (_ :: _ as body) -> Ok_framed { header; body }
  | _ -> Ok_response text

(* positions in [kinds] *)
let kind_index = function
  | Normalize _ -> 0
  | Check _ -> 1
  | Skeletons _ -> 2
  | Lint _ -> 3
  | Testgen _ -> 4
  | Prove _ -> 5
  | Stats _ -> 6
  | Metrics -> 7
  | Slowlog -> 8
  | Session_open _ -> 9
  | Session_edit _ -> 10
  | Session_status _ -> 11
  | Quit -> 12

let kind_names = Array.of_list kinds
let kind_name request = kind_names.(kind_index request)

let spec_name = function
  | Normalize { spec; _ } | Check { spec } | Skeletons { spec }
  | Lint { spec } | Testgen { spec; _ } | Prove { spec; _ }
  | Session_open { spec } | Session_edit { spec; _ }
  | Session_status { spec } ->
    Some spec
  | Stats _ | Metrics | Slowlog | Quit -> None
