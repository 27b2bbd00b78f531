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

let words line =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
  |> List.filter (fun w -> not (String.equal w ""))

(* leading KEY=VALUE words are options; [allowed] lists the keys the kind
   accepts *)
let take_options ~kind ~allowed ws =
  let rec go opts = function
    | w :: rest when String.contains w '=' -> (
      match String.index_opt w '=' with
      | Some i ->
        let key = String.sub w 0 i in
        let value = String.sub w (i + 1) (String.length w - i - 1) in
        if List.mem key allowed then go ((key, value) :: opts) rest
        else
          Error
            (Fmt.str "unknown option %s for %s%s" key kind
               (if allowed = [] then " (none accepted)"
                else Fmt.str " (accepted: %s)" (String.concat ", " allowed)))
      | None -> Ok (List.rev opts, w :: rest))
    | ws -> Ok (List.rev opts, ws)
  in
  go [] ws

let fuel_option opts =
  match List.assoc_opt "fuel" opts with
  | None -> Ok None
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n > 0 -> Ok (Some n)
    | _ -> Error (Fmt.str "option fuel expects a positive integer, got %s" v))

let bool_option key opts =
  match List.assoc_opt key opts with
  | None -> Ok false
  | Some "true" -> Ok true
  | Some "false" -> Ok false
  | Some v -> Error (Fmt.str "option %s expects true or false, got %s" key v)

let parse_vars = function
  | "-" -> Ok []
  | s ->
    let entries = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | entry :: rest -> (
        match String.index_opt entry ':' with
        | Some i when i > 0 && i < String.length entry - 1 ->
          let name = String.sub entry 0 i in
          let sort = String.sub entry (i + 1) (String.length entry - i - 1) in
          go ((name, sort) :: acc) rest
        | _ ->
          Error
            (Fmt.str "variable declaration %s is not of the form name:Sort"
               entry))
    in
    go [] entries

let split_goal ws =
  let rec go acc = function
    | [] -> None
    | "==" :: rhs -> Some (List.rev acc, rhs)
    | w :: rest -> go (w :: acc) rest
  in
  match go [] ws with
  | Some ((_ :: _ as lhs), (_ :: _ as rhs)) ->
    Some (String.concat " " lhs, String.concat " " rhs)
  | _ -> None

let ( let* ) r f = Result.bind r f

let parse line =
  let line = String.trim line in
  if String.equal line "" || line.[0] = '#' then Ok None
  else
    match words line with
    | [] -> Ok None
    | kind :: rest -> (
      let with_options allowed k =
        let* opts, args = take_options ~kind ~allowed rest in
        k opts args
      in
      match kind with
      | "normalize" ->
        with_options [ "fuel" ] (fun opts args ->
            let* fuel = fuel_option opts in
            match args with
            | spec :: (_ :: _ as term_words) ->
              Ok
                (Some
                   (Normalize
                      { spec; term = String.concat " " term_words; fuel }))
            | _ -> Error "normalize expects: normalize [fuel=N] SPEC TERM")
      | "check" ->
        with_options [] (fun _ args ->
            match args with
            | [ spec ] -> Ok (Some (Check { spec }))
            | _ -> Error "check expects: check SPEC")
      | "skeletons" ->
        with_options [] (fun _ args ->
            match args with
            | [ spec ] -> Ok (Some (Skeletons { spec }))
            | _ -> Error "skeletons expects: skeletons SPEC")
      | "lint" ->
        with_options [] (fun _ args ->
            match args with
            | [ spec ] -> Ok (Some (Lint { spec }))
            | _ -> Error "lint expects: lint SPEC")
      | "testgen" ->
        with_options [ "count"; "seed"; "impl" ] (fun opts args ->
            let positive key =
              match List.assoc_opt key opts with
              | None -> Ok None
              | Some v -> (
                match int_of_string_opt v with
                | Some n when n > 0 -> Ok (Some n)
                | _ ->
                  Error
                    (Fmt.str "option %s expects a positive integer, got %s"
                       key v))
            in
            let* count = positive "count" in
            let* seed =
              match List.assoc_opt "seed" opts with
              | None -> Ok None
              | Some v -> (
                match int_of_string_opt v with
                | Some n -> Ok (Some n)
                | None ->
                  Error (Fmt.str "option seed expects an integer, got %s" v))
            in
            match args with
            | [ spec ] ->
              Ok
                (Some
                   (Testgen
                      { spec; impl = List.assoc_opt "impl" opts; count; seed }))
            | _ ->
              Error "testgen expects: testgen [impl=NAME] [count=N] [seed=S] SPEC")
      | "prove" ->
        with_options [ "fuel" ] (fun opts args ->
            let* fuel = fuel_option opts in
            match args with
            | spec :: vars_word :: goal_words -> (
              let* vars = parse_vars vars_word in
              match split_goal goal_words with
              | Some (lhs, rhs) ->
                Ok (Some (Prove { spec; vars; lhs; rhs; fuel }))
              | None ->
                Error
                  "prove expects a goal of the form LHS == RHS after the \
                   variable declarations")
            | _ ->
              Error
                "prove expects: prove [fuel=N] SPEC VARS LHS == RHS (VARS \
                 is '-' or name:Sort,...)")
      | "session-open" ->
        with_options [] (fun _ args ->
            match args with
            | [ spec ] -> Ok (Some (Session_open { spec }))
            | _ -> Error "session-open expects: session-open NAME")
      | "session-edit" ->
        with_options [ "lines" ] (fun opts args ->
            let* lines =
              match List.assoc_opt "lines" opts with
              | Some v -> (
                match int_of_string_opt v with
                | Some n when n > 0 -> Ok n
                | _ ->
                  Error
                    (Fmt.str "option lines expects a positive integer, got %s"
                       v))
              | None ->
                Error
                  "session-edit expects: session-edit lines=N NAME, followed \
                   by N raw body lines"
            in
            match args with
            | [ spec ] -> Ok (Some (Session_edit { spec; lines }))
            | _ ->
              Error
                "session-edit expects: session-edit lines=N NAME, followed \
                 by N raw body lines")
      | "session-status" ->
        with_options [] (fun _ args ->
            match args with
            | [ spec ] -> Ok (Some (Session_status { spec }))
            | _ -> Error "session-status expects: session-status NAME")
      | "stats" ->
        with_options [ "verbose" ] (fun opts args ->
            let* verbose = bool_option "verbose" opts in
            match args with
            | [] -> Ok (Some (Stats { verbose }))
            | _ -> Error "stats takes no positional arguments")
      | "metrics" ->
        with_options [] (fun _ args ->
            match args with
            | [] -> Ok (Some Metrics)
            | _ -> Error "metrics takes no arguments")
      | "slowlog" ->
        with_options [] (fun _ args ->
            match args with
            | [] -> Ok (Some Slowlog)
            | _ -> Error "slowlog takes no arguments")
      | "quit" ->
        with_options [] (fun _ args ->
            match args with
            | [] -> Ok (Some Quit)
            | _ -> Error "quit takes no arguments")
      | other ->
        Error
          (Fmt.str
             "unknown request %s (expected normalize, check, skeletons, \
              lint, testgen, prove, session-open, session-edit, \
              session-status, stats, metrics, slowlog or quit)"
             other))

let render = function
  | Ok_response payload -> "ok " ^ payload
  | Error_response { code; message } -> Fmt.str "error %s %s" code message

let kinds =
  [ "normalize"; "check"; "skeletons"; "lint"; "testgen"; "prove"; "stats";
    "metrics"; "slowlog"; "session-open"; "session-edit"; "session-status";
    "quit" ]

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
