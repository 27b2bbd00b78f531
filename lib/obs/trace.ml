type span = {
  span_name : string;
  dur_s : float;
  steps : int;
  children : span list;
}

type result = {
  id : string;
  root : span;
  rules : (string * int) list;
  total_steps : int;
}

(* an open span: children accumulate reversed until the frame closes *)
type frame = {
  fname : string;
  started : float;
  mutable fsteps : int;
  mutable rev_children : span list;
}

type state = {
  trace_id : string;
  clock : unit -> float;
  mutable stack : frame list; (* innermost first; the root is last *)
  rule_counts : (string, int) Hashtbl.t;
  mutable total_steps : int;
}

type t = Disabled | Enabled of state

let disabled = Disabled

(* process-wide: concurrent connection threads each create tracers, and
   slow-request log entries must stay attributable across all of them *)
let next_id = Atomic.make 0

let create ?(clock = Unix.gettimeofday) name =
  let n = Atomic.fetch_and_add next_id 1 + 1 in
  Enabled
    {
      trace_id = Fmt.str "t%04d" n;
      clock;
      stack = [ { fname = name; started = clock (); fsteps = 0; rev_children = [] } ];
      rule_counts = Hashtbl.create 8;
      total_steps = 0;
    }

let enabled = function Disabled -> false | Enabled _ -> true
let id = function Disabled -> None | Enabled s -> Some s.trace_id

let close_frame s frame =
  {
    span_name = frame.fname;
    dur_s = Float.max 0. (s.clock () -. frame.started);
    steps = frame.fsteps;
    children = List.rev frame.rev_children;
  }

let push_child s span =
  match s.stack with
  | frame :: _ -> frame.rev_children <- span :: frame.rev_children
  | [] -> () (* finished tracer: late spans are dropped, not an error *)

let with_span t name f =
  match t with
  | Disabled -> f ()
  | Enabled s ->
    let frame =
      { fname = name; started = s.clock (); fsteps = 0; rev_children = [] }
    in
    s.stack <- frame :: s.stack;
    Fun.protect
      ~finally:(fun () ->
        (match s.stack with
        | top :: rest when top == frame -> s.stack <- rest
        | _ ->
          (* a child span leaked past its parent's close; drop down to it *)
          s.stack <-
            (let rec drop = function
               | top :: rest when top == frame -> rest
               | _ :: rest -> drop rest
               | [] -> []
             in
             drop s.stack));
        push_child s (close_frame s frame))
      f

let record_span t name dur_s =
  match t with
  | Disabled -> ()
  | Enabled s ->
    push_child s { span_name = name; dur_s; steps = 0; children = [] }

let rule t name =
  match t with
  | Disabled -> ()
  | Enabled s ->
    s.total_steps <- s.total_steps + 1;
    (match s.stack with frame :: _ -> frame.fsteps <- frame.fsteps + 1 | [] -> ());
    Hashtbl.replace s.rule_counts name
      (1 + Option.value ~default:0 (Hashtbl.find_opt s.rule_counts name))

let finish t =
  match t with
  | Disabled -> None
  | Enabled s ->
    (* close any span left open (the root always is) from the inside out *)
    let rec unwind () =
      match s.stack with
      | [] -> assert false
      | [ root ] ->
        s.stack <- [];
        close_frame s root
      | frame :: rest ->
        s.stack <- rest;
        push_child s (close_frame s frame);
        unwind ()
    in
    let root = unwind () in
    let rules =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.rule_counts []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    Some { id = s.trace_id; root; rules; total_steps = s.total_steps }

let breakdown span =
  List.map (fun c -> (c.span_name, c.dur_s)) span.children

(* {1 JSON rendering} *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec add_span buf s =
  Buffer.add_string buf "{\"name\":";
  add_json_string buf s.span_name;
  Buffer.add_string buf (Fmt.str ",\"dur_ms\":%.3f" (s.dur_s *. 1000.));
  Buffer.add_string buf (Fmt.str ",\"steps\":%d" s.steps);
  Buffer.add_string buf ",\"children\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      add_span buf c)
    s.children;
  Buffer.add_string buf "]}"

let result_to_json ?(meta = []) r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"trace_id\":";
  add_json_string buf r.id;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      add_json_string buf k;
      Buffer.add_char buf ':';
      add_json_string buf v)
    meta;
  Buffer.add_string buf (Fmt.str ",\"steps\":%d" r.total_steps);
  Buffer.add_string buf ",\"rules\":[";
  List.iteri
    (fun i (name, count) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"rule\":";
      add_json_string buf name;
      Buffer.add_string buf (Fmt.str ",\"count\":%d}" count))
    r.rules;
  Buffer.add_string buf "],\"span\":";
  add_span buf r.root;
  Buffer.add_char buf '}';
  Buffer.contents buf
