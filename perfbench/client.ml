(* The socket client: connections to `adtc serve` and the closed loop
   that drives them. *)

type conn = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable len : int }

(* A read that waits longer than this for the server fails the run. *)
let reply_timeout_s = 60.

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
    { fd; buf = Bytes.create 65536; len = 0 }
  | exception e ->
    Unix.close fd;
    raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring c.fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* One read into the buffer; End_of_file when the server hangs up. *)
let rec fill c =
  if c.len = Bytes.length c.buf then begin
    let bigger = Bytes.create (2 * c.len) in
    Bytes.blit c.buf 0 bigger 0 c.len;
    c.buf <- bigger
  end;
  match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
  | 0 -> raise End_of_file
  | n -> c.len <- c.len + n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    failwith (Printf.sprintf "no reply from adtc serve within %g s" reply_timeout_s)

let take_line c =
  let rec find i =
    if i >= c.len then None
    else if Bytes.unsafe_get c.buf i = '\n' then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let line = Bytes.sub_string c.buf 0 i in
    let rest = c.len - i - 1 in
    Bytes.blit c.buf (i + 1) c.buf 0 rest;
    c.len <- rest;
    Some line

let rec read_line c =
  match take_line c with
  | Some line -> line
  | None ->
    fill c;
    read_line c

(* {1 Replies} *)

let reply_prefix = "ok normalize steps="

(* [a] from index [i] equals [b], ignoring spaces: the engine renders a
   long term with its pretty-printer's line breaks squashed into spaces,
   at places a model cannot predict. *)
let same_value ?(from = 0) a b =
  let la = String.length a and lb = String.length b in
  let rec skip s n k = if k < n && s.[k] = ' ' then skip s n (k + 1) else k in
  let rec go i j =
    let i = skip a la i and j = skip b lb j in
    if i = la || j = lb then i = la && j = lb else a.[i] = b.[j] && go (i + 1) (j + 1)
  in
  go from 0

(* A reply is right when it reads [ok normalize steps=N EXPECT]. *)
let reply_matches ~expect line =
  let p = String.length reply_prefix in
  let n = String.length line in
  let rec digits i =
    if i < n && line.[i] >= '0' && line.[i] <= '9' then digits (i + 1) else i
  in
  String.starts_with ~prefix:reply_prefix line
  &&
  let sp = digits p in
  sp > p && sp < n && line.[sp] = ' ' && same_value ~from:(sp + 1) line expect

(* {1 The closed loop} *)

let of_list l =
  let rest = ref l in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
      rest := tl;
      Some x

(* One request is outstanding at a time: the next is sent only after the
   reply, and generated while the server works on the current one. No
   request is sent once [deadline_ns] has passed. [on_reply request line
   latency_ns] sees every reply; the result is the number sent. *)
let drive ?deadline_ns conn ~next ~on_reply =
  let open_ () = match deadline_ns with Some d -> Stats.now_ns () < d | None -> true in
  let rec loop upcoming sent =
    match upcoming with
    | Some (r : Workload.req) when open_ () ->
      let t0 = Stats.now_ns () in
      send conn r.line;
      let upcoming = next () in
      let line = read_line conn in
      on_reply r line (Stats.now_ns () - t0);
      loop upcoming (sent + 1)
    | _ -> sent
  in
  loop (next ()) 0
