let magic = "ADTCACHE"
let format_version = 3

type mode = Read_write | Read_only

type record = { kind : string; key : string; value : string }

type t = {
  dir : string;
  canon : string;  (* realpath, the in-process lock registry key *)
  mode : mode;
  lock_fd : Unix.file_descr option;
  max_bytes : int option;
  corrupt : int Atomic.t;
  mutable closed : bool;
  write_lock : Mutex.t;  (* serializes maintenance and appends *)
  tails : (string, int) Hashtbl.t;
      (* digest -> length of the entry file this handle validated; 0 when
         the entry is absent or its header is bad (the next append
         creates it) *)
}

(* {1 The writer lock}

   [lockf] excludes other processes but not the owning process (POSIX
   record locks are per-process), so a same-process second open is
   excluded by this registry instead — the read-only fallback behaves
   identically either way. *)

let registry_lock = Mutex.create ()
let locked_dirs : (string, unit) Hashtbl.t = Hashtbl.create 8

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
      failwith
        (Fmt.str "persist: cannot create %s: %s" dir (Unix.error_message e))
  end
  else if not (Sys.is_directory dir) then
    failwith (Fmt.str "persist: %s exists and is not a directory" dir)

let open_ ?max_bytes dir =
  mkdirs dir;
  let canon = try Unix.realpath dir with Unix.Unix_error _ | Sys_error _ -> dir in
  let lock_path = Filename.concat dir "lock" in
  let mode, lock_fd =
    Mutex.protect registry_lock (fun () ->
        if Hashtbl.mem locked_dirs canon then (Read_only, None)
        else
          match
            Unix.openfile lock_path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
          with
          | exception Unix.Unix_error _ -> (Read_only, None)
          | fd -> (
            match Unix.lockf fd Unix.F_TLOCK 0 with
            | () ->
              Hashtbl.replace locked_dirs canon ();
              (Read_write, Some fd)
            | exception Unix.Unix_error _ ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              (Read_only, None)))
  in
  {
    dir;
    canon;
    mode;
    lock_fd;
    max_bytes;
    corrupt = Atomic.make 0;
    closed = false;
    write_lock = Mutex.create ();
    tails = Hashtbl.create 8;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.lock_fd with
    | None -> ()
    | Some fd ->
      Mutex.protect registry_lock (fun () -> Hashtbl.remove locked_dirs t.canon);
      (try Unix.close fd with Unix.Unix_error _ -> ())
  end

let mode t = t.mode
let dir t = t.dir
let max_bytes t = t.max_bytes

let bump_corrupt t = Atomic.incr t.corrupt
let corrupt_count t = Atomic.get t.corrupt

(* {1 The entry format} *)

let suffix = ".adtc"

let check_digest digest =
  let ok =
    String.length digest = 32
    && String.for_all
         (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
         digest
  in
  if not ok then
    invalid_arg (Fmt.str "persist: %S is not a lowercase hex digest" digest)

let entry_path t ~digest =
  check_digest digest;
  Filename.concat t.dir (digest ^ suffix)

exception Corrupt

(* header: magic | version u16 | digest (32 hex chars); then frames, one
   per append: body length u32 | MD5(body) (16 raw bytes) | body; body =
   record count u32 then, per record, kind (u16-length-prefixed), key and
   value (u32-length-prefixed) *)
let header_len = 8 + 2 + 32
let frame_header_len = 4 + 16

let header ~digest =
  let b = Buffer.create header_len in
  Buffer.add_string b magic;
  Buffer.add_uint16_be b format_version;
  Buffer.add_string b digest;
  Buffer.contents b

let frame records =
  let body = Buffer.create 1024 in
  Buffer.add_int32_be body (Int32.of_int (List.length records));
  List.iter
    (fun r ->
      Buffer.add_uint16_be body (String.length r.kind);
      Buffer.add_string body r.kind;
      Buffer.add_int32_be body (Int32.of_int (String.length r.key));
      Buffer.add_string body r.key;
      Buffer.add_int32_be body (Int32.of_int (String.length r.value));
      Buffer.add_string body r.value)
    records;
  let body = Buffer.contents body in
  let out = Buffer.create (String.length body + frame_header_len) in
  Buffer.add_int32_be out (Int32.of_int (String.length body));
  Buffer.add_string out (Digest.string body);
  Buffer.add_string out body;
  Buffer.contents out

(* the records of the body at [data.[start .. stop - 1]], newest first *)
let decode_body data ~start ~stop =
  let pos = ref start in
  let need n =
    if n < 0 || !pos + n > stop then raise Corrupt;
    let p = !pos in
    pos := p + n;
    p
  in
  let u16 () = String.get_uint16_be data (need 2) in
  let u32 () =
    let n = Int32.to_int (String.get_int32_be data (need 4)) in
    if n < 0 then raise Corrupt;
    n
  in
  let str n = String.sub data (need n) n in
  let count = u32 () in
  if count > stop - start then raise Corrupt;
  let records = ref [] in
  for _ = 1 to count do
    let kind = str (u16 ()) in
    let key = str (u32 ()) in
    let value = str (u32 ()) in
    records := { kind; key; value } :: !records
  done;
  if !pos <> stop then raise Corrupt;
  !records

(* The valid prefix of an entry: every record of its intact frames,
   newest first, and the prefix's length in bytes — less than the data's
   when a torn or corrupt frame ends the replay. [None] when the header
   fails validation. *)
let replay ~digest data =
  let size = String.length data in
  if
    size < header_len
    || (not (String.equal (String.sub data 0 8) magic))
    || String.get_uint16_be data 8 <> format_version
    || not (String.equal (String.sub data 10 32) digest)
  then None
  else
    let frame_at pos =
      if pos + frame_header_len > size then raise Corrupt;
      let len = Int32.to_int (String.get_int32_be data pos) in
      let start = pos + frame_header_len in
      if len < 0 || start + len > size then raise Corrupt;
      if
        not
          (String.equal (Digest.substring data start len)
             (String.sub data (pos + 4) 16))
      then raise Corrupt;
      (decode_body data ~start ~stop:(start + len), start + len)
    in
    let rec go pos acc =
      if pos = size then (acc, pos)
      else
        match frame_at pos with
        | newest_first, next -> go next (newest_first @ acc)
        | exception Corrupt -> (acc, pos)
    in
    Some (go header_len [])

(* the last write per (kind, key), in the position of that write, from
   the records newest first *)
let live newest_first =
  let seen = Hashtbl.create 1024 in
  List.fold_left
    (fun acc r ->
      (* one hash per record: the table grows only on a first sighting *)
      let before = Hashtbl.length seen in
      Hashtbl.replace seen (r.kind, r.key) ();
      if Hashtbl.length seen > before then r :: acc else acc)
    [] newest_first

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* {1 Atomic writes} *)

let write_atomic t ~digest data =
  let path = entry_path t ~digest in
  let tmp =
    Filename.concat t.dir
      (Fmt.str ".tmp-%s-%d" digest (Unix.getpid ()))
  in
  let discard () = try Sys.remove tmp with Sys_error _ -> () in
  match open_out_bin tmp with
  | exception Sys_error _ -> false
  | oc -> (
    match output_string oc data; close_out oc with
    | exception Sys_error _ ->
      close_out_noerr oc;
      discard ();
      false
    | () -> (
      (* rename is atomic on POSIX: readers see the old entry or the new
         one, never a prefix *)
      match Unix.rename tmp path with
      | () -> true
      | exception Unix.Unix_error _ ->
        discard ();
        false))

(* {1 Loading}

   Any header failure — foreign magic, version bump, digest mismatch, a
   file cut inside the header — is a counted miss. A torn or corrupt
   frame ends the replay: it is counted once and the valid prefix still
   serves. The writer also repairs what it read: it cuts a torn tail off
   (so its later appends follow a valid frame) and compacts the entry
   once dead records outnumber live ones. Called with [write_lock] held
   in [Read_write] mode. *)

let load_entry t ~digest =
  let path = entry_path t ~digest in
  let writer = t.mode = Read_write in
  let validated len = if writer then Hashtbl.replace t.tails digest len in
  match read_file path with
  | exception Sys_error _ ->
    validated 0;
    []
  | data -> (
    match replay ~digest data with
    | None ->
      bump_corrupt t;
      validated 0;
      []
    | Some (records, valid) ->
      if valid < String.length data then begin
        bump_corrupt t;
        (* should the cut fail, the append's size check catches it *)
        if writer then try Unix.truncate path valid with Unix.Unix_error _ -> ()
      end;
      validated valid;
      let live = live records in
      let n_live = List.length live in
      if writer && List.length records - n_live > n_live then begin
        let data = header ~digest ^ frame live in
        if write_atomic t ~digest data then validated (String.length data)
      end;
      live)

let load t ~digest =
  match t.mode with
  | Read_only -> load_entry t ~digest
  | Read_write -> Mutex.protect t.write_lock (fun () -> load_entry t ~digest)

(* {1 Size accounting and GC} *)

let entries t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n suffix)
    |> List.filter_map (fun n ->
           let path = Filename.concat t.dir n in
           match Unix.stat path with
           | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
             Some (path, st_size, st_mtime)
           | _ | (exception Unix.Unix_error _) -> None)

type stats = { files : int; bytes : int }

let stats t =
  List.fold_left
    (fun acc (_, size, _) -> { files = acc.files + 1; bytes = acc.bytes + size })
    { files = 0; bytes = 0 } (entries t)

let gc ?max_bytes t =
  match (match max_bytes with Some _ -> max_bytes | None -> t.max_bytes) with
  | None -> 0
  | Some bound ->
    let es = entries t in
    let total = List.fold_left (fun n (_, size, _) -> n + size) 0 es in
    if total <= bound then 0
    else begin
      (* oldest first; mtime ties break on path for determinism *)
      let oldest =
        List.sort
          (fun (pa, _, ma) (pb, _, mb) ->
            match Float.compare ma mb with
            | 0 -> String.compare pa pb
            | c -> c)
          es
      in
      let removed = ref 0 in
      let remaining = ref total in
      List.iter
        (fun (path, size, _) ->
          if !remaining > bound then begin
            match Sys.remove path with
            | () ->
              incr removed;
              remaining := !remaining - size
            | exception Sys_error _ -> ()
          end)
        oldest;
      !removed
    end

let clear t =
  List.fold_left
    (fun n (path, _, _) ->
      match Sys.remove path with () -> n + 1 | exception Sys_error _ -> n)
    0 (entries t)

(* {1 Appending} *)

(* One frame onto an entry this handle validated at [len] bytes. False
   when the file is gone (GC, clear), changed size behind the handle, or
   the write failed part-way — a torn tail the next validation cuts. *)
let write_frame path ~len frame =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let n = String.length frame in
        match
          (Unix.fstat fd).Unix.st_size = len
          && Unix.write_substring fd frame 0 n = n
        with
        | ok -> ok
        | exception Unix.Unix_error _ -> false)

let append t ~digest records =
  match t.mode with
  | Read_only -> ()
  | Read_write ->
    if records <> [] then begin
      let frame = frame records in
      Mutex.protect t.write_lock (fun () ->
          let validated () =
            match Hashtbl.find_opt t.tails digest with
            | Some len -> len
            | None ->
              (* the writer's load always records what it validated *)
              ignore (load_entry t ~digest);
              Hashtbl.find t.tails digest
          in
          let create () =
            let data = header ~digest ^ frame in
            if write_atomic t ~digest data then
              Hashtbl.replace t.tails digest (String.length data)
          in
          let rec put ~retry =
            match validated () with
            | 0 -> create ()
            | len when write_frame (entry_path t ~digest) ~len frame ->
              Hashtbl.replace t.tails digest (len + String.length frame)
            | _ ->
              (* validate again once; a second failure drops this frame
                 and leaves the entry to the next validation *)
              Hashtbl.remove t.tails digest;
              if retry then put ~retry:false
          in
          put ~retry:true);
      ignore (gc t)
    end
