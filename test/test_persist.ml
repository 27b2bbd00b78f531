(* The persistent result store: entry round-trips, every corruption mode
   (truncation, bit flips, foreign magic, version bumps) degrading to a
   counted miss, single-writer fallback, the GC bound, and the
   differential guarantee — a session answering from the store is
   byte-identical (steps aside) to one that computes everything. *)

open Adt
open Engine

let unique =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "adtc-test-persist-%d-%d" (Unix.getpid ()) !n)

let rm_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_dir f =
  let dir = unique () in
  Fun.protect ~finally:(fun () -> rm_dir dir) (fun () -> f dir)

let digest_of s = Digest.to_hex (Digest.string s)

let contains = Astring_contains.contains

let record kind key value = { Persist.Store.kind; key; value }

let records_t =
  Alcotest.testable
    (fun ppf rs ->
      Fmt.pf ppf "[%s]"
        (String.concat "; "
           (List.map
              (fun r ->
                Fmt.str "(%s,%s,%s)" r.Persist.Store.kind r.Persist.Store.key
                  r.Persist.Store.value)
              rs)))
    (fun a b ->
      List.length a = List.length b
      && List.for_all2
           (fun x y ->
             String.equal x.Persist.Store.kind y.Persist.Store.kind
             && String.equal x.Persist.Store.key y.Persist.Store.key
             && String.equal x.Persist.Store.value y.Persist.Store.value)
           a b)

(* {1 Round trips} *)

let test_roundtrip () =
  with_dir @@ fun dir ->
  let store = Persist.Store.open_ dir in
  Fun.protect ~finally:(fun () -> Persist.Store.close store) @@ fun () ->
  let digest = digest_of "roundtrip" in
  Alcotest.check records_t "missing entry loads empty" []
    (Persist.Store.load store ~digest);
  let rs =
    [ record "nf" "FRONT(NEW)" "E 1 Item"; record "lint" "Queue" "findings=0" ]
  in
  Persist.Store.append store ~digest rs;
  Alcotest.check records_t "round trip" rs (Persist.Store.load store ~digest);
  Alcotest.(check int) "no corruption" 0 (Persist.Store.corrupt_count store)

let test_merge_replaces () =
  with_dir @@ fun dir ->
  let store = Persist.Store.open_ dir in
  Fun.protect ~finally:(fun () -> Persist.Store.close store) @@ fun () ->
  let digest = digest_of "merge" in
  Persist.Store.append store ~digest [ record "nf" "k" "old"; record "m" "k" "x" ];
  Persist.Store.append store ~digest [ record "nf" "k" "new" ];
  Alcotest.check records_t "same (kind,key) replaced, others kept"
    [ record "m" "k" "x"; record "nf" "k" "new" ]
    (Persist.Store.load store ~digest)

let test_bad_digest_rejected () =
  with_dir @@ fun dir ->
  let store = Persist.Store.open_ dir in
  Fun.protect ~finally:(fun () -> Persist.Store.close store) @@ fun () ->
  List.iter
    (fun digest ->
      match Persist.Store.entry_path store ~digest with
      | (_ : string) -> Alcotest.failf "digest %S accepted" digest
      | exception Invalid_argument _ -> ())
    [ "short"; String.make 32 'G'; "../../../../../../etc/passwd"; "" ]

(* {1 Corruption: always a counted miss, never a crash} *)

let entry_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let corruption_case mutate =
  with_dir @@ fun dir ->
  let store = Persist.Store.open_ dir in
  Fun.protect ~finally:(fun () -> Persist.Store.close store) @@ fun () ->
  let digest = digest_of "victim" in
  Persist.Store.append store ~digest
    [ record "nf" "some key" "some value"; record "check" "k" "v" ];
  let path = Persist.Store.entry_path store ~digest in
  write_bytes path (mutate (entry_bytes path));
  let before = Persist.Store.corrupt_count store in
  Alcotest.check records_t "corrupt entry is a miss" []
    (Persist.Store.load store ~digest);
  Alcotest.(check int) "and is counted" (before + 1)
    (Persist.Store.corrupt_count store)

let test_truncated () =
  corruption_case (fun data -> String.sub data 0 (String.length data - 3));
  (* truncated into the header, too *)
  corruption_case (fun data -> String.sub data 0 5)

let test_bit_flip () =
  corruption_case (fun data ->
      let b = Bytes.of_string data in
      let i = Bytes.length b - 4 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      Bytes.to_string b)

let test_wrong_magic () =
  corruption_case (fun data -> "NOTCACHE" ^ String.sub data 8 (String.length data - 8))

let test_version_bump () =
  corruption_case (fun data ->
      let b = Bytes.of_string data in
      Bytes.set_uint16_be b 8 (Persist.Store.format_version + 1);
      Bytes.to_string b)

let test_wrong_digest_claim () =
  (* an entry renamed onto another digest's path must not be served *)
  with_dir @@ fun dir ->
  let store = Persist.Store.open_ dir in
  Fun.protect ~finally:(fun () -> Persist.Store.close store) @@ fun () ->
  let d1 = digest_of "one" and d2 = digest_of "two" in
  Persist.Store.append store ~digest:d1 [ record "nf" "k" "v" ];
  Sys.rename
    (Persist.Store.entry_path store ~digest:d1)
    (Persist.Store.entry_path store ~digest:d2);
  Alcotest.check records_t "foreign entry is a miss" []
    (Persist.Store.load store ~digest:d2);
  Alcotest.(check int) "counted" 1 (Persist.Store.corrupt_count store)

(* {1 The frame log: appends write one frame, damage stops the replay} *)

let file_size path = (Unix.stat path).Unix.st_size

(* the bytes one frame holding [rs] takes: length and MD5, then the
   record count and each record's length-prefixed fields *)
let frame_size rs =
  4 + 16 + 4
  + List.fold_left
      (fun n r ->
        n + 2
        + String.length r.Persist.Store.kind
        + 4
        + String.length r.Persist.Store.key
        + 4
        + String.length r.Persist.Store.value)
      0 rs

let with_store f =
  with_dir @@ fun dir ->
  let store = Persist.Store.open_ dir in
  Fun.protect ~finally:(fun () -> Persist.Store.close store) @@ fun () ->
  f store

let test_append_one_frame () =
  with_store @@ fun store ->
  let digest = digest_of "one frame" in
  let path = Persist.Store.entry_path store ~digest in
  let first = [ record "nf" "k1" (String.make 500 'x') ] in
  Persist.Store.append store ~digest first;
  let size1 = file_size path in
  Alcotest.(check int) "a new entry is the header and one frame"
    (8 + 2 + 32 + frame_size first)
    size1;
  let second = [ record "nf" "k2" "v2"; record "lint" "Queue" "findings=0" ] in
  Persist.Store.append store ~digest second;
  Alcotest.(check int) "an append grows the file by exactly its frame"
    (size1 + frame_size second)
    (file_size path);
  Alcotest.check records_t "both frames load" (first @ second)
    (Persist.Store.load store ~digest)

let test_torn_second_frame () =
  with_store @@ fun store ->
  let digest = digest_of "torn" in
  let path = Persist.Store.entry_path store ~digest in
  let f1 = [ record "nf" "a" "1" ] and f2 = [ record "nf" "b" "2" ] in
  Persist.Store.append store ~digest f1;
  let size1 = file_size path in
  Persist.Store.append store ~digest f2;
  (* a crash mid-append: the second frame lost its last bytes *)
  let data = entry_bytes path in
  write_bytes path (String.sub data 0 (String.length data - 3));
  Alcotest.check records_t "the first frame still serves" f1
    (Persist.Store.load store ~digest);
  Alcotest.(check int) "the torn frame is counted once" 1
    (Persist.Store.corrupt_count store);
  Alcotest.(check int) "the file is cut back to the valid prefix" size1
    (file_size path);
  let f3 = [ record "nf" "c" "3" ] in
  Persist.Store.append store ~digest f3;
  Alcotest.check records_t "a later append follows the valid prefix"
    (f1 @ f3)
    (Persist.Store.load store ~digest);
  Alcotest.(check int) "nothing more is counted" 1
    (Persist.Store.corrupt_count store)

let test_flip_in_second_frame () =
  with_store @@ fun store ->
  let digest = digest_of "flip" in
  let path = Persist.Store.entry_path store ~digest in
  let f1 = [ record "nf" "a" "1" ] in
  Persist.Store.append store ~digest f1;
  Persist.Store.append store ~digest [ record "nf" "b" "a longer value" ];
  let b = Bytes.of_string (entry_bytes path) in
  let i = Bytes.length b - 4 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  write_bytes path (Bytes.to_string b);
  Alcotest.check records_t "the first frame survives a flip in the second"
    f1
    (Persist.Store.load store ~digest);
  Alcotest.(check int) "and the flip is counted" 1
    (Persist.Store.corrupt_count store)

let test_version_1_entry () =
  (* the previous format: one whole-file body behind a header carrying
     its checksum and length *)
  with_store @@ fun store ->
  let digest = digest_of "v1" in
  let path = Persist.Store.entry_path store ~digest in
  let body = Buffer.create 64 in
  Buffer.add_int32_be body 1l;
  Buffer.add_uint16_be body 2;
  Buffer.add_string body "nf";
  Buffer.add_int32_be body 1l;
  Buffer.add_string body "k";
  Buffer.add_int32_be body 3l;
  Buffer.add_string body "old";
  let body = Buffer.contents body in
  let v1 = Buffer.create 128 in
  Buffer.add_string v1 Persist.Store.magic;
  Buffer.add_uint16_be v1 1;
  Buffer.add_string v1 digest;
  Buffer.add_string v1 (Digest.string body);
  Buffer.add_int32_be v1 (Int32.of_int (String.length body));
  Buffer.add_string v1 body;
  write_bytes path (Buffer.contents v1);
  Alcotest.check records_t "a version-1 entry is a miss" []
    (Persist.Store.load store ~digest);
  Alcotest.(check int) "and is counted" 1 (Persist.Store.corrupt_count store);
  (* the next append replaces it with a current entry *)
  let fresh = [ record "nf" "k" "new" ] in
  Persist.Store.append store ~digest fresh;
  Alcotest.check records_t "replaced by the append" fresh
    (Persist.Store.load store ~digest);
  Alcotest.(check int) "counted once" 1 (Persist.Store.corrupt_count store)

let test_compaction () =
  with_store @@ fun store ->
  let digest = digest_of "compact" in
  let path = Persist.Store.entry_path store ~digest in
  (* one dead record against two live: the load leaves the file alone *)
  Persist.Store.append store ~digest [ record "nf" "k" "v1"; record "nf" "j" "w" ];
  Persist.Store.append store ~digest [ record "nf" "k" "v2" ];
  let size = file_size path in
  Alcotest.check records_t "newest per key"
    [ record "nf" "j" "w"; record "nf" "k" "v2" ]
    (Persist.Store.load store ~digest);
  Alcotest.(check int) "dead <= live: no rewrite" size (file_size path);
  (* two more overwrites: three dead against two live *)
  Persist.Store.append store ~digest [ record "nf" "k" "v3" ];
  Persist.Store.append store ~digest [ record "nf" "k" "v4" ];
  let live = [ record "nf" "j" "w"; record "nf" "k" "v4" ] in
  Alcotest.check records_t "newest per key after the overwrites" live
    (Persist.Store.load store ~digest);
  Alcotest.(check int) "dead > live: rewritten as one frame of the live"
    (8 + 2 + 32 + frame_size live)
    (file_size path);
  Alcotest.check records_t "the compacted entry loads the same" live
    (Persist.Store.load store ~digest);
  (* appends continue on the compacted file *)
  Persist.Store.append store ~digest [ record "nf" "i" "u" ];
  Alcotest.check records_t "appends follow the compacted frame"
    (live @ [ record "nf" "i" "u" ])
    (Persist.Store.load store ~digest);
  Alcotest.(check int) "no corruption" 0 (Persist.Store.corrupt_count store)

(* {1 Single writer} *)

let test_second_open_read_only () =
  with_dir @@ fun dir ->
  let first = Persist.Store.open_ dir in
  let second = Persist.Store.open_ dir in
  Alcotest.(check bool) "first open writes" true
    (Persist.Store.mode first = Persist.Store.Read_write);
  Alcotest.(check bool) "second open degrades to read-only" true
    (Persist.Store.mode second = Persist.Store.Read_only);
  let digest = digest_of "writer" in
  Persist.Store.append second ~digest [ record "nf" "k" "v" ];
  Alcotest.check records_t "read-only append is a no-op" []
    (Persist.Store.load second ~digest);
  Persist.Store.append first ~digest [ record "nf" "k" "v" ];
  Alcotest.check records_t "read-only handle still reads"
    [ record "nf" "k" "v" ]
    (Persist.Store.load second ~digest);
  Persist.Store.close second;
  Persist.Store.close first;
  (* the lock is released on close: a fresh open writes again *)
  let third = Persist.Store.open_ dir in
  Fun.protect ~finally:(fun () -> Persist.Store.close third) @@ fun () ->
  Alcotest.(check bool) "lock released on close" true
    (Persist.Store.mode third = Persist.Store.Read_write)

(* {1 The size bound} *)

let test_gc_bound () =
  with_dir @@ fun dir ->
  let store = Persist.Store.open_ dir in
  Fun.protect ~finally:(fun () -> Persist.Store.close store) @@ fun () ->
  let payload = String.make 200 'x' in
  List.iteri
    (fun i digest ->
      Persist.Store.append store ~digest [ record "nf" "k" payload ];
      (* distinct mtimes, so "oldest" is well-defined on coarse clocks *)
      let path = Persist.Store.entry_path store ~digest in
      let t = Unix.time () -. float_of_int (100 - i) in
      Unix.utimes path t t)
    [ digest_of "a"; digest_of "b"; digest_of "c"; digest_of "d" ];
  let before = Persist.Store.stats store in
  Alcotest.(check int) "four entries" 4 before.Persist.Store.files;
  let bound = (before.Persist.Store.bytes / 4 * 2) + 1 in
  let removed = Persist.Store.gc ~max_bytes:bound store in
  let after = Persist.Store.stats store in
  Alcotest.(check int) "oldest two collected" 2 removed;
  Alcotest.(check bool)
    (Fmt.str "bytes %d fit the bound %d" after.Persist.Store.bytes bound)
    true
    (after.Persist.Store.bytes <= bound);
  (* the newest entries survived *)
  Alcotest.check records_t "newest survives"
    [ record "nf" "k" payload ]
    (Persist.Store.load store ~digest:(digest_of "d"));
  Alcotest.check records_t "oldest gone" []
    (Persist.Store.load store ~digest:(digest_of "a"));
  Alcotest.(check int) "a GC'd entry is a miss, not corruption" 0
    (Persist.Store.corrupt_count store)

let test_clear () =
  with_dir @@ fun dir ->
  let store = Persist.Store.open_ dir in
  Fun.protect ~finally:(fun () -> Persist.Store.close store) @@ fun () ->
  Persist.Store.append store ~digest:(digest_of "a") [ record "nf" "k" "v" ];
  Persist.Store.append store ~digest:(digest_of "b") [ record "nf" "k" "v" ];
  Alcotest.(check int) "clear removes every entry" 2 (Persist.Store.clear store);
  Alcotest.(check int) "empty after clear" 0
    (Persist.Store.stats store).Persist.Store.files

(* {1 The differential guarantee}

   A session with a store — cold, warm-restarted, or re-keyed by an edit —
   answers normalize requests with the same normal forms as a storeless
   session. Steps differ by design (a persistent hit reports 0), so the
   comparison masks them. *)

let mask_steps line =
  String.concat " "
    (List.map
       (fun w ->
         if String.length w >= 6 && String.equal (String.sub w 0 6) "steps=" then
           "steps=_"
         else w)
       (String.split_on_char ' ' line))

let reply session line =
  match Dispatch.handle_line session line with
  | Dispatch.Reply r -> r
  | Dispatch.Silent | Dispatch.Closed _ -> Alcotest.failf "no reply for %S" line

let queue_requests =
  (* random constructor queues under each observer, plus repeats so the
     warm run exercises genuine hits *)
  let spec = Adt_specs.Queue_spec.spec in
  let universe = Enum.universe spec in
  let rng = Random.State.make [| 0x5eed |] in
  let qs =
    List.init 12 (fun i ->
        match
          Enum.random_term universe (Sort.v "Queue") ~size:(2 + (i mod 5)) rng
        with
        | Some q -> q
        | None -> Alcotest.fail "Queue has generators")
  in
  List.concat_map
    (fun q ->
      List.map
        (fun op -> Fmt.str "normalize Queue %s(%s)" op (Term.to_string q))
        [ "FRONT"; "REMOVE"; "IS_EMPTY?" ])
    qs

let test_differential_cold_warm () =
  with_dir @@ fun dir ->
  let specs = [ Adt_specs.Queue_spec.spec ] in
  let bare = Session.create specs in
  let expected = List.map (fun r -> mask_steps (reply bare r)) queue_requests in
  (* cold: computes and records *)
  let store1 = Persist.Store.open_ dir in
  let cold = Session.create ~store:store1 specs in
  let cold_got = List.map (fun r -> mask_steps (reply cold r)) queue_requests in
  Alcotest.(check (list string)) "cold = uncached" expected cold_got;
  Session.persist_flush cold;
  Persist.Store.close store1;
  (* warm: a new process would start exactly here *)
  let store2 = Persist.Store.open_ dir in
  let warm = Session.create ~store:store2 specs in
  let warm_got = List.map (fun r -> mask_steps (reply warm r)) queue_requests in
  Alcotest.(check (list string)) "warm = uncached" expected warm_got;
  (match Session.persist_totals warm with
  | None -> Alcotest.fail "warm session has a store"
  | Some t ->
    Alcotest.(check bool)
      (Fmt.str "warm run hits (%d hits, %d misses)" t.Session.hits
         t.Session.misses)
      true
      (t.Session.hits > 0 && t.Session.misses = 0);
    Alcotest.(check int) "nothing corrupt" 0 t.Session.corrupt;
    Alcotest.(check bool) "warm entries loaded" true (t.Session.loaded > 0));
  Persist.Store.close store2

let edited_queue_source =
  {|spec Item
  sort Item
  ops
    ITEM1 : -> Item
    ITEM2 : -> Item
    ITEM3 : -> Item
  constructors ITEM1 ITEM2 ITEM3
end

spec Queue
  uses Item
  sort Queue
  ops
    NEW : -> Queue
    ADD : Queue Item -> Queue
    FRONT : Queue -> Item
    REMOVE : Queue -> Queue
    IS_EMPTY? : Queue -> Bool
  constructors NEW ADD
  vars
    q : Queue
    i : Item
  axioms
    [1] IS_EMPTY?(NEW) = true
    [2] IS_EMPTY?(ADD(q, i)) = false
    [3] FRONT(NEW) = error
    [4] FRONT(ADD(q, i)) = i
    [5] REMOVE(NEW) = error
    [6] REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW else ADD(REMOVE(q), i)
end|}

let test_differential_post_edit () =
  (* a semantic edit changes the digest: a store warmed by the original
     specification must never serve its normal forms to the edited one
     (FRONT now reads the back of the queue) *)
  with_dir @@ fun dir ->
  let edited =
    match Parser.parse_spec edited_queue_source with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "edited source: %a" Parser.pp_error e
  in
  let store1 = Persist.Store.open_ dir in
  let cold = Session.create ~store:store1 [ Adt_specs.Queue_spec.spec ] in
  List.iter (fun r -> ignore (reply cold r)) queue_requests;
  Session.persist_flush cold;
  Persist.Store.close store1;
  let bare = Session.create [ edited ] in
  let expected = List.map (fun r -> mask_steps (reply bare r)) queue_requests in
  let store2 = Persist.Store.open_ dir in
  let after = Session.create ~store:store2 [ edited ] in
  let got = List.map (fun r -> mask_steps (reply after r)) queue_requests in
  Alcotest.(check (list string)) "post-edit = uncached on the edit" expected
    got;
  (match Session.persist_totals after with
  | None -> Alcotest.fail "edited session has a store"
  | Some t ->
    Alcotest.(check int) "no stale hits across the edit" 0 t.Session.hits);
  Persist.Store.close store2

let test_append_after_clear () =
  (* the handle remembers the length it validated; a file deleted under
     it (clear, GC, another process's [adtc cache clear]) is created
     afresh, not appended to blindly *)
  with_store @@ fun store ->
  let digest = digest_of "cleared" in
  Persist.Store.append store ~digest [ record "nf" "a" "1" ];
  Alcotest.(check int) "cleared" 1 (Persist.Store.clear store);
  let fresh = [ record "nf" "b" "2" ] in
  Persist.Store.append store ~digest fresh;
  Alcotest.check records_t "the entry holds the new frame only" fresh
    (Persist.Store.load store ~digest);
  Alcotest.(check int) "no corruption" 0 (Persist.Store.corrupt_count store)

(* Regression: loaded records were keyed by the ids of terms nothing
   kept alive, so once a major collection reclaimed a key the same term
   re-parsed to a fresh id and missed. *)
let test_warm_hit_after_major_gc () =
  with_dir @@ fun dir ->
  let spec = Adt_specs.Queue_spec.spec in
  let store1 = Persist.Store.open_ dir in
  let cold = Session.create ~store:store1 [ spec ] in
  List.iter (fun r -> ignore (reply cold r)) queue_requests;
  Session.persist_flush cold;
  Persist.Store.close store1;
  let store2 = Persist.Store.open_ dir in
  Fun.protect ~finally:(fun () -> Persist.Store.close store2) @@ fun () ->
  let warm = Session.create ~store:store2 [ spec ] in
  Gc.full_major ();
  let entry =
    match Session.find warm "Queue" with
    | Some e -> e
    | None -> Alcotest.fail "Queue is registered"
  in
  List.iter
    (fun r ->
      let source =
        String.sub r (String.length "normalize Queue ")
          (String.length r - String.length "normalize Queue ")
      in
      match Parser.parse_term spec source with
      | Error e -> Alcotest.failf "%s: %a" source Parser.pp_error e
      | Ok term ->
        Alcotest.(check bool)
          (Fmt.str "%s hits after a major collection" source)
          true
          (Option.is_some (Session.persist_find entry term)))
    queue_requests

(* {1 Lazy verification of loaded normal forms}

   The warm start files each nf record, unparsed, under the [Term.hash]
   its key claims; the first probe of that hash verifies the candidates. *)

let queue_term src =
  match Parser.parse_term Adt_specs.Queue_spec.spec src with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s: %a" src Parser.pp_error e

let nf_key hash rendering = Fmt.str "%d %s" hash rendering

(* a session over a store holding only [records] under the Queue digest *)
let with_filed_records records f =
  with_dir @@ fun dir ->
  let spec = Adt_specs.Queue_spec.spec in
  let store1 = Persist.Store.open_ dir in
  Persist.Store.append store1 ~digest:(Spec_digest.spec spec) records;
  Persist.Store.close store1;
  let store2 = Persist.Store.open_ dir in
  Fun.protect ~finally:(fun () -> Persist.Store.close store2) @@ fun () ->
  f (Session.create ~store:store2 [ spec ]) (Session.create [ spec ])

let totals session =
  match Session.persist_totals session with
  | Some t -> t
  | None -> Alcotest.fail "session has a store"

let test_forced_collision () =
  let a = "FRONT(ADD(NEW, ITEM1))" and b = "FRONT(ADD(NEW, ITEM2))" in
  let h = Term.hash (queue_term a) in
  Alcotest.(check bool) "b hashes elsewhere" true
    (Term.hash (queue_term b) <> h);
  (* b's record claims a's hash and a wrong normal form: serving it would
     answer ITEM1 for b *)
  with_filed_records
    [
      record "nf" (nf_key h a) "T 1 ITEM1"; record "nf" (nf_key h b) "T 1 ITEM1";
    ]
  @@ fun session bare ->
  let ask src = reply session ("normalize Queue " ^ src) in
  let expected src = mask_steps (reply bare ("normalize Queue " ^ src)) in
  Alcotest.(check string) "a is served its record" "ok normalize steps=0 ITEM1"
    (ask a);
  Alcotest.(check int) "the false claim is counted corrupt" 1
    (totals session).Session.corrupt;
  Alcotest.(check string) "b is computed, never served a's bucket" (expected b)
    (mask_steps (ask b));
  Alcotest.(check string) "a again" "ok normalize steps=0 ITEM1" (ask a);
  let again = ask b in
  Alcotest.(check string) "b again, from the memo" (expected b)
    (mask_steps again);
  Alcotest.(check bool) "a memo hit reports zero steps" true
    (contains again "steps=0");
  let t = totals session in
  Alcotest.(check (pair int int)) "hits and misses" (2, 2)
    (t.Session.hits, t.Session.misses);
  Alcotest.(check int) "counted once" 1 t.Session.corrupt

(* two genuine records in one bucket: under today's [Term.mix], F(F(t))
   hashes like t, so [a] and [b] collide; each must be served its own.
   Both fire rules, so both are filed. *)
let test_real_collision () =
  let a = "REMOVE(ADD(ADD(NEW, ITEM1), ITEM2))"
  and b = "REMOVE(REMOVE(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2))))" in
  Alcotest.(check int) "a and b share a hash" (Term.hash (queue_term a))
    (Term.hash (queue_term b));
  with_dir @@ fun dir ->
  let spec = Adt_specs.Queue_spec.spec in
  let request src = "normalize Queue " ^ src in
  let bare = Session.create [ spec ] in
  (* the storeless reply, as a hit reports it *)
  let served src =
    String.concat " "
      (List.map
         (fun w ->
           if String.equal (mask_steps w) "steps=_" then "steps=0" else w)
         (String.split_on_char ' ' (reply bare (request src))))
  in
  let store1 = Persist.Store.open_ dir in
  let cold = Session.create ~store:store1 [ spec ] in
  List.iter (fun src -> ignore (reply cold (request src))) [ a; b ];
  Session.persist_flush cold;
  Persist.Store.close store1;
  List.iter
    (fun order ->
      let store = Persist.Store.open_ dir in
      Fun.protect ~finally:(fun () -> Persist.Store.close store) @@ fun () ->
      let warm = Session.create ~store [ spec ] in
      List.iter
        (fun src ->
          Alcotest.(check string) (src ^ " is served its own record")
            (served src)
            (reply warm (request src)))
        order;
      let t = totals warm in
      Alcotest.(check (triple int int int)) "hits, misses, corrupt" (2, 0, 0)
        (t.Session.hits, t.Session.misses, t.Session.corrupt))
    [ [ a; b ]; [ b; a ] ]

let test_lazy_corruption () =
  let a = "REMOVE(ADD(NEW, ITEM1))" and b = "IS_EMPTY?(NEW)" in
  let ha = Term.hash (queue_term a) and hb = Term.hash (queue_term b) in
  with_filed_records
    [
      (* a valid frame around an unparseable key, then a bad value *)
      record "nf" (nf_key ha "NOT(A TERM") "T 1 NEW";
      record "nf" (nf_key hb b) "T 1 NOT(A TERM";
    ]
  @@ fun session bare ->
  let corrupt () = (totals session).Session.corrupt in
  Alcotest.(check int) "nothing is parsed at load" 0 (corrupt ());
  Alcotest.(check int) "both records loaded" 2 (totals session).Session.loaded;
  List.iteri
    (fun i src ->
      let request = "normalize Queue " ^ src in
      let expected = mask_steps (reply bare request) in
      Alcotest.(check string) (src ^ " answers as uncached") expected
        (mask_steps (reply session request));
      Alcotest.(check int) (src ^ ": its first probe counts one") (i + 1)
        (corrupt ());
      Alcotest.(check string) (src ^ " again") expected
        (mask_steps (reply session request));
      Alcotest.(check int) (src ^ ": a second probe counts nothing") (i + 1)
        (corrupt ()))
    [ a; b ]

(* {1 One bounded result cache}

   With a store attached, results computed in this process are cached
   only by the bounded memo: the session's live heap does not grow with
   the number of distinct requests, and a memoized repeat files no second
   record. *)

(* the [i]th of a family of distinct Queue requests: an observer over an
   8-item queue whose items spell [i / 3] in base 4 *)
let distinct_request i =
  let q = ref "NEW" and n = ref (i / 3) in
  for _ = 1 to 8 do
    q := Fmt.str "ADD(%s, ITEM%d)" !q ((!n mod 4) + 1);
    n := !n / 4
  done;
  Fmt.str "normalize Queue %s(%s)"
    [| "FRONT"; "REMOVE"; "IS_EMPTY?" |].(i mod 3)
    !q

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* live words after requests [0, n) and then [0, 4n), the session kept
   alive throughout *)
let live_after ?store n =
  let session =
    Session.create ~cache_capacity:256 ?store [ Adt_specs.Queue_spec.spec ]
  in
  let run lo hi =
    for i = lo to hi - 1 do
      ignore (reply session (distinct_request i))
    done;
    live_words ()
  in
  let at_n = run 0 n in
  let at_4n = run n (4 * n) in
  Session.persist_flush session;
  ignore (Sys.opaque_identity session);
  (at_n, at_4n)

(* A store may add only a constant: its pending buffer of at most one
   flush's worth of records and its indexes. A table of every filed
   result would add about 25 live words per distinct request here. Two
   storeless warm-up passes first grow process-wide structures (the
   intern table) to their steady size, so both measured runs see the
   same ones. *)
let test_live_words_bounded () =
  let n = 2_000 and slack = 10_000 in
  ignore (live_after n);
  ignore (live_after n);
  let bare_n, bare_4n = live_after n in
  with_store @@ fun store ->
  let store_n, store_4n = live_after ~store n in
  List.iter
    (fun (label, bare, stored) ->
      Alcotest.(check bool)
        (Fmt.str "%s: %d live words with a store, %d without" label stored
           bare)
        true
        (stored - bare <= slack))
    [ ("N requests", bare_n, store_n); ("4N requests", bare_4n, store_4n) ]

let test_memoized_repeat_files_nothing () =
  with_store @@ fun store ->
  let spec = Adt_specs.Queue_spec.spec in
  let session = Session.create ~store [ spec ] in
  let digest = Spec_digest.spec spec in
  let requests = List.init 30 distinct_request in
  List.iter (fun r -> ignore (reply session r)) requests;
  Session.persist_flush session;
  let count () = List.length (Persist.Store.load store ~digest) in
  let bytes () = (Persist.Store.stats store).Persist.Store.bytes in
  let records = count () and size = bytes () in
  Alcotest.(check int) "every request fired a rule and was filed" 30 records;
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " repeats from the memo") true
        (contains (reply session r) "steps=0"))
    requests;
  Session.persist_flush session;
  Alcotest.(check int) "no record added" records (count ());
  Alcotest.(check int) "no byte appended" size (bytes ())

(* {1 Proof and lint persistence} *)

let test_proof_persists_warm () =
  with_dir @@ fun dir ->
  let specs = [ Adt_specs.Queue_spec.spec ] in
  let goal =
    "prove Queue q:Queue,i:Item IS_EMPTY?(REMOVE(ADD(q, i))) == IS_EMPTY?(q)"
  in
  let open_goal = "prove Queue q:Queue IS_EMPTY?(q) == true" in
  let store1 = Persist.Store.open_ dir in
  let cold = Session.create ~store:store1 specs in
  let cold_reply = reply cold goal in
  Alcotest.(check bool) "cold run proves the goal" true
    (contains cold_reply "proved");
  Alcotest.(check bool) "open goal stays unknown" true
    (contains (reply cold open_goal) "unknown");
  Session.persist_flush cold;
  Persist.Store.close store1;
  let store2 = Persist.Store.open_ dir in
  let warm = Session.create ~store:store2 specs in
  Alcotest.(check string) "warm reply byte-identical" cold_reply
    (reply warm goal);
  (match Session.persist_totals warm with
  | None -> Alcotest.fail "warm session has a store"
  | Some t ->
    Alcotest.(check int) "the proof answered from the store" 1 t.Session.hits);
  (* Unknown is never recorded — a bigger fuel budget might still prove
     the goal, so the warm retry recomputes (a counted miss) *)
  Alcotest.(check bool) "unknown recomputed warm" true
    (contains (reply warm open_goal) "unknown");
  (match Session.persist_totals warm with
  | None -> Alcotest.fail "warm session has a store"
  | Some t -> Alcotest.(check bool) "miss counted" true (t.Session.misses > 0));
  Persist.Store.close store2

(* dune runtest runs from _build/default/test; a direct dune exec runs
   from the repo root *)
let faulty_spec file =
  let dir =
    Option.value ~default:"../specs/faulty"
      (List.find_opt Sys.file_exists [ "../specs/faulty"; "specs/faulty" ])
  in
  let path = Filename.concat dir file in
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Parser.parse_specs src with
  | Ok specs -> List.nth specs (List.length specs - 1)
  | Error e -> Alcotest.failf "%s: %a" path Parser.pp_error e

(* framed replies are stored as their rendered lines after "ok ", joined
   by newlines, and replay byte-identically in a fresh session; the
   records are pinned, so a drift of the stored text fails here *)
let test_framed_payloads_persist () =
  with_dir @@ fun dir ->
  let leaky = faulty_spec "missing_case.adt" in
  let specs = [ Adt_specs.Queue_spec.spec; leaky ] in
  let lint = "lint LeakyQueue"
  and testgen = "testgen impl=mutant-lifo-front seed=414243 count=40 Queue" in
  let store1 = Persist.Store.open_ dir in
  let cold = Session.create ~store:store1 specs in
  let cold_lint = reply cold lint in
  let cold_testgen = reply cold testgen in
  Session.persist_flush cold;
  Persist.Store.close store1;
  let store2 = Persist.Store.open_ dir in
  let warm = Session.create ~store:store2 specs in
  Alcotest.(check string) "lint findings byte-identical warm" cold_lint
    (reply warm lint);
  Alcotest.(check string) "testgen verdict byte-identical warm" cold_testgen
    (reply warm testgen);
  (match Session.persist_totals warm with
  | None -> Alcotest.fail "warm session has a store"
  | Some t -> Alcotest.(check int) "both answered from the store" 2 t.Session.hits);
  let stored spec ~kind ~key =
    List.find_map
      (fun r ->
        if String.equal r.Persist.Store.kind kind
           && String.equal r.Persist.Store.key key
        then Some r.Persist.Store.value
        else None)
      (Persist.Store.load store2 ~digest:(Spec_digest.spec spec))
  in
  Alcotest.(check (option string))
    "the lint record"
    (Some
       "lint LeakyQueue findings=4\n\
        ADT001 missing-case error LeakyQueue, op POP: no axiom covers \
        boundary case POP(NEWQ); Please supply an axiom defining POP(NEWQ) = \
        ? (boundary condition: easy to overlook!) [result sort LeakyQueue] \
        (suggest: stub with POP(NEWQ) = error and refine)\n\
        ADT001 missing-case error LeakyQueue, op PEEK: no axiom covers \
        boundary case PEEK(NEWQ); Please supply an axiom defining PEEK(NEWQ) \
        = ? (boundary condition: easy to overlook!) [result sort Elem] \
        (suggest: stub with PEEK(NEWQ) = error and refine)\n\
        ADT020 sufficient-completeness error LeakyQueue, op POP: the ground \
        constructor context POP(NEWQ) is matched by no executable axiom: the \
        specification is not sufficiently complete (suggest: add an axiom \
        with left-hand side POP(NEWQ))\n\
        ADT020 sufficient-completeness error LeakyQueue, op PEEK: the ground \
        constructor context PEEK(NEWQ) is matched by no executable axiom: \
        the specification is not sufficiently complete (suggest: add an \
        axiom with left-hand side PEEK(NEWQ))")
    (stored leaky
       ~kind:(Fmt.str "lint/p%d" Analysis.Lint.pass_version)
       ~key:"LeakyQueue");
  Alcotest.(check (option string))
    "the testgen record"
    (Some
       "testgen Queue impl=mutant-lifo-front seed=414243 count=40 size=7 \
        failures=1 axioms=6\n\
        axiom 1 pass trials=1\n\
        axiom 2 pass trials=40\n\
        axiom 3 pass trials=1\n\
        axiom 4 FAIL seed=414247 at {i -> ITEM2; q -> ADD(NEW, ITEM1)}: left \
        denotes ITEM2 right denotes ITEM1\n\
        axiom 5 pass trials=1\n\
        axiom 6 pass trials=40")
    (stored Adt_specs.Queue_spec.spec ~kind:"testgen"
       ~key:"Queue|mutant-lifo-front|40|414243");
  Persist.Store.close store2

(* testgen resolves SPEC case-insensitively and stores its verdict under
   the implementation's canonical spec name: a lower-case request is
   computed once, every later spelling hits that record, and the record's
   key is the one an exact-case request writes *)
let test_testgen_canonical_key () =
  with_store @@ fun store ->
  let spec = Adt_specs.Queue_spec.spec in
  let session = Session.create ~store [ spec ] in
  let lower = "testgen count=5 queue" and exact = "testgen count=5 Queue" in
  let first = reply session lower in
  List.iter
    (fun line -> Alcotest.(check string) line first (reply session line))
    [ lower; exact; exact ];
  let t = totals session in
  Alcotest.(check int) "persist.hits" 3 t.Session.hits;
  Alcotest.(check int) "persist.misses" 1 t.Session.misses;
  Session.persist_flush session;
  Alcotest.(check (list string))
    "the record's key"
    [ "Queue|two-list|5|414243" ]
    (List.filter_map
       (fun r ->
         if String.equal r.Persist.Store.kind "testgen" then
           Some r.Persist.Store.key
         else None)
       (Persist.Store.load store ~digest:(Spec_digest.spec spec)))

(* client-chosen meta keys are bounded by the cache capacity: a payload
   pushed out by a newer one is recomputed, never served stale *)
let test_meta_bounded () =
  with_store @@ fun store ->
  let session =
    Session.create ~cache_capacity:1 ~store [ Adt_specs.Queue_spec.spec ]
  in
  let g1 =
    "prove Queue q:Queue,i:Item IS_EMPTY?(REMOVE(ADD(q, i))) == IS_EMPTY?(q)"
  and g2 = "prove Queue i:Item FRONT(ADD(NEW, i)) == i" in
  let first = reply session g1 in
  Alcotest.(check bool) "g1 proved" true (contains first "proved");
  Alcotest.(check bool) "g2 proved" true (contains (reply session g2) "proved");
  Alcotest.(check string) "g1 again, recomputed alike" first (reply session g1);
  let t = totals session in
  Alcotest.(check (pair int int)) "hits and misses" (0, 3)
    (t.Session.hits, t.Session.misses)

(* a verdict persisted by an older analysis pass set lives under another
   kind; the current engine must re-analyse, not replay it *)
let pass_version_invalidates ~spec ~stale_kind ~request ~stale ~fresh =
  with_dir @@ fun dir ->
  let name = Spec.name spec in
  let digest = Spec_digest.spec spec in
  let store1 = Persist.Store.open_ dir in
  Persist.Store.append store1 ~digest [ record stale_kind name stale ];
  Persist.Store.close store1;
  let store2 = Persist.Store.open_ dir in
  let session = Session.create ~store:store2 [ spec ] in
  let r = reply session request in
  Alcotest.(check bool) "stale verdict not served" false (contains r stale);
  Alcotest.(check bool) "re-analysed" true (contains r fresh);
  (match Session.persist_totals session with
  | None -> Alcotest.fail "session has a store"
  | Some t ->
    Alcotest.(check int) "no hit from the old pass version" 0 t.Session.hits;
    Alcotest.(check bool) "the stale record is a counted miss" true
      (t.Session.misses > 0));
  Session.persist_flush session;
  Persist.Store.close store2;
  (* the fresh verdict persisted under the current pass kind serves warm *)
  let store3 = Persist.Store.open_ dir in
  let warm = Session.create ~store:store3 [ spec ] in
  Alcotest.(check string) "current kind serves warm" r (reply warm request);
  (match Session.persist_totals warm with
  | None -> Alcotest.fail "warm session has a store"
  | Some t -> Alcotest.(check int) "warm hit" 1 t.Session.hits);
  Persist.Store.close store3

let test_lint_pass_version_invalidates () =
  pass_version_invalidates ~spec:Adt_specs.Queue_spec.spec
    ~stale_kind:(Fmt.str "lint/p%d" (Analysis.Lint.pass_version - 1))
    ~request:"lint Queue" ~stale:"lint Queue findings=999"
    ~fresh:"findings=0";
  (* the check verb's verdict before it was versioned: the old decider
     counted the non-executable [seed] as covering SEED *)
  let counter =
    match
      Parser.parse_spec
        {|spec Counter
  sort Counter
  ops
    ZERO : -> Counter
    INC : Counter -> Counter
    SEED : -> Counter
  constructors ZERO INC
  vars
    c : Counter
  axioms
    [seed] SEED = INC(c)
end|}
    with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "parse: %a" Parser.pp_error e
  in
  pass_version_invalidates ~spec:counter ~stale_kind:"check"
    ~request:"check Counter"
    ~stale:"check Counter complete=true consistent=true missing=0 \
            critical_pairs=0"
    ~fresh:"complete=false";
  (* and a check verdict persisted by the previous pass version *)
  pass_version_invalidates ~spec:Adt_specs.Queue_spec.spec
    ~stale_kind:(Fmt.str "check/p%d" (Analysis.Lint.pass_version - 1))
    ~request:"check Queue"
    ~stale:"check Queue complete=false consistent=false missing=9 \
            critical_pairs=9"
    ~fresh:"complete=true consistent=true missing=0 critical_pairs=0"

let suite =
  [
    Alcotest.test_case "entry round trip" `Quick test_roundtrip;
    Alcotest.test_case "merge replaces same (kind,key)" `Quick test_merge_replaces;
    Alcotest.test_case "digest validation" `Quick test_bad_digest_rejected;
    Alcotest.test_case "truncated entry is a counted miss" `Quick test_truncated;
    Alcotest.test_case "bit flip is a counted miss" `Quick test_bit_flip;
    Alcotest.test_case "foreign magic is a counted miss" `Quick test_wrong_magic;
    Alcotest.test_case "version bump is a counted miss" `Quick test_version_bump;
    Alcotest.test_case "renamed entry is a counted miss" `Quick
      test_wrong_digest_claim;
    Alcotest.test_case "second open falls back to read-only" `Quick
      test_second_open_read_only;
    Alcotest.test_case "gc enforces the byte bound oldest-first" `Quick
      test_gc_bound;
    Alcotest.test_case "clear empties the store" `Quick test_clear;
    Alcotest.test_case "differential: cold and warm match uncached" `Quick
      test_differential_cold_warm;
    Alcotest.test_case "differential: an edit never sees stale entries" `Quick
      test_differential_post_edit;
    Alcotest.test_case "proved goals persist; unknown never does" `Quick
      test_proof_persists_warm;
    Alcotest.test_case "a lint pass-version bump invalidates cached verdicts"
      `Quick test_lint_pass_version_invalidates;
    Alcotest.test_case "framed lint and testgen replies survive a restart"
      `Quick test_framed_payloads_persist;
    Alcotest.test_case "an append writes exactly one frame" `Quick
      test_append_one_frame;
    Alcotest.test_case "a torn frame serves the prefix and is cut" `Quick
      test_torn_second_frame;
    Alcotest.test_case "a flip in a later frame keeps the earlier" `Quick
      test_flip_in_second_frame;
    Alcotest.test_case "a version-1 entry is a counted miss" `Quick
      test_version_1_entry;
    Alcotest.test_case "dead records outnumbering live compact" `Quick
      test_compaction;
    Alcotest.test_case "an append after clear recreates the entry" `Quick
      test_append_after_clear;
    Alcotest.test_case "loaded records hit after a major collection" `Quick
      test_warm_hit_after_major_gc;
    Alcotest.test_case "a record claiming another's hash is never served"
      `Quick test_forced_collision;
    Alcotest.test_case "two records in one hash bucket are each served"
      `Quick test_real_collision;
    Alcotest.test_case "a corrupt record is counted on first probe" `Quick
      test_lazy_corruption;
    Alcotest.test_case "a store adds no live words per distinct request"
      `Quick test_live_words_bounded;
    Alcotest.test_case "a memoized repeat appends no record" `Quick
      test_memoized_repeat_files_nothing;
    Alcotest.test_case "stored payloads are bounded by the cache capacity"
      `Quick test_meta_bounded;
    Alcotest.test_case "testgen verdicts are stored under the canonical name"
      `Quick test_testgen_canonical_key;
  ]
