(* Digest stability under meaning-preserving edits, the invalidation
   cone of a one-axiom edit, and the document manager's reuse
   accounting: what gets re-checked is exactly the cone, and what is
   carried over matches what a from-scratch check would have said. *)

open Adt

let parse source =
  match Parser.parse_spec source with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "test source: %a" Parser.pp_error e

let item_prelude =
  {|spec Item
  sort Item
  ops
    ITEM1 : -> Item
    ITEM2 : -> Item
    ITEM3 : -> Item
  constructors ITEM1 ITEM2 ITEM3
end

|}

let queue_body ~axiom4 ~extra_op =
  item_prelude
  ^ Fmt.str
      {|spec Queue
  uses Item
  sort Queue
  ops
    NEW : -> Queue
    ADD : Queue Item -> Queue
    FRONT : Queue -> Item
    REMOVE : Queue -> Queue
    IS_EMPTY? : Queue -> Bool%s
  constructors NEW ADD
  vars
    q : Queue
    i : Item
  axioms
    [1] IS_EMPTY?(NEW) = true
    [2] IS_EMPTY?(ADD(q, i)) = false
    [3] FRONT(NEW) = error
    [4] %s
    [5] REMOVE(NEW) = error
    [6] REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW else ADD(REMOVE(q), i)
end|}
      extra_op axiom4

let base =
  queue_body ~axiom4:"FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)"
    ~extra_op:""

(* same elaborated content: comments, whitespace, relabelled axioms *)
let cosmetic =
  item_prelude
  ^ {|-- a queue, reformatted beyond recognition
spec Queue
  uses Item
  sort Queue
  ops
    NEW : -> Queue
    ADD :   Queue Item -> Queue
    FRONT : Queue -> Item
    REMOVE : Queue   -> Queue
    IS_EMPTY? : Queue -> Bool
  constructors NEW ADD
  vars
    q : Queue
    i : Item
  axioms
    -- emptiness
    [10] IS_EMPTY?(NEW) = true
    [20] IS_EMPTY?(ADD(q,i)) = false
    -- observation
    [30] FRONT(NEW) = error
    [40] FRONT(ADD(q,   i)) = if IS_EMPTY?(q) then i else FRONT(q)
    [50] REMOVE(NEW) = error
    [60] REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW else ADD(REMOVE(q), i)
end|}

(* one semantic edit: FRONT now reads the newest item *)
let edited = queue_body ~axiom4:"FRONT(ADD(q, i)) = i" ~extra_op:""

(* a declaration change re-types the world *)
let widened =
  queue_body ~axiom4:"FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)"
    ~extra_op:"\n    BACK : Queue -> Item"

(* {1 Content digests} *)

let test_digest_stability () =
  let a = parse base and b = parse cosmetic in
  Alcotest.(check string) "spec digest survives cosmetic edits"
    (Spec_digest.spec a) (Spec_digest.spec b);
  Alcotest.(check string) "signature digest too"
    (Spec_digest.signature_digest a)
    (Spec_digest.signature_digest b);
  Alcotest.(check (list string)) "per-axiom digests align despite relabelling"
    (List.map snd (Spec_digest.axioms a))
    (List.map snd (Spec_digest.axioms b))

let test_digest_sensitivity () =
  let a = parse base and e = parse edited and w = parse widened in
  Alcotest.(check bool) "an axiom edit moves the spec digest" false
    (String.equal (Spec_digest.spec a) (Spec_digest.spec e));
  Alcotest.(check string) "but not the signature digest"
    (Spec_digest.signature_digest a)
    (Spec_digest.signature_digest e);
  Alcotest.(check bool) "a declaration moves the signature digest" false
    (String.equal
       (Spec_digest.signature_digest a)
       (Spec_digest.signature_digest w))

(* {1 The diff and its cone} *)

let test_diff_self () =
  let a = parse base in
  let d = Spec_diff.diff ~old_spec:a ~spec:(parse cosmetic) in
  Alcotest.(check bool) "cosmetic edit elaborates unchanged" true
    (Spec_diff.is_unchanged d)

let test_diff_one_axiom () =
  let a = parse base and e = parse edited in
  let d = Spec_diff.diff ~old_spec:a ~spec:e in
  Alcotest.(check bool) "no signature change" false d.Spec_diff.signature_changed;
  Alcotest.(check int) "one equation added" 1 (List.length d.Spec_diff.added);
  Alcotest.(check int) "one equation removed" 1 (List.length d.Spec_diff.removed);
  let dirty = Spec_diff.dirty_ops ~spec:e d in
  Alcotest.(check (list string)) "only FRONT is dirty" [ "FRONT" ]
    (List.map Op.name (Op.Set.elements dirty) |> List.sort String.compare);
  (* the cone is every axiom mentioning FRONT: [3] and the edited [4] *)
  let cone = Spec_diff.cone ~spec:e d in
  Alcotest.(check int) "two axioms in the cone" 2 (List.length cone)

let test_diff_signature_change () =
  let a = parse base and w = parse widened in
  let d = Spec_diff.diff ~old_spec:a ~spec:w in
  Alcotest.(check bool) "signature changed" true d.Spec_diff.signature_changed;
  Alcotest.(check int) "everything is dirty"
    (List.length (Signature.ops (Spec.signature w)))
    (Op.Set.cardinal (Spec_diff.dirty_ops ~spec:w d));
  Alcotest.(check int) "the cone is every axiom"
    (List.length (Spec.axioms w))
    (List.length (Spec_diff.cone ~spec:w d))

(* {1 The document manager} *)

let open_exn mgr ~name ~source =
  match Docsession.Manager.open_doc mgr ~name ~source with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "open %s: %s" name e

let edit_exn mgr ~name ~source =
  match Docsession.Manager.edit mgr ~name ~source with
  | Ok doc -> doc
  | Error (_, e) -> Alcotest.failf "edit %s: %s" name e

let verdicts doc =
  List.map
    (fun (o : Docsession.Manager.oblig) ->
      (o.axiom_digest, Docsession.Manager.status_name o.status))
    doc.Docsession.Manager.obligations

let test_open_checks_everything () =
  let mgr = Docsession.Manager.create () in
  let doc = open_exn mgr ~name:"q" ~source:base in
  let s = doc.Docsession.Manager.summary in
  Alcotest.(check int) "version 1" 1 s.Docsession.Manager.version;
  Alcotest.(check int) "six axioms" 6 s.Docsession.Manager.axioms;
  Alcotest.(check int) "all checked" 6 s.Docsession.Manager.checked;
  Alcotest.(check int) "none reused" 0 s.Docsession.Manager.reused;
  Alcotest.(check bool) "no obligation claims reuse" false
    (List.exists
       (fun (o : Docsession.Manager.oblig) -> o.reused)
       doc.Docsession.Manager.obligations);
  Alcotest.(check string) "digest is the content digest"
    (Spec_digest.spec (parse base))
    doc.Docsession.Manager.digest

let test_cosmetic_edit_reuses_everything () =
  let mgr = Docsession.Manager.create () in
  let v1 = open_exn mgr ~name:"q" ~source:base in
  let v2 = edit_exn mgr ~name:"q" ~source:cosmetic in
  let s = v2.Docsession.Manager.summary in
  Alcotest.(check int) "version 2" 2 s.Docsession.Manager.version;
  Alcotest.(check int) "nothing changed" 0 s.Docsession.Manager.changed;
  Alcotest.(check int) "empty cone" 0 s.Docsession.Manager.cone;
  Alcotest.(check int) "nothing re-checked" 0 s.Docsession.Manager.checked;
  Alcotest.(check int) "all six carried over" 6 s.Docsession.Manager.reused;
  Alcotest.(check string) "digest unchanged" v1.Docsession.Manager.digest
    v2.Docsession.Manager.digest;
  Alcotest.(check (list (pair string string))) "verdicts carried verbatim"
    (verdicts v1) (verdicts v2)

let test_one_axiom_edit_rechecks_cone_only () =
  let mgr = Docsession.Manager.create () in
  let (_ : Docsession.Manager.doc) = open_exn mgr ~name:"q" ~source:base in
  let v2 = edit_exn mgr ~name:"q" ~source:edited in
  let s = v2.Docsession.Manager.summary in
  Alcotest.(check int) "one removal plus one addition" 2
    s.Docsession.Manager.changed;
  Alcotest.(check int) "the FRONT cone" 2 s.Docsession.Manager.cone;
  Alcotest.(check int) "only the cone re-checked" 2 s.Docsession.Manager.checked;
  Alcotest.(check bool) "strictly fewer than a full recheck" true
    (s.Docsession.Manager.checked < s.Docsession.Manager.axioms);
  Alcotest.(check int) "the rest carried over" 4 s.Docsession.Manager.reused;
  (* the re-checked obligations are exactly the diff's cone *)
  let cone_digests =
    Spec_diff.cone ~spec:(parse edited)
      (Spec_diff.diff ~old_spec:(parse base) ~spec:(parse edited))
    |> List.map Spec_digest.axiom
    |> List.sort String.compare
  in
  let rechecked =
    List.filter_map
      (fun (o : Docsession.Manager.oblig) ->
        if o.reused then None else Some o.axiom_digest)
      v2.Docsession.Manager.obligations
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "re-checked = cone" cone_digests rechecked;
  (* soundness: the incremental verdicts equal a from-scratch check *)
  let fresh =
    open_exn (Docsession.Manager.create ()) ~name:"q" ~source:edited
  in
  Alcotest.(check (list (pair string string)))
    "incremental verdicts = full recheck" (verdicts fresh) (verdicts v2)

let test_signature_edit_rechecks_everything () =
  let mgr = Docsession.Manager.create () in
  let (_ : Docsession.Manager.doc) = open_exn mgr ~name:"q" ~source:base in
  let v2 = edit_exn mgr ~name:"q" ~source:widened in
  let s = v2.Docsession.Manager.summary in
  Alcotest.(check bool) "flagged" true s.Docsession.Manager.sig_changed;
  Alcotest.(check int) "nothing reused" 0 s.Docsession.Manager.reused;
  Alcotest.(check int) "full recheck" s.Docsession.Manager.axioms
    s.Docsession.Manager.checked

let test_manager_errors () =
  let mgr = Docsession.Manager.create () in
  (match Docsession.Manager.edit mgr ~name:"ghost" ~source:base with
  | Error (Docsession.Manager.Not_open, _) -> ()
  | _ -> Alcotest.fail "edit of an unopened document not refused as such");
  (match Docsession.Manager.open_doc mgr ~name:"bad" ~source:"spec Broken" with
  | Ok _ -> Alcotest.fail "parse error not reported"
  | Error _ -> ());
  Alcotest.(check (list string)) "a failed open leaves no document" []
    (Docsession.Manager.names mgr)

let test_status_and_names () =
  let mgr = Docsession.Manager.create () in
  let (_ : Docsession.Manager.doc) = open_exn mgr ~name:"b" ~source:base in
  let (_ : Docsession.Manager.doc) = open_exn mgr ~name:"a" ~source:base in
  Alcotest.(check (list string)) "names sorted" [ "a"; "b" ]
    (Docsession.Manager.names mgr);
  (match Docsession.Manager.status mgr ~name:"a" with
  | Some doc ->
    Alcotest.(check int) "status returns the live version" 1
      doc.Docsession.Manager.version
  | None -> Alcotest.fail "opened document has status");
  Alcotest.(check bool) "unknown name has none" true
    (Docsession.Manager.status mgr ~name:"zzz" = None)

let suite =
  [
    Alcotest.test_case "digests survive cosmetic edits" `Quick
      test_digest_stability;
    Alcotest.test_case "digests track semantic edits" `Quick
      test_digest_sensitivity;
    Alcotest.test_case "cosmetic diff is empty" `Quick test_diff_self;
    Alcotest.test_case "one-axiom diff dirties only its cone" `Quick
      test_diff_one_axiom;
    Alcotest.test_case "signature diff dirties everything" `Quick
      test_diff_signature_change;
    Alcotest.test_case "open checks every obligation" `Quick
      test_open_checks_everything;
    Alcotest.test_case "cosmetic edit reuses everything" `Quick
      test_cosmetic_edit_reuses_everything;
    Alcotest.test_case "one-axiom edit rechecks the cone only" `Quick
      test_one_axiom_edit_rechecks_cone_only;
    Alcotest.test_case "signature edit rechecks everything" `Quick
      test_signature_edit_rechecks_everything;
    Alcotest.test_case "manager errors" `Quick test_manager_errors;
    Alcotest.test_case "status and names" `Quick test_status_and_names;
  ]
