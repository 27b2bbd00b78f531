(* One sufficient-completeness decider, read by every surface: the check
   verb, the verification line of [adtc check], the skeletons verb, the
   ADT001 and ADT020 lint rules, and the stubs of [Heuristics]. Over the
   corpus, every shipped .adt file and every variant with one named axiom
   dropped, the surfaces must agree with [Completeness.holes] and with
   each other, and the stubs they propose must be left-linear and must
   not make the specification inconsistent.

   Likewise one termination, confluence and consistency analysis: over the
   same pool, the check verb's [consistent=] and [critical_pairs=], the
   verification line of [adtc check], and the ADT002 errors, ADT021 and
   ADT022 of a lint run must agree with one [Verify.summarize] of the spec
   at the same (default) fuel. *)

open Adt
open Analysis

let contains = Astring_contains.contains

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune runtest runs from _build/default/test; a direct dune exec runs
   from the repo root *)
let specs_dir =
  Option.value ~default:"../specs"
    (List.find_opt Sys.file_exists [ "../specs"; "specs" ])

let adt_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".adt")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* every specification of specs/*.adt and specs/faulty/*.adt; the files
   that build on the base types resolve their [uses] against them *)
let shipped_specs () =
  let parse env path =
    match Parser.parse_specs ~env (read_file path) with
    | Ok specs -> specs
    | Error e -> Alcotest.failf "%s: %a" path Parser.pp_error e
  in
  let base =
    match
      Library.load_source Library.builtin
        (read_file (Filename.concat specs_dir "base_types.adt"))
    with
    | Ok lib -> lib
    | Error e -> Alcotest.failf "base_types.adt: %a" Parser.pp_error e
  in
  List.concat_map
    (parse (Library.to_env base))
    (adt_files specs_dir @ adt_files (Filename.concat specs_dir "faulty"))

(* (label, the spec a variant was cut from, the variant); a shipped spec
   is its own source *)
let pool () =
  let base = Adt_specs.Corpus.all @ shipped_specs () in
  List.map (fun s -> (Spec.name s, s, s)) base
  @ List.concat_map
      (fun spec ->
        List.filter_map
          (fun ax ->
            match Axiom.name ax with
            | "" -> None
            | name ->
              Some
                ( Fmt.str "%s without [%s]" (Spec.name spec) name,
                  spec,
                  Spec.without_axiom name spec ))
          (Spec.axioms spec))
      base

let reply session line =
  match Engine.Dispatch.handle_line session line with
  | Engine.Dispatch.Reply r -> r
  | Engine.Dispatch.Silent | Engine.Dispatch.Closed _ ->
    Alcotest.failf "no reply for %S" line

let field reply key =
  let prefix = key ^ "=" in
  match
    List.find_opt
      (fun w -> String.starts_with ~prefix w)
      (String.split_on_char ' ' reply)
  with
  | Some w ->
    let v = String.sub w (String.length prefix) (String.length w - String.length prefix) in
    (* the skeletons verb ends its count with a colon before the list *)
    if String.ends_with ~suffix:":" v then String.sub v 0 (String.length v - 1)
    else v
  | None -> Alcotest.failf "no %s= in %S" key reply

let ops_with code diags =
  List.sort_uniq compare
    (List.filter_map
       (fun d ->
         if String.equal d.Diagnostic.code code then d.Diagnostic.locus.op
         else None)
       diags)

let left_linear spec =
  List.for_all Axiom.is_left_linear
    (List.filter Axiom.is_executable (Spec.axioms spec))

let inconsistencies spec =
  List.length
    (List.filter
       (fun d -> d.Diagnostic.severity = Diagnostic.Error)
       (Verify.adt002 (Verify.analyze spec)))

(* a source spec is analysed once, not once per variant cut from it *)
let source_inconsistencies =
  let seen = ref [] in
  fun spec ->
    match List.assq_opt spec !seen with
    | Some n -> n
    | None ->
      let n = inconsistencies spec in
      seen := (spec, n) :: !seen;
      n

let check_variant (label, source, spec) =
  let name = Spec.name spec in
  let what fmt = Fmt.kstr (fun s -> Fmt.str "%s: %s" label s) fmt in
  let holes = Completeness.holes spec in
  let session = Engine.Session.create [ spec ] in
  let check = reply session ("check " ^ name) in
  let skeletons = reply session ("skeletons " ^ name) in
  let complete = bool_of_string (field check "complete") in
  (* the completeness verdict of the line does not depend on the
     joinability fuel; a token budget keeps the confluence half cheap *)
  let verify_line =
    Fmt.str "%a" Verify.pp_summary (Verify.summarize ~fuel:1 spec)
  in
  Alcotest.(check bool) (what "complete= iff no hole") (holes = []) complete;
  Alcotest.(check bool)
    (what "complete= iff the verify line says so")
    (contains verify_line ": sufficiently complete;")
    complete;
  Alcotest.(check string)
    (what "missing= is the skeletons count")
    (field skeletons "missing") (field check "missing");
  let lint = Lint.run ~config:{ Lint.only = Some [ "ADT001"; "ADT020" ]; fuel = None } spec in
  Alcotest.(check (list string))
    (what "ADT001 and ADT020 name the same ops")
    (ops_with "ADT020" lint) (ops_with "ADT001" lint);
  let stubs = Heuristics.stub_axioms spec in
  List.iter
    (fun ax ->
      Alcotest.(check bool)
        (what "stub %a is left-linear" Axiom.pp ax)
        true (Axiom.is_left_linear ax))
    stubs;
  if stubs <> [] then begin
    let stubbed = Heuristics.complete_with_stubs spec in
    (* a stub never redefines a case the spec already defines, so it
       cannot contradict an axiom of its own operation. An [= error]
       placeholder can still meet an axiom that observes through the
       operation, as Toggle's seeded [flip_lit] observes LIT?(FLIP(t));
       the stubbed variant is then no more inconsistent than the spec it
       was cut from *)
    Alcotest.(check bool)
      (what "stubs add no ADT002 error")
      true
      (inconsistencies stubbed <= source_inconsistencies source);
    if left_linear spec then
      Alcotest.(check (list string))
        (what "stubs leave no ADT001 or ADT020")
        []
        (List.map Diagnostic.to_line
           (Lint.run
              ~config:{ Lint.only = Some [ "ADT001"; "ADT020" ]; fuel = None }
              stubbed))
  end

let codes_of code severity diags =
  List.filter
    (fun d ->
      String.equal d.Diagnostic.code code
      && (match severity with None -> true | Some s -> d.Diagnostic.severity = s))
    diags

let check_analysis (label, _, spec) =
  let what fmt = Fmt.kstr (fun s -> Fmt.str "%s: %s" label s) fmt in
  let s = Verify.summarize spec in
  let a = s.Verify.s_analysis in
  let check = reply (Engine.Session.create [ spec ]) ("check " ^ Spec.name spec) in
  Alcotest.(check bool) (what "consistent= is the summary's")
    s.Verify.s_consistent (bool_of_string (field check "consistent"));
  Alcotest.(check int) (what "critical_pairs= is the summary's")
    (Verify.critical_pairs s) (int_of_string (field check "critical_pairs"));
  let lint =
    Lint.run
      ~config:{ Lint.only = Some [ "ADT002"; "ADT021"; "ADT022" ]; fuel = None }
      spec
  in
  let line = Fmt.str "%a" Verify.pp_summary s in
  let unoriented = List.map Axiom.name a.Verify.search.Ordering.unoriented in
  Alcotest.(check (list string)) (what "ADT021 names the unoriented axioms")
    unoriented
    (List.map
       (fun d -> Option.value ~default:"" d.Diagnostic.locus.axiom)
       (codes_of "ADT021" None lint));
  Alcotest.(check bool) (what "the verify line says terminating iff no ADT021")
    (unoriented = [])
    (contains line "; terminating (recursive path ordering);");
  let refuted = a.Verify.status = Verify.Not_locally_confluent in
  Alcotest.(check bool) (what "ADT022 error iff not locally confluent")
    refuted (codes_of "ADT022" (Some Diagnostic.Error) lint <> []);
  Alcotest.(check bool) (what "the verify line says NOT locally confluent")
    refuted (contains line "; NOT locally confluent");
  let confluent =
    match a.Verify.status with
    | Verify.Confluent_newman | Verify.Confluent_orthogonal -> true
    | _ -> false
  in
  Alcotest.(check bool) (what "no ADT022 iff confluent")
    confluent (codes_of "ADT022" None lint = []);
  Alcotest.(check bool) (what "the verify line says confluent")
    confluent (contains line "; confluent (");
  Alcotest.(check bool) (what "no ADT002 error iff consistent")
    s.Verify.s_consistent (codes_of "ADT002" (Some Diagnostic.Error) lint = []);
  if not s.Verify.s_consistent then
    Alcotest.(check bool) (what "an inconsistent spec is not confluent")
      true refuted

let variants = lazy (pool ())

let test_surfaces_agree () =
  let variants = Lazy.force variants in
  Alcotest.(check bool) "the pool covers the drop-one variants" true
    (List.length variants > 400);
  List.iter check_variant variants

let test_analysis_agrees () = List.iter check_analysis (Lazy.force variants)

let suite =
  [
    Helpers.case "every surface reads one hole list" test_surfaces_agree;
    Helpers.case "every surface reads one analysis" test_analysis_agrees;
  ]
