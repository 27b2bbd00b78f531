(* JSON is assembled by hand: the findings are flat records and pulling in a
   JSON library for them would be the only use in the whole repository. *)

let json_string s =
  let b = Buffer.create (String.length s + 10) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jopt = function None -> "null" | Some s -> json_string s

let flatten groups =
  List.concat_map
    (fun (file, diags) -> List.map (fun d -> (file, d)) diags)
    groups

let severity_counts diags =
  let count s =
    List.length (List.filter (fun d -> d.Diagnostic.severity = s) diags)
  in
  (count Diagnostic.Error, count Diagnostic.Warning, count Diagnostic.Info)

let text groups =
  let pairs = flatten groups in
  let lines =
    List.map
      (fun (file, d) -> Printf.sprintf "%s: %s" file (Diagnostic.to_line d))
      pairs
  in
  let errors, warnings, infos = severity_counts (List.map snd pairs) in
  let summary =
    Printf.sprintf "%d finding%s (%d error%s, %d warning%s, %d info)"
      (List.length pairs)
      (if List.length pairs = 1 then "" else "s")
      errors
      (if errors = 1 then "" else "s")
      warnings
      (if warnings = 1 then "" else "s")
      infos
  in
  String.concat "\n" (lines @ [ summary ])

let json_of_finding file (d : Diagnostic.t) =
  Printf.sprintf
    "{\"file\":%s,\"code\":%s,\"slug\":%s,\"severity\":%s,\"spec\":%s,\"op\":%s,\"axiom\":%s,\"message\":%s,\"suggestion\":%s}"
    (json_string file) (json_string d.code)
    (json_string (Diagnostic.slug_of_code d.code))
    (json_string (Diagnostic.severity_name d.severity))
    (json_string d.locus.Diagnostic.spec)
    (jopt d.locus.Diagnostic.op)
    (jopt d.locus.Diagnostic.axiom)
    (json_string d.message) (jopt d.suggestion)

let json_lines groups =
  String.concat "\n"
    (List.map (fun (file, d) -> json_of_finding file d) (flatten groups))

let sarif_level = function
  | Diagnostic.Error -> "error"
  | Diagnostic.Warning -> "warning"
  | Diagnostic.Info -> "note"

let sarif_rule (r : Diagnostic.rule_info) =
  Printf.sprintf
    "{\"id\":%s,\"name\":%s,\"shortDescription\":{\"text\":%s},\"defaultConfiguration\":{\"level\":%s}}"
    (json_string r.rule_code) (json_string r.slug) (json_string r.summary)
    (json_string (sarif_level r.default_severity))

let sarif_result file (d : Diagnostic.t) =
  let logical =
    match d.locus.Diagnostic.op with
    | None -> ""
    | Some op ->
      Printf.sprintf ",\"logicalLocations\":[{\"name\":%s,\"kind\":\"function\"}]"
        (json_string op)
  in
  let message =
    match d.suggestion with
    | None -> d.message
    | Some s -> d.message ^ " (suggest: " ^ s ^ ")"
  in
  Printf.sprintf
    "{\"ruleId\":%s,\"level\":%s,\"message\":{\"text\":%s},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":%s}}%s}]}"
    (json_string d.code)
    (json_string (sarif_level d.severity))
    (json_string message) (json_string file) logical

let sarif groups =
  let rules = String.concat "," (List.map sarif_rule Diagnostic.rules) in
  let results =
    String.concat ","
      (List.map (fun (file, d) -> sarif_result file d) (flatten groups))
  in
  Printf.sprintf
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"adtc lint\",\"informationUri\":\"https://dl.acm.org/doi/10.1145/359605.359618\",\"rules\":[%s]}},\"results\":[%s]}]}"
    rules results
