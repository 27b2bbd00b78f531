open Adt

type status = [ `Ok | `Diverged | `Unjoinable ]

let status_name = function
  | `Ok -> "ok"
  | `Diverged -> "diverged"
  | `Unjoinable -> "unjoinable"

type oblig = {
  axiom_name : string;
  axiom_digest : string;
  status : status;
  steps : int;
  findings : int;
  reused : bool;
}

type summary = {
  version : int;
  axioms : int;
  sig_changed : bool;
  changed : int;
  cone : int;
  checked : int;
  reused : int;
}

type doc = {
  name : string;
  version : int;
  source : string;
  spec : Spec.t;
  digest : string;
  obligations : oblig list;
  summary : summary;
}

let summary_line verb doc =
  let s = doc.summary in
  Fmt.str
    "%s %s version=%d axioms=%d sig_changed=%b changed=%d cone=%d checked=%d \
     reused=%d digest=%s"
    verb doc.name s.version s.axioms s.sig_changed s.changed s.cone s.checked
    s.reused doc.digest

let obligation_line o =
  Fmt.str "axiom %s status=%s steps=%d findings=%d source=%s"
    (if String.equal o.axiom_name "" then "-" else o.axiom_name)
    (status_name o.status) o.steps o.findings
    (if o.reused then "reused" else "checked")

type t = {
  env : (string -> Spec.t option) option;
  fuel : int;
  lock : Mutex.t;
  docs : (string, doc) Hashtbl.t;
}

let create ?env ?(fuel = Rewrite.default_fuel) () =
  { env; fuel; lock = Mutex.create (); docs = Hashtbl.create 8 }

(* static findings bucketed by axiom label; findings without an axiom
   locus (per-op, per-spec) do not belong to any one obligation *)
let static_findings spec =
  let table = Hashtbl.create 16 in
  List.iter
    (fun d ->
      match d.Analysis.Diagnostic.locus.Analysis.Diagnostic.axiom with
      | None -> ()
      | Some label ->
        Hashtbl.replace table label
          (1 + Option.value ~default:0 (Hashtbl.find_opt table label)))
    (Analysis.Lint.static spec);
  fun ax ->
    Option.value ~default:0 (Hashtbl.find_opt table (Axiom.name ax))

let nf_count ~fuel sys term =
  match Rewrite.normalize_count ~fuel sys term with
  | nf, steps -> Some (nf, steps)
  | exception Rewrite.Out_of_fuel _ -> None

(* the per-axiom obligation: both sides of the equation reach equal
   normal forms within fuel — its outcome depends only on the rules
   reachable from the ops the axiom mentions, so a cached verdict
   survives any edit outside that reachable set *)
let check_obligation ~fuel sys findings_of ax =
  let status, steps =
    match
      (nf_count ~fuel sys (Axiom.lhs ax), nf_count ~fuel sys (Axiom.rhs ax))
    with
    | Some (l, nl), Some (r, nr) ->
      ((if Term.equal l r then `Ok else `Unjoinable), nl + nr)
    | _ -> (`Diverged, 2 * fuel)
  in
  {
    axiom_name = Axiom.name ax;
    axiom_digest = Spec_digest.axiom ax;
    status;
    steps;
    findings = findings_of ax;
    reused = false;
  }

let parse_last t source =
  match Parser.parse_spec ?env:t.env source with
  | Ok spec -> Ok spec
  | Error e -> Error (Fmt.str "%a" Parser.pp_error e)

let open_doc t ~name ~source =
  match parse_last t source with
  | Error e -> Error e
  | Ok spec ->
    let digest = Spec_digest.spec spec in
    let sys = Rewrite.of_spec spec in
    let findings_of = static_findings spec in
    let obligations =
      List.map (check_obligation ~fuel:t.fuel sys findings_of) (Spec.axioms spec)
    in
    let n = List.length obligations in
    let doc =
      {
        name;
        version = 1;
        source;
        spec;
        digest;
        obligations;
        summary =
          {
            version = 1;
            axioms = n;
            sig_changed = false;
            changed = n;
            cone = n;
            checked = n;
            reused = 0;
          };
      }
    in
    Mutex.protect t.lock (fun () -> Hashtbl.replace t.docs name doc);
    Ok doc

type edit_error = Not_open | Unparsable

let edit t ~name ~source =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.docs name) with
  | None ->
    Error
      ( Not_open,
        Fmt.str "no open document named %s (session-open it first)" name )
  | Some prev -> (
    match parse_last t source with
    | Error e -> Error (Unparsable, e)
    | Ok spec ->
      let digest = Spec_digest.spec spec in
      let d = Spec_diff.diff ~old_spec:prev.spec ~spec in
      let cone = Spec_diff.cone ~spec d in
      let in_cone =
        List.fold_left
          (fun s ax -> Spec_digest.axiom ax :: s)
          [] cone
      in
      let previous = Hashtbl.create 16 in
      List.iter
        (fun o ->
          if not (Hashtbl.mem previous o.axiom_digest) then
            Hashtbl.add previous o.axiom_digest o)
        prev.obligations;
      (* compiled only if some obligation is re-run: a relabel reuses all *)
      let sys = lazy (Rewrite.of_spec spec) in
      let findings_of = static_findings spec in
      let obligations =
        List.map
          (fun ax ->
            let adigest = Spec_digest.axiom ax in
            let reusable =
              (not d.Spec_diff.signature_changed)
              && (not (List.mem adigest in_cone))
              && Hashtbl.mem previous adigest
            in
            if reusable then
              let o = Hashtbl.find previous adigest in
              {
                o with
                axiom_name = Axiom.name ax;
                (* global static rules may move findings without moving
                   the cone: findings are always fresh *)
                findings = findings_of ax;
                reused = true;
              }
            else check_obligation ~fuel:t.fuel (Lazy.force sys) findings_of ax)
          (Spec.axioms spec)
      in
      let total = List.length obligations in
      let reused_n =
        List.length (List.filter (fun (o : oblig) -> o.reused) obligations)
      in
      let version = prev.version + 1 in
      let doc =
        {
          name;
          version;
          source;
          spec;
          digest;
          obligations;
          summary =
            {
              version;
              axioms = total;
              sig_changed = d.Spec_diff.signature_changed;
              changed =
                List.length d.Spec_diff.added + List.length d.Spec_diff.removed;
              cone = List.length cone;
              checked = total - reused_n;
              reused = reused_n;
            };
        }
      in
      Mutex.protect t.lock (fun () -> Hashtbl.replace t.docs name doc);
      Ok doc)

let status t ~name =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.docs name)

let names t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) t.docs []
      |> List.sort String.compare)
