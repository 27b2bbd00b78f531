(* The oracle checked against the engine's reference rewriter: on a
   seeded sample of each workload, the hand-written models and
   [Adt.Rewrite.Reference] must print the same value. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let library () =
  List.fold_left
    (fun lib path ->
      match Adt.Library.load_source lib (read_file path) with
      | Ok lib -> lib
      | Error e -> failwith (Fmt.str "%s:%a" path Adt.Parser.pp_error e))
    Adt.Library.builtin Workload.spec_files

let reference_value lib systems line =
  match Engine.Protocol.parse line with
  | Ok (Some (Engine.Protocol.Normalize { spec; term; _ })) -> (
    match Adt.Library.find spec lib with
    | None -> Error ("no specification " ^ spec)
    | Some s -> (
      match Adt.Parser.parse_term s term with
      | Error e -> Error (Fmt.str "%a" Adt.Parser.pp_error e)
      | Ok t -> (
        let sys =
          match Hashtbl.find_opt systems spec with
          | Some sys -> sys
          | None ->
            let sys = Adt.Rewrite.of_spec s in
            Hashtbl.add systems spec sys;
            sys
        in
        match Adt.Rewrite.Reference.normalize_opt sys t with
        | None -> Error "out of fuel"
        | Some nf ->
          Ok
            (Engine.Protocol.sanitize
               (Fmt.str "%a" Adt.Interp.pp_value (Adt.Interp.classify s nf))))))
  | _ -> Error "not a normalize request"

let take n l = List.filteri (fun i _ -> i < n) l

(* [n] requests from each part of the workload: warm-up, preparation and
   the timed stream. *)
let sample w ~seed ~n =
  let plan = Workload.plan w seed in
  take n plan.Workload.warmup
  @ take n plan.Workload.prepare
  @ Workload.draw n plan.Workload.stream

(* The requests on which model and reference disagree, with the
   reference's answer, and the number checked. *)
let check ?(lib = library ()) w ~seed ~n =
  let systems = Hashtbl.create 4 in
  let reqs = sample w ~seed ~n in
  let bad =
    List.filter_map
      (fun (r : Workload.req) ->
        match reference_value lib systems r.line with
        | Ok v when Client.same_value v r.expect -> None
        | Ok v -> Some (r, v)
        | Error e -> Some (r, "reference failed: " ^ e))
      reqs
  in
  (bad, List.length reqs)
