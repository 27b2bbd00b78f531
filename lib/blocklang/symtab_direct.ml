type scope = {
  bindings : (string * Adt.Term.t) list; (* newest first *)
  knows : string list option; (* None: inherit everything *)
}

(* innermost scope first; never empty *)
type t = scope list

let backend_name = "direct"
let supports_knows = true
let create ~ids:_ = [ { bindings = []; knows = None } ]
let enterblock ?knows scopes = { bindings = []; knows } :: scopes

let leaveblock = function [] | [ _ ] -> None | _ :: rest -> Some rest

let add scopes id attrs =
  match scopes with
  | [] -> assert false
  | top :: rest -> { top with bindings = (id, attrs) :: top.bindings } :: rest

let is_inblock scopes id =
  match scopes with
  | [] -> assert false
  | top :: _ -> List.mem_assoc id top.bindings

let rec retrieve scopes id =
  match scopes with
  | [] -> None
  | top :: rest -> (
    match List.assoc_opt id top.bindings with
    | Some attrs -> Some attrs
    | None -> (
      match top.knows with
      | None -> retrieve rest id
      | Some k -> if List.mem id k then retrieve rest id else None))
