type t = { by_name : (string * Spec.t) list (* newest first *) }

let empty = { by_name = [] }
let builtin = empty

let add spec t =
  let name = Spec.name spec in
  { by_name = (name, spec) :: List.remove_assoc name t.by_name }

let add_all specs t = List.fold_left (fun t s -> add s t) t specs
let find name t = List.assoc_opt name t.by_name
let mem name t = List.mem_assoc name t.by_name
let names t = List.rev_map fst t.by_name
let specs t = List.rev_map snd t.by_name
let to_env t name = find name t

let load_source t source =
  match Parser.parse_specs ~env:(to_env t) source with
  | Error _ as e -> e
  | Ok specs -> Ok (add_all specs t)
