type kind = Boundary | General

type prompt = {
  op : Op.t;
  missing_lhs : Term.t;
  kind : kind;
  question : string;
  suggested_rhs : Term.t option;
}

(* A pattern is a boundary case when every constructor application in it is
   a constant (e.g. FRONT(NEW)); such cases are the ones the paper notes are
   "particularly likely to be overlooked". *)
let classify spec pattern =
  let has_ctor = ref false in
  let constant_ctors_only =
    Term.fold
      (fun acc t ->
        acc
        &&
        match Term.view t with
        | Term.App (op, args) when Spec.is_constructor op spec ->
          has_ctor := true;
          args = []
        | _ -> true)
      true pattern
  in
  (* a pattern with no constructor at all (a fully general case) is not a
     boundary condition — only constant-constructor cases like FRONT(NEW) *)
  if !has_ctor && constant_ctors_only then Boundary else General

(* a hole that is the operation applied to variables alone means no
   axiom discriminates yet: prompt for one split of the first
   constructor-bearing argument, the cases a complete axiomatisation
   must cover *)
let split spec pattern =
  match Term.view pattern with
  | Term.App (_, args)
    when List.for_all
           (fun a -> match Term.view a with Term.Var _ -> true | _ -> false)
           args -> (
    let rec first i = function
      | [] -> None
      | a :: rest ->
        let sort = Term.sort_of a in
        if Spec.has_constructors sort spec then Some (i, sort)
        else first (i + 1) rest
    in
    match first 0 args with
    | None -> [ pattern ]
    | Some (i, sort) ->
      (* the replaced variable's name is free for the new arguments *)
      let avoid =
        List.concat (List.filteri (fun j _ -> j <> i) (List.map Term.vars args))
      in
      List.filter_map
        (fun ctor ->
          let taken = ref avoid in
          let fresh s =
            let name =
              Term.fresh_wrt ~avoid:!taken (String.lowercase_ascii (Sort.name s)) s
            in
            taken := (name, s) :: !taken;
            Term.var name s
          in
          Term.replace_at pattern [ i ]
            (Term.app ctor (List.map fresh (Op.args ctor))))
        (Spec.constructors_of_sort sort spec))
  | _ -> [ pattern ]

let forced_rhs spec pattern =
  (* When the result sort has exactly one constant constructor and no other
     constructor, there is only one non-error value to suggest. *)
  let sort = Term.sort_of pattern in
  match Spec.constructors_of_sort sort spec with
  | [ op ] when Op.is_constant op -> Some (Term.const op)
  | _ -> None

let question op pattern kind =
  let flavour =
    match kind with
    | Boundary -> " (boundary condition: easy to overlook!)"
    | General -> ""
  in
  Fmt.str "Please supply an axiom defining %s = ?%s" (Term.to_string pattern)
    flavour
  ^ Fmt.str " [result sort %s]" (Sort.name (Op.result op))

let prompts ?holes spec =
  let holes =
    match holes with Some h -> h | None -> Completeness.holes spec
  in
  let all =
    List.concat_map
      (fun (h : Completeness.hole) ->
        List.map
          (fun lhs ->
            let kind = classify spec lhs in
            {
              op = h.op;
              missing_lhs = lhs;
              kind;
              question = question h.op lhs kind;
              suggested_rhs = forced_rhs spec lhs;
            })
          (split spec h.pattern))
      holes
  in
  let boundary, general =
    List.partition (fun p -> p.kind = Boundary) all
  in
  boundary @ general

let stub_axioms ?(prefix = "stub") spec =
  List.mapi
    (fun i p ->
      let rhs =
        match p.suggested_rhs with
        | Some t -> t
        | None -> Term.err (Term.sort_of p.missing_lhs)
      in
      Axiom.v ~name:(Fmt.str "%s_%d" prefix (i + 1)) ~lhs:p.missing_lhs ~rhs ())
    (prompts spec)

let complete_with_stubs spec = Spec.with_axioms (stub_axioms spec) spec

let pp_prompt ppf p =
  let kind = match p.kind with Boundary -> "boundary" | General -> "general" in
  match p.suggested_rhs with
  | None -> Fmt.pf ppf "@[<h>[%s] %s@]" kind p.question
  | Some rhs ->
    Fmt.pf ppf "@[<h>[%s] %s (suggestion: %a)@]" kind p.question Term.pp rhs
