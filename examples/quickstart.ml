(* Quickstart: specify the paper's Queue algebraically, check the
   specification, and run it — with no implementation in sight.

     dune exec examples/quickstart.exe *)

open Adt

let queue_source =
  {|
spec Item
  sort Item
  ops
    APPLE : -> Item
    PEAR : -> Item
    PLUM : -> Item
  constructors APPLE PEAR PLUM
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
    [4] FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)
    [5] REMOVE(NEW) = error
    [6] REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW else ADD(REMOVE(q), i)
end
|}

let () =
  (* 1. Parse the specification. *)
  let spec =
    match Parser.parse_spec queue_source with
    | Ok spec -> spec
    | Error e -> Fmt.failwith "parse error: %a" Parser.pp_error e
  in
  Fmt.pr "Parsed specification:@.@.%a@.@." Pretty.pp_spec_source spec;

  (* 2. Is it sufficiently complete?  Consistent? *)
  Fmt.pr "Sufficiently complete: %b@." (Completeness.holes spec = []);
  let consistency = Consistency.check spec in
  Fmt.pr "Locally confluent: %b; consistent: %b@.@."
    (Consistency.locally_confluent consistency)
    (Consistency.is_consistent spec consistency);

  (* 3. Evaluate terms symbolically — the axioms ARE the implementation. *)
  let interp = Interp.create spec in
  let eval src =
    match Parser.parse_term spec src with
    | Ok term -> Fmt.pr "  %s  ~~>  %a@." src Interp.pp_value (Interp.eval interp term)
    | Error e -> Fmt.failwith "term error: %a" Parser.pp_error e
  in
  Fmt.pr "Symbolic evaluation (FIFO behaviour falls out of the axioms):@.";
  eval "FRONT(ADD(ADD(NEW, APPLE), PEAR))";
  eval "FRONT(REMOVE(ADD(ADD(NEW, APPLE), PEAR)))";
  eval "IS_EMPTY?(REMOVE(REMOVE(ADD(ADD(NEW, APPLE), PEAR))))";
  eval "FRONT(NEW)";
  eval "FRONT(ADD(REMOVE(NEW), APPLE))";
  (* error propagates *)
  Fmt.pr "@.";

  (* 4. Watch the rewriting engine work. *)
  let term =
    match Parser.parse_term spec "FRONT(REMOVE(ADD(ADD(NEW, APPLE), PEAR)))" with
    | Ok t -> t
    | Error _ -> assert false
  in
  let nf, events = Interp.trace interp term in
  Fmt.pr "Trace of FRONT(REMOVE(ADD(ADD(NEW, APPLE), PEAR))):@.";
  List.iter (fun e -> Fmt.pr "  %a@." Rewrite.pp_event e) events;
  Fmt.pr "  normal form: %a@.@." Term.pp nf;

  (* 5. Forget a boundary axiom and let the checker prompt for it. *)
  let broken = Spec.without_axiom "5" spec in
  Fmt.pr "After deleting axiom [5] (REMOVE(NEW) = error):@.";
  List.iter
    (fun p -> Fmt.pr "  %a@." Heuristics.pp_prompt p)
    (Heuristics.prompts broken);

  (* 6. The same FIFO behaviour, proved rather than tested. *)
  let cfg = Proof.config spec in
  let q = Term.var "q" (Sort.v "Queue") and i = Term.var "i" (Sort.v "Item") in
  let add a b = Term.app (Spec.op_exn spec "ADD") [ a; b ]
  and is_empty t = Term.app (Spec.op_exn spec "IS_EMPTY?") [ t ]
  and remove t = Term.app (Spec.op_exn spec "REMOVE") [ t ] in
  let goal = (is_empty (remove (add q i)), is_empty q) in
  Fmt.pr "@.Proving IS_EMPTY?(REMOVE(ADD(q, i))) = IS_EMPTY?(q):@.";
  match Proof.prove cfg goal with
  | Proof.Proved p -> Fmt.pr "%a@." Proof.pp_proof p
  | Proof.Unknown _ as u -> Fmt.pr "%a@." Proof.pp_outcome u
