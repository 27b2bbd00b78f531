(* Differential testing of the rewrite engine against its oracle.

   The served engine (the matching automaton behind [Rewrite.normalize])
   must be observably identical to [Rewrite.Reference] — the naive
   linear rule scan with deep structural equality — on every term.

   Random well-sorted terms are generated over the FULL signature of each
   corpus specification ([Helpers.Corpus_gen]), so the tests exercise rule
   dispatch, strict error propagation, lazy conditionals, and stuck terms
   alike. Both engines must produce the same normal form (physically and —
   independently — structurally), the same step count, the same
   error-ness, and exhaust fuel on exactly the same terms. There is one
   fused innermost loop, with an optional memo: the agreement above is
   checked without a memo, and the same loop given a fresh memo must
   reach the oracle's normal form as well.

   The default run checks 1,000 terms per corpus spec; set
   [TEST_DIFF_LONG=1] (the weekly CI fuzz job does) to check 5,000. *)

open Adt
open Helpers
open Adt_specs

let count_per_spec = if long_mode then 5_000 else 1_000
let fuel = 3_000
let tight_fuel = 12

let catch_fuel f =
  match f () with
  | nf, steps -> Some (nf, steps)
  | exception Rewrite.Out_of_fuel _ -> None

(* the agreement relation the whole harness rests on: same normal form
   (both physically and — independently — structurally), same step count,
   same error-ness, and fuel exhaustion on the served engine iff on the
   oracle *)
let agree sys ~fuel t =
  match
    ( catch_fuel (fun () -> Rewrite.Reference.normalize_count ~fuel sys t),
      catch_fuel (fun () -> Rewrite.normalize_count ~fuel sys t) )
  with
  | None, None -> true
  | Some (nf0, n0), Some (nf, n) ->
    Term.equal nf0 nf
    && Term.structural_equal nf0 nf
    && n0 = n
    && Bool.equal (Term.is_error nf0) (Term.is_error nf)
  | _ -> false

(* the memoized path may take a different number of steps (cache hits,
   sub-cutoff re-derivations) but must reach the oracle's normal form
   whenever the oracle completes *)
let memo_agrees sys t =
  match
    catch_fuel (fun () -> Rewrite.Reference.normalize_count ~fuel sys t)
  with
  | None -> true
  | Some (nf, _) -> (
    let memo = Rewrite.Memo.create () in
    match Rewrite.normalize ~memo ~fuel sys t with
    | nf' -> Term.equal nf nf'
    | exception Rewrite.Out_of_fuel _ -> false)

let diff_case spec =
  let ctx = Corpus_gen.ctx_of spec in
  let sys = Rewrite.of_spec spec in
  qcheck ~count:count_per_spec
    (Fmt.str "reference = automaton on %s" (Spec.name spec))
    (Corpus_gen.term_gen ctx)
    (fun t ->
      agree sys ~fuel t
      (* a deliberately tight budget, so both engines routinely hit the
         fuel wall and must agree on exactly WHEN they hit it *)
      && agree sys ~fuel:tight_fuel t
      && memo_agrees sys t)

let suite = List.map diff_case Corpus.all
