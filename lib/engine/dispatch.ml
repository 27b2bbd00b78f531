open Adt

type outcome = Silent | Reply of string | Closed

let error code fmt = Fmt.kstr (fun message -> Protocol.Error_response { code; message }) fmt
let ok fmt = Fmt.kstr (fun payload -> Protocol.Ok_response payload) fmt

(* Everything observed about one request in flight: the span tree being
   built (a no-op tracer when tracing is off) and the rewrite steps the
   request has charged so far — per-request, unlike the session-wide
   [Metrics.fuel_spent], so the slow log and the fuel histogram can
   attribute work to the request that did it. *)
type ctx = { trace : Obs.Trace.t; mutable fuel : int }

let null_ctx () = { trace = Obs.Trace.disabled; fuel = 0 }

let with_spec session name k =
  match Session.find session name with
  | Some entry -> k entry
  | None ->
    error "unknown-spec" "no specification named %s is loaded (have: %s)" name
      (String.concat ", " (Session.spec_names session))

let parse_term ?vars spec src k =
  match Parser.parse_term spec ?vars src with
  | Ok term -> k term
  | Error e -> error "parse" "%s" (Protocol.sanitize (Fmt.str "%a" Parser.pp_error e))

let charge_fuel ctx session steps =
  ctx.fuel <- ctx.fuel + steps;
  Metrics.add_fuel (Session.metrics session) steps

let do_normalize ctx session entry term_src req_fuel poll =
  parse_term (Session.entry_spec entry) term_src @@ fun term ->
  match Session.persist_find entry term with
  | Some (value, _cold_steps) ->
    (* the persistent store already holds this term's normal form under
       this specification digest — answer without evaluating, charging no
       fuel and reporting zero steps (the memo-hit convention) *)
    ok "normalize steps=0 %s"
      (Protocol.sanitize (Fmt.str "%a" Interp.pp_value value))
  | None -> (
    let fuel = Limits.effective_fuel (Session.limits session) req_fuel in
    (* with_interp serializes evaluations on this specification's
       domain-local slot: the memo cache is mutated throughout the rewrite,
       and a poll abort (deadline) must release the slot lock, which
       [Session.with_interp] guarantees *)
    let value, steps =
      Obs.Trace.with_span ctx.trace "rewrite" @@ fun () ->
      Session.with_interp entry (fun interp ->
          Interp.eval_count ~fuel ?poll
            ?on_rule:(Obs.Trace.hook ctx.trace)
            interp term)
    in
    charge_fuel ctx session steps;
    match value with
    | Interp.Diverged ->
      error "fuel" "normalization exceeded %d rewrite steps" fuel
    | value ->
      Session.persist_record session entry term value steps;
      ok "normalize steps=%d %s" steps
        (Protocol.sanitize (Fmt.str "%a" Interp.pp_value value)))

(* the check record kind carries the analysis pass version, as the lint
   kind below does: a verdict persisted by an older pass set is never
   replayed *)
let check_kind = Fmt.str "check/p%d" Analysis.Lint.pass_version

(* the payload renders one [Verify.summarize], the summary [adtc check]
   prints, so the verb and the command cannot disagree *)
let do_check ctx session entry =
  Obs.Trace.with_span ctx.trace "rewrite" @@ fun () ->
  let spec = Session.entry_spec entry in
  let name = Spec.name spec in
  match Session.persist_meta_find entry ~kind:check_kind ~key:name with
  | Some payload -> Protocol.Ok_response payload
  | None ->
    let s = Analysis.Verify.summarize spec in
    let payload =
      Fmt.str "check %s complete=%b consistent=%b missing=%d critical_pairs=%d"
        name
        (s.Analysis.Verify.s_holes = [])
        s.Analysis.Verify.s_consistent s.Analysis.Verify.s_missing
        (Analysis.Verify.critical_pairs s)
    in
    Session.persist_meta_record session entry ~kind:check_kind ~key:name
      payload;
    Protocol.Ok_response payload

let do_skeletons ctx entry =
  Obs.Trace.with_span ctx.trace "rewrite" @@ fun () ->
  let spec = Session.entry_spec entry in
  let name = Spec.name spec in
  match Heuristics.prompts spec with
  | [] -> ok "skeletons %s missing=0" name
  | prompts ->
    ok "skeletons %s missing=%d: %s" name (List.length prompts)
      (String.concat " ; "
         (List.map
            (fun p ->
              Protocol.sanitize (Fmt.str "%a" Term.pp p.Heuristics.missing_lhs))
            prompts))

(* the lint record kind carries the analysis pass version: a verdict
   persisted by an older rule set (say, before the ADT020-022 verification
   passes existed) lives under a different kind, is never found, and so is
   re-analysed — the stale record counts as an ordinary store miss *)
let lint_kind = Fmt.str "lint/p%d" Analysis.Lint.pass_version

(* like metrics and slowlog, the body is framed by a findings count on the
   first line; each finding is one sanitized diagnostic line *)
let do_lint ctx session entry =
  let name = Spec.name (Session.entry_spec entry) in
  match Session.persist_meta_find entry ~kind:lint_kind ~key:name with
  | Some payload ->
    (* a persisted hit skips the per-rule lint counters: the findings were
       metered by the run that produced the payload (possibly another
       process) — rule totals count lint executions, not replays *)
    Protocol.Ok_response payload
  | None ->
    let diags =
      Obs.Trace.with_span ctx.trace "rewrite" @@ fun () ->
      Analysis.Lint.run (Session.entry_spec entry)
    in
    Metrics.record_rule_hits (Session.metrics session)
      (List.map (fun d -> d.Analysis.Diagnostic.code) diags);
    let header = Fmt.str "lint %s findings=%d" name (List.length diags) in
    let payload =
      String.concat "\n"
        (header
        :: List.map
             (fun d -> Protocol.sanitize (Analysis.Diagnostic.to_line d))
             diags)
    in
    Session.persist_meta_record session entry ~kind:lint_kind ~key:name payload;
    Protocol.Ok_response payload

(* the conformance suite resolves in the builtin implementation registry,
   not the session's loaded specifications: only OCaml implementations
   compiled into the binary can be run against their axioms *)
let do_testgen ctx session ~spec ~impl ~count ~seed =
  let resolved =
    match impl with
    | Some impl_name -> (
      match Testgen.Registry.find ~spec ~impl:impl_name with
      | Some entry -> Ok entry
      | None ->
        let registered =
          Testgen.Registry.for_spec spec
          @ Testgen.Registry.for_spec ~mutants:true spec
        in
        if registered = [] then
          Error
            (error "unknown-spec"
               "no implementation is registered for %s (have: %s)" spec
               (String.concat ", " (Testgen.Registry.spec_names ())))
        else
          Error
            (error "unknown-impl"
               "no implementation named %s is registered for %s (have: %s)"
               impl_name spec
               (String.concat ", " (List.map Testgen.Impl.name registered))))
    | None -> (
      match Testgen.Registry.default_for spec with
      | Some entry -> Ok entry
      | None ->
        Error
          (error "unknown-spec"
             "no implementation is registered for %s (have: %s)" spec
             (String.concat ", " (Testgen.Registry.spec_names ()))))
  in
  match resolved with
  | Error e -> e
  | Ok entry -> (
    let count = Option.value ~default:100 count in
    let seed = Option.value ~default:414243 seed in
    (* the suite is deterministic in (impl, count, seed), so the verdict
       persists under that key — but only when the spec is also loaded in
       the session, whose digest names the store entry *)
    let meta_key =
      Fmt.str "%s|%s|%d|%d" spec (Testgen.Impl.name entry) count seed
    in
    let sentry = Session.find session spec in
    match
      Option.bind sentry (fun e ->
          Session.persist_meta_find e ~kind:"testgen" ~key:meta_key)
    with
    | Some payload -> Protocol.Ok_response payload
    | None ->
    let report =
      Obs.Trace.with_span ctx.trace "testgen" @@ fun () ->
      Testgen.Harness.conformance ~count ~seed entry
    in
    let failures = Testgen.Harness.failures report in
    Metrics.record_testgen_run (Session.metrics session)
      ~failures:(List.map (fun (axiom, _) -> Axiom.name axiom) failures);
    let line ar =
      match ar.Testgen.Harness.failure with
      | None ->
        Fmt.str "axiom %s pass trials=%d" (Axiom.name ar.Testgen.Harness.axiom)
          ar.Testgen.Harness.trials
      | Some f ->
        Protocol.sanitize
          (Fmt.str "axiom %s FAIL seed=%d at %a: %a"
             (Axiom.name ar.Testgen.Harness.axiom)
             f.Testgen.Harness.fail_seed Testgen.Harness.pp_valuation
             f.Testgen.Harness.valuation
             Testgen.Harness.pp_witness f.Testgen.Harness.witness)
    in
    let header =
      Fmt.str "testgen %s impl=%s seed=%d count=%d size=%d failures=%d axioms=%d"
        report.Testgen.Harness.spec_name report.Testgen.Harness.impl_name seed
        count report.Testgen.Harness.gen_size (List.length failures)
        (List.length report.Testgen.Harness.axiom_reports)
    in
    let payload =
      String.concat "\n"
        (header :: List.map line report.Testgen.Harness.axiom_reports)
    in
    (match sentry with
    | Some e ->
      Session.persist_meta_record session e ~kind:"testgen" ~key:meta_key
        payload
    | None -> ());
    Protocol.Ok_response payload)

let do_prove ctx session entry vars lhs_src rhs_src req_fuel poll =
  let spec = Session.entry_spec entry in
  let vars = List.map (fun (name, sort) -> (name, Sort.v sort)) vars in
  parse_term ~vars spec lhs_src @@ fun lhs ->
  parse_term ~vars spec rhs_src @@ fun rhs ->
  (* the Limits contract: a request's fuel=N may lower the session ceiling,
     never raise it — the prover's own default applies when nothing is
     requested, itself capped by the ceiling *)
  let fuel =
    Limits.effective_fuel (Session.limits session)
      (Some (Option.value ~default:Proof.default_fuel req_fuel))
  in
  (* every rule application inside the proof search reaches the poll hook,
     so it both enforces the deadline and meters the fuel actually spent *)
  let steps = ref 0 in
  let counting () =
    incr steps;
    match poll with Some p -> p () | None -> ()
  in
  let config =
    Proof.config ~fuel ~poll:counting ?on_rule:(Obs.Trace.hook ctx.trace) spec
  in
  let name = Spec.name spec in
  (* a proof, once found, stays valid under any fuel budget, so Proved
     replies persist under the canonical goal rendering; Unknown is never
     recorded — a later run with more fuel may still succeed *)
  let meta_key =
    let var ppf (n, s) = Fmt.pf ppf "%s:%s" n (Sort.name s) in
    Fmt.str "%a|%a=%a"
      (Fmt.list ~sep:Fmt.comma var)
      (List.sort compare vars) Term.pp lhs Term.pp rhs
  in
  match Session.persist_meta_find entry ~kind:"proof" ~key:meta_key with
  | Some payload -> Protocol.Ok_response payload
  | None -> (
    let outcome =
      Obs.Trace.with_span ctx.trace "rewrite" @@ fun () ->
      Proof.prove config (lhs, rhs)
    in
    charge_fuel ctx session !steps;
    match outcome with
    | Proof.Proved proof ->
      let payload =
        Fmt.str "prove %s proved size=%d depth=%d" name
          (Proof.proof_size proof) (Proof.proof_depth proof)
      in
      Session.persist_meta_record session entry ~kind:"proof" ~key:meta_key
        payload;
      Protocol.Ok_response payload
    | Proof.Unknown _ -> ok "prove %s unknown" name)

let do_stats session verbose =
  let m = Metrics.snapshot (Session.metrics session) in
  let count kind = List.assoc kind (Metrics.by_kind m) in
  let counters =
    Fmt.str
      "stats requests=%d normalize=%d check=%d skeletons=%d lint=%d \
       testgen=%d prove=%d stats=%d metrics=%d slowlog=%d malformed=%d \
       errors=%d fuel=%d"
      m.Metrics.requests (count "normalize") (count "check")
      (count "skeletons") (count "lint") (count "testgen") (count "prove")
      (count "stats") (count "metrics") (count "slowlog") m.Metrics.malformed
      m.Metrics.errors m.Metrics.fuel_spent
  in
  let c = Session.cache_totals session in
  let base =
    Fmt.str
      "%s cache.hits=%d cache.misses=%d cache.evictions=%d cache.entries=%d \
       cache.capacity=%d"
      counters c.Session.hits c.Session.misses c.Session.evictions
      c.Session.entries c.Session.capacity
  in
  (* persist fields only when a store is attached, so cache-less sessions
     keep their historical stats line byte-for-byte *)
  let base =
    match Session.persist_totals session with
    | None -> base
    | Some p ->
      Fmt.str
        "%s persist.hits=%d persist.misses=%d persist.corrupt=%d \
         persist.loaded=%d persist.files=%d persist.read_only=%b"
        base p.Session.hits p.Session.misses p.Session.corrupt
        p.Session.loaded p.Session.files p.Session.read_only
  in
  (* latency is real time: only printed on demand, so that batch replays
     stay deterministic *)
  if verbose then
    Protocol.Ok_response
      (Fmt.str "%s latency.total_ms=%.3f latency.max_ms=%.3f" base
         (Metrics.latency_total m *. 1000.)
         (Metrics.latency_max m *. 1000.))
  else Protocol.Ok_response base

(* the body is announced by line count on the first line, so line-oriented
   clients can frame the multi-line exposition *)
let do_metrics session =
  let body = Session.prometheus session in
  let lines = String.split_on_char '\n' body in
  (* the exposition is newline-terminated: drop the final empty piece *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  ok "metrics lines=%d\n%s" (List.length lines) (String.concat "\n" lines)

let render_slow_entry e =
  let spans =
    String.concat ";"
      (List.map
         (fun (name, dur_s) -> Fmt.str "%s:%.3f" name (dur_s *. 1000.))
         e.Obs.Slowlog.spans)
  in
  Fmt.str "slow trace=%s kind=%s spec=%s ms=%.3f fuel=%d spans=%s"
    e.Obs.Slowlog.trace_id e.Obs.Slowlog.kind e.Obs.Slowlog.spec
    (e.Obs.Slowlog.latency_s *. 1000.)
    e.Obs.Slowlog.fuel
    (if String.equal spans "" then "-" else spans)

let do_slowlog session =
  match Session.slowlog session with
  | None ->
    error "slowlog"
      "the slow-request log is disabled; start the engine with --slowlog-ms"
  | Some sl ->
    let entries = Obs.Slowlog.entries sl in
    let header =
      Fmt.str "slowlog entries=%d threshold_ms=%g capacity=%d"
        (List.length entries)
        (Obs.Slowlog.threshold_s sl *. 1000.)
        (Obs.Slowlog.capacity sl)
    in
    ok "%s"
      (String.concat "\n" (header :: List.map render_slow_entry entries))

(* {1 The document-session verbs} *)

let summary_line verb name (doc : Docsession.Manager.doc) =
  let s = doc.Docsession.Manager.summary in
  Fmt.str
    "%s %s version=%d axioms=%d sig_changed=%b changed=%d cone=%d checked=%d \
     reused=%d digest=%s"
    verb name s.Docsession.Manager.version s.Docsession.Manager.axioms
    s.Docsession.Manager.sig_changed s.Docsession.Manager.changed
    s.Docsession.Manager.cone s.Docsession.Manager.checked
    s.Docsession.Manager.reused doc.Docsession.Manager.digest

let do_session_open ctx session name =
  (* the document starts from the loaded specification's canonical
     source, so the first edit diffs against exactly what the session
     serves; [uses] are already merged into the elaborated signature *)
  with_spec session name @@ fun entry ->
  let source = Pretty.source_of_spec (Session.entry_spec entry) in
  let result =
    Obs.Trace.with_span ctx.trace "rewrite" @@ fun () ->
    Docsession.Manager.open_doc (Session.docs session) ~name ~source
  in
  match result with
  | Error e -> error "parse" "%s" (Protocol.sanitize e)
  | Ok doc -> ok "%s" (summary_line "session-open" name doc)

let do_session_edit ctx session name body =
  let result =
    Obs.Trace.with_span ctx.trace "rewrite" @@ fun () ->
    Docsession.Manager.edit (Session.docs session) ~name ~source:body
  in
  match result with
  | Error (Docsession.Manager.Not_open, e) ->
    error "unknown-spec" "%s" (Protocol.sanitize e)
  | Error (Docsession.Manager.Unparsable, e) ->
    error "parse" "%s" (Protocol.sanitize e)
  | Ok doc -> ok "%s" (summary_line "session-edit" name doc)

let do_session_status session name =
  match Docsession.Manager.status (Session.docs session) ~name with
  | None ->
    error "unknown-spec" "no open document named %s (session-open it first)"
      name
  | Some doc ->
    let line (o : Docsession.Manager.oblig) =
      Fmt.str "axiom %s status=%s steps=%d findings=%d source=%s"
        (if String.equal o.Docsession.Manager.axiom_name "" then "-"
         else o.Docsession.Manager.axiom_name)
        (Docsession.Manager.status_name o.Docsession.Manager.status)
        o.Docsession.Manager.steps o.Docsession.Manager.findings
        (if o.Docsession.Manager.reused then "reused" else "checked")
    in
    let obligations = doc.Docsession.Manager.obligations in
    let header =
      Fmt.str "session-status %s version=%d axioms=%d obligations=%d digest=%s"
        name doc.Docsession.Manager.version
        doc.Docsession.Manager.summary.Docsession.Manager.axioms
        (List.length obligations) doc.Docsession.Manager.digest
    in
    ok "%s" (String.concat "\n" (header :: List.map line obligations))

let handle_request ?poll ?ctx ?body session request =
  let ctx = match ctx with Some c -> c | None -> null_ctx () in
  match request with
  | Protocol.Normalize { spec; term; fuel } ->
    with_spec session spec @@ fun entry ->
    do_normalize ctx session entry term fuel poll
  | Protocol.Check { spec } ->
    with_spec session spec @@ fun entry -> do_check ctx session entry
  | Protocol.Skeletons { spec } -> with_spec session spec (do_skeletons ctx)
  | Protocol.Lint { spec } ->
    with_spec session spec @@ fun entry -> do_lint ctx session entry
  | Protocol.Testgen { spec; impl; count; seed } ->
    do_testgen ctx session ~spec ~impl ~count ~seed
  | Protocol.Prove { spec; vars; lhs; rhs; fuel } ->
    with_spec session spec @@ fun entry ->
    do_prove ctx session entry vars lhs rhs fuel poll
  | Protocol.Session_open { spec } -> do_session_open ctx session spec
  | Protocol.Session_edit { spec; lines } -> (
    match body with
    | Some body -> do_session_edit ctx session spec body
    | None ->
      error "protocol"
        "session-edit has no transport to read its %d body lines from \
         (needs a line-oriented connection)"
        lines)
  | Protocol.Session_status { spec } -> do_session_status session spec
  | Protocol.Stats { verbose } -> do_stats session verbose
  | Protocol.Metrics -> do_metrics session
  | Protocol.Slowlog -> do_slowlog session
  | Protocol.Quit -> Protocol.Ok_response "bye"

let feed_slowlog session request ctx elapsed result =
  match (Session.slowlog session, result) with
  | Some sl, Some r ->
    ignore
      (Obs.Slowlog.observe sl
         {
           Obs.Slowlog.trace_id = r.Obs.Trace.id;
           kind = Protocol.kind_name request;
           spec = Option.value ~default:"-" (Protocol.spec_name request);
           latency_s = elapsed;
           fuel = ctx.fuel;
           spans = Obs.Trace.breakdown r.Obs.Trace.root;
         })
  | _ -> ()

let handle_line_obs ?read_line session line =
  let metrics = Session.metrics session in
  let tracing = Session.tracing session in
  (* parse before allocating a tracer, so blank and comment lines consume
     no trace ID; the parse time becomes a pre-measured leaf span *)
  let parse_started = if tracing then Unix.gettimeofday () else 0. in
  let parsed = Protocol.parse line in
  let trace_for_line () =
    if tracing then begin
      let t = Obs.Trace.create "request" in
      Obs.Trace.record_span t "parse"
        (Float.max 0. (Unix.gettimeofday () -. parse_started));
      t
    end
    else Obs.Trace.disabled
  in
  match parsed with
  | Ok None -> (Silent, None)
  | Error message ->
    let trace = trace_for_line () in
    Metrics.record_malformed_request metrics;
    ( Reply (Protocol.render (Protocol.Error_response { code = "protocol"; message })),
      Obs.Trace.finish trace )
  | Ok (Some Protocol.Quit) ->
    let trace = trace_for_line () in
    Metrics.record_request metrics Protocol.Quit;
    (Closed, Obs.Trace.finish trace)
  | Ok (Some request) ->
    let trace = trace_for_line () in
    Metrics.record_request metrics request;
    let ctx = { trace; fuel = 0 } in
    let started = Unix.gettimeofday () in
    (* a session-edit body is raw lines read off the same transport,
       before the deadline starts: reading the client's text is not the
       request's computation *)
    let body =
      match request with
      | Protocol.Session_edit { lines; _ } -> (
        match read_line with
        | None -> Ok None
        | Some next ->
          let rec go acc n =
            if n = 0 then Ok (Some (String.concat "\n" (List.rev acc)))
            else
              match next () with
              | Some l -> go (l :: acc) (n - 1)
              | None ->
                Error
                  (error "protocol"
                     "session-edit body truncated (connection closed before \
                      %d lines arrived)"
                     lines)
          in
          go [] lines)
      | _ -> Ok None
    in
    let response =
      Obs.Trace.with_span trace "dispatch" @@ fun () ->
      match body with
      | Error resp -> resp
      | Ok body -> (
        match
          Limits.with_deadline (Session.limits session).Limits.timeout
            (fun poll -> handle_request ?poll ~ctx ?body session request)
        with
        | Ok response -> response
        | Error `Timeout ->
          error "timeout" "request exceeded %gs of wall-clock time"
            (Option.get (Session.limits session).Limits.timeout)
        | exception e ->
          (* error isolation: an internal failure answers this request and
             only this request *)
          error "internal" "%s" (Protocol.sanitize (Printexc.to_string e)))
    in
    let rendered =
      Obs.Trace.with_span trace "respond" (fun () -> Protocol.render response)
    in
    let elapsed = Unix.gettimeofday () -. started in
    let fuel_metered =
      match request with
      | Protocol.Normalize _ | Protocol.Prove _ -> true
      | _ -> false
    in
    Metrics.record_outcome metrics ~latency:elapsed
      ?fuel:(if fuel_metered then Some ctx.fuel else None)
      ~error:
        (match response with
        | Protocol.Error_response _ -> true
        | Protocol.Ok_response _ -> false)
      ();
    let result = Obs.Trace.finish trace in
    feed_slowlog session request ctx elapsed result;
    (Reply rendered, result)

let handle_line ?read_line session line =
  fst (handle_line_obs ?read_line session line)
