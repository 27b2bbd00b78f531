(* Domain-parallel engine invariants: the metrics merge law (a snapshot
   after quiescence is the exact merge-fold of the per-domain stripes),
   exactness of concurrent dispatch counting, and lazy materialization of
   per-domain interpreter slots. These run real Domain.spawn parallelism
   even on a single-core machine — correctness must not depend on the
   interleaving. *)

open Adt_specs
open Engine

let handle session line =
  match Dispatch.handle_line session line with
  | Dispatch.Reply r -> r
  | Dispatch.Silent -> "<silent>"
  | Dispatch.Closed _ -> "<closed>"

let check_prefix what prefix got =
  Alcotest.(check bool)
    (Fmt.str "%s: %S starts with %S" what got prefix)
    true
    (String.length got >= String.length prefix
    && String.equal (String.sub got 0 (String.length prefix)) prefix)

let test_metrics_merge_law () =
  let m = Metrics.create () in
  let n_domains = 4 and per = 100 in
  let domains =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Metrics.record_request m
                (Protocol.Normalize { spec = "Queue"; term = "NEW"; fuel = None });
              (* 0.25 is exact in binary: float sums must merge exactly *)
              Metrics.record_outcome m ~latency:0.25 ~fuel:3 ~error:false ()
            done))
  in
  List.iter Domain.join domains;
  let total = n_domains * per in
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "requests exact" total snap.Metrics.requests;
  Alcotest.(check (option int))
    "per-kind counter exact" (Some total)
    (List.assoc_opt "normalize" (Metrics.by_kind snap));
  Alcotest.(check int) "no observation lost by the latency histogram" total
    (Obs.Hist.count snap.Metrics.latency);
  Alcotest.(check (float 0.0))
    "latency sum merges exactly"
    (0.25 *. float_of_int total)
    (Obs.Hist.sum snap.Metrics.latency);
  Alcotest.(check int) "fuel histogram exact" total
    (Obs.Hist.count snap.Metrics.fuel_hist);
  Alcotest.(check int) "errors untouched" 0 snap.Metrics.errors;
  (* the merge law itself: snapshot = fold merge over the stripe
     decomposition, bucket by bucket *)
  let stripes = Metrics.stripe_snapshots m in
  Alcotest.(check int) "stripe count" (Metrics.stripes m) (List.length stripes);
  let folded =
    List.fold_left Metrics.merge (List.hd stripes) (List.tl stripes)
  in
  Alcotest.(check int) "folded requests" snap.Metrics.requests
    folded.Metrics.requests;
  Alcotest.(check int) "folded latency count"
    (Obs.Hist.count snap.Metrics.latency)
    (Obs.Hist.count folded.Metrics.latency);
  Alcotest.(check (array int))
    "folded latency buckets"
    (Obs.Hist.bucket_counts snap.Metrics.latency)
    (Obs.Hist.bucket_counts folded.Metrics.latency);
  Alcotest.(check (float 0.0))
    "folded latency sum"
    (Obs.Hist.sum snap.Metrics.latency)
    (Obs.Hist.sum folded.Metrics.latency);
  (* striping actually happened: the work did not all convoy on one
     stripe (domain ids are monotonic, so a fresh pool spreads) *)
  let nonzero =
    List.length
      (List.filter (fun s -> s.Metrics.requests > 0) stripes)
  in
  Alcotest.(check bool) "work spread over stripes" true (nonzero >= 2)

let test_concurrent_dispatch_exact () =
  let session = Session.create [ Queue_spec.spec ] in
  let n_domains = 4 and per = 50 in
  (* workers return their replies; assertions run on the main domain
     only, because Alcotest's reporter is not domain-safe *)
  let domains =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            List.init per (fun _ ->
                handle session
                  "normalize Queue FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2)))")))
  in
  List.iter
    (List.iter (check_prefix "parallel normalize" "ok normalize"))
    (List.map Domain.join domains);
  let total = n_domains * per in
  let snap = Metrics.snapshot (Session.metrics session) in
  Alcotest.(check int) "every request counted exactly once" total
    snap.Metrics.requests;
  Alcotest.(check int) "no errors under parallel dispatch" 0
    snap.Metrics.errors;
  Alcotest.(check int) "latency histogram complete" total
    (Obs.Hist.count snap.Metrics.latency);
  (* the Prometheus exposition serves the same exact numbers *)
  let body = Session.prometheus session in
  let has fragment =
    let fl = String.length fragment and bl = String.length body in
    let rec go i =
      i + fl <= bl && (String.equal (String.sub body i fl) fragment || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "scrape agrees with the exact total" true
    (has (Fmt.str "adtc_requests_total %g" (float_of_int total)));
  Alcotest.(check bool) "scrape agrees on the kind series" true
    (has
       (Fmt.str "adtc_requests_kind_total{kind=\"normalize\"} %g"
          (float_of_int total)))

let test_lazy_interpreter_slots () =
  let session = Session.create [ Queue_spec.spec ] in
  check_prefix "main-domain request" "ok normalize"
    (handle session "normalize Queue IS_EMPTY?(NEW)");
  let c1 = Session.cache_totals session in
  Alcotest.(check bool) "slot 0 materialized" true (c1.Session.capacity > 0);
  (* more main-domain traffic creates no new slots: single-threaded
     behavior (and its stats output) is unchanged by striping *)
  check_prefix "again" "ok normalize"
    (handle session "normalize Queue IS_EMPTY?(NEW)");
  Alcotest.(check int) "same capacity from one domain" c1.Session.capacity
    (Session.cache_totals session).Session.capacity;
  (* requests from fresh domains fork their own slots on demand *)
  let domains =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            handle session "normalize Queue IS_EMPTY?(NEW)"))
  in
  List.iter
    (fun d -> check_prefix "domain request" "ok normalize" (Domain.join d))
    domains;
  let c2 = Session.cache_totals session in
  Alcotest.(check bool) "new domains materialized new slots" true
    (c2.Session.capacity > c1.Session.capacity);
  (* slot 0's memo kept working across the striping: the main domain's
     repeat request above was a warm hit *)
  Alcotest.(check bool) "memo still effective" true (c2.Session.hits >= 1)

let suite =
  [
    Helpers.case "metrics snapshot = exact merge-fold of domain stripes"
      test_metrics_merge_law;
    Helpers.case "parallel dispatch counts every request exactly once"
      test_concurrent_dispatch_exact;
    Helpers.case "interpreter slots fork lazily per domain"
      test_lazy_interpreter_slots;
  ]
