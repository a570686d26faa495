(* The telemetry subsystem's own contract: exact histogram bucket
   boundaries, registry idempotence, disabled-path no-ops and exporter
   sanity, including the span block the exporters read from the tracer.
   Every test runs with the global switches restored to off, so the
   rest of the suite (and its determinism checks) observes a disabled
   subsystem. *)

module T = Apple_telemetry.Telemetry
module Trace = Apple_trace.Trace

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  nn = 0 || scan 0

(* Flip telemetry on for the body of a test, restoring the disabled
   default (and zeroed metrics) no matter how the body exits. *)
let with_telemetry f =
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    f

(* Telemetry plus the tracer the exporters read spans from, starting
   from an empty ring and leaving one behind. *)
let with_spans f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () -> with_telemetry f)

let sp_promgold = Trace.span ~cat:"test" "test.promgold.span"

(* --- histogram buckets ---------------------------------------------- *)

let test_histogram_bucket_boundaries () =
  with_telemetry @@ fun () ->
  (* lo=1, one bucket per decade, 3 decades: uppers 10, 100, 1000, inf. *)
  let h =
    T.Histogram.create ~lo:1.0 ~buckets_per_decade:1 ~decades:3
      "test.hist.boundaries"
  in
  Alcotest.(check int) "bucket count" 4 (T.Histogram.num_buckets h);
  Alcotest.(check (float 1e-9)) "upper 0" 10.0 (T.Histogram.bucket_upper h 0);
  Alcotest.(check (float 1e-7)) "upper 1" 100.0 (T.Histogram.bucket_upper h 1);
  Alcotest.(check (float 1e-6)) "upper 2" 1000.0 (T.Histogram.bucket_upper h 2);
  Alcotest.(check bool) "last is overflow" true
    (T.Histogram.bucket_upper h 3 = infinity);
  (* Membership: upper(i-1) < v <= upper(i); at-or-below lo -> bucket 0. *)
  List.iter
    (fun (v, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "bucket_index %g" v)
        expect
        (T.Histogram.bucket_index h v))
    [
      (0.0, 0); (0.5, 0); (1.0, 0); (9.99, 0); (10.0, 0);
      (10.000001, 1); (100.0, 1); (100.1, 2); (1000.0, 2);
      (1000.1, 3); (1e12, 3);
    ]

let test_histogram_observe_and_percentile () =
  with_telemetry @@ fun () ->
  let h =
    T.Histogram.create ~lo:1.0 ~buckets_per_decade:1 ~decades:3
      "test.hist.observe"
  in
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (T.Histogram.percentile h 50.0));
  Alcotest.(check bool) "empty max is -inf" true
    (T.Histogram.max_value h = neg_infinity);
  List.iter (T.Histogram.observe h) [ 2.0; 3.0; 5.0; 50.0; 40000.0 ];
  Alcotest.(check int) "count" 5 (T.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 40060.0 (T.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "max" 40000.0 (T.Histogram.max_value h);
  Alcotest.(check int) "bucket 0 holds three" 3 (T.Histogram.bucket_count h 0);
  Alcotest.(check int) "bucket 1 holds one" 1 (T.Histogram.bucket_count h 1);
  Alcotest.(check int) "overflow holds one" 1 (T.Histogram.bucket_count h 3);
  (* p50: rank ceil(0.5*5)=3 -> cumulative reaches 3 in bucket 0. *)
  Alcotest.(check (float 1e-9)) "p50 upper bound" 10.0
    (T.Histogram.percentile h 50.0);
  (* p95: rank 5 lands in the overflow bucket -> reports the true max. *)
  Alcotest.(check (float 1e-9)) "p95 = observed max" 40000.0
    (T.Histogram.percentile h 95.0)

let test_histogram_edge_observations () =
  with_telemetry @@ fun () ->
  let h =
    T.Histogram.create ~lo:1.0 ~buckets_per_decade:1 ~decades:2
      "test.hist.edges"
  in
  (* Zero and negative are genuine observations in the smallest bucket. *)
  T.Histogram.observe h 0.0;
  T.Histogram.observe h (-3.0);
  Alcotest.(check int) "zero and negative in bucket 0" 2
    (T.Histogram.bucket_count h 0);
  Alcotest.(check (float 1e-9)) "sum includes them" (-3.0) (T.Histogram.sum h);
  (* NaN is dropped entirely: no count, no poisoned sum. *)
  T.Histogram.observe h Float.nan;
  Alcotest.(check int) "nan not counted" 2 (T.Histogram.count h);
  Alcotest.(check bool) "sum still finite" true
    (Float.is_finite (T.Histogram.sum h));
  (* Boundary values land in the bucket whose inclusive upper they hit. *)
  T.Histogram.observe h 10.0;
  Alcotest.(check int) "exact boundary inclusive" 3
    (T.Histogram.bucket_count h 0);
  (* Infinity goes to the overflow bucket and becomes the max. *)
  T.Histogram.observe h infinity;
  Alcotest.(check int) "inf in overflow" 1
    (T.Histogram.bucket_count h (T.Histogram.num_buckets h - 1));
  Alcotest.(check bool) "inf is max" true (T.Histogram.max_value h = infinity)

(* --- registry -------------------------------------------------------- *)

let test_registry_idempotent () =
  with_telemetry @@ fun () ->
  let c1 = T.Counter.create "test.reg.counter" in
  let c2 = T.Counter.create "test.reg.counter" in
  T.Counter.incr c1;
  T.Counter.incr c2;
  Alcotest.(check int) "same counter via both handles" 2 (T.Counter.value c1);
  (* A histogram's shape is fixed by the first creation. *)
  let h1 = T.Histogram.create ~lo:1.0 ~buckets_per_decade:1 ~decades:2 "test.reg.h" in
  let h2 = T.Histogram.create ~lo:1e-6 "test.reg.h" in
  Alcotest.(check int) "first shape wins"
    (T.Histogram.num_buckets h1) (T.Histogram.num_buckets h2);
  (* Same name as a different metric type must be rejected. *)
  Alcotest.check_raises "type clash"
    (Invalid_argument
       "Telemetry: \"test.reg.counter\" is already registered as a different \
        metric type")
    (fun () -> ignore (T.Gauge.create "test.reg.counter"))

let test_reset_keeps_registry () =
  with_telemetry @@ fun () ->
  let c = T.Counter.create "test.reset.counter" in
  let g = T.Gauge.create "test.reset.gauge" in
  T.Counter.add c 5;
  T.Gauge.set g 3.5;
  T.reset ();
  Alcotest.(check int) "counter zeroed" 0 (T.Counter.value c);
  Alcotest.(check (float 0.0)) "gauge zeroed" 0.0 (T.Gauge.value g);
  T.Counter.incr c;
  Alcotest.(check int) "handle still live" 1 (T.Counter.value c)

(* --- gauges ---------------------------------------------------------- *)

let test_gauge_set_max () =
  with_telemetry @@ fun () ->
  let g = T.Gauge.create "test.gauge.hwm" in
  T.Gauge.set_max g 4.0;
  T.Gauge.set_max g 2.0;
  Alcotest.(check (float 0.0)) "high watermark holds" 4.0 (T.Gauge.value g);
  T.Gauge.set g 1.0;
  Alcotest.(check (float 0.0)) "set overrides" 1.0 (T.Gauge.value g)

(* --- disabled path --------------------------------------------------- *)

let test_disabled_is_noop () =
  (* Telemetry is off here (suite default).  Updates must not stick. *)
  Alcotest.(check bool) "disabled" false (T.enabled ());
  let c = T.Counter.create "test.off.counter" in
  let g = T.Gauge.create "test.off.gauge" in
  let h = T.Histogram.create "test.off.hist" in
  T.Counter.add c 7;
  T.Gauge.set g 9.0;
  T.Histogram.observe h 1.0;
  Alcotest.(check int) "counter untouched" 0 (T.Counter.value c);
  Alcotest.(check (float 0.0)) "gauge untouched" 0.0 (T.Gauge.value g);
  Alcotest.(check int) "histogram untouched" 0 (T.Histogram.count h)

(* --- spans ---------------------------------------------------------- *)

let test_prometheus_span_golden () =
  with_spans @@ fun () ->
  (* A uniquely-prefixed span: its exposition block (TYPE lines and the
     deterministic _count sample) must appear verbatim; the
     _seconds_total sample is host-timed, so only its shape is checked. *)
  ignore (Trace.with_ sp_promgold (fun () -> Sys.opaque_identity 1));
  ignore (Trace.with_ sp_promgold (fun () -> Sys.opaque_identity 2));
  let prom = T.render T.Prom in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("prom has " ^ needle) true (contains prom needle))
    [
      "# TYPE test_promgold_span_seconds_total counter";
      "# TYPE test_promgold_span_count counter";
      "test_promgold_span_count 2";
    ];
  let has_sample =
    String.split_on_char '\n' prom
    |> List.exists (fun l ->
           match String.split_on_char ' ' l with
           | [ "test_promgold_span_seconds_total"; v ] ->
               (match float_of_string_opt v with
               | Some f -> f >= 0.0
               | None -> false)
           | _ -> false)
  in
  Alcotest.(check bool) "seconds_total sample well-formed" true has_sample

let test_text_span_header_drops () =
  (* The span block reads the tracer's ring, so a full ring shows in
     its header. *)
  let saved = Trace.ring_capacity () in
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.set_ring_capacity saved)
    (fun () ->
      Trace.set_ring_capacity 8;
      Trace.set_enabled true;
      for _ = 1 to 20 do
        Trace.with_ sp_promgold (fun () -> ())
      done;
      let text = T.render T.Text in
      Alcotest.(check bool) "span header states the drops" true
        (contains text "-- spans (12 dropped) --");
      Alcotest.(check bool) "kept spans listed" true
        (contains text "test.promgold.span  8"))

(* --- exporters ------------------------------------------------------- *)

let test_exporters_render () =
  with_telemetry @@ fun () ->
  let c = T.Counter.create "test.render.counter" in
  T.Counter.add c 3;
  let h = T.Histogram.create ~lo:1.0 ~buckets_per_decade:1 ~decades:2 "test.render.hist" in
  T.Histogram.observe h 5.0;
  let text = T.render T.Text in
  Alcotest.(check bool) "text names counter" true
    (contains text "test.render.counter");
  let json = T.render T.Json in
  Alcotest.(check bool) "json has counter line" true
    (contains json
       "{\"type\":\"counter\",\"name\":\"test.render.counter\",\"value\":3}");
  let prom = T.render T.Prom in
  Alcotest.(check bool) "prom sanitizes names" true
    (contains prom "test_render_counter 3");
  Alcotest.(check bool) "prom cumulative buckets" true
    (contains prom "test_render_hist_bucket{le=\"10\"} 1");
  Alcotest.(check bool) "prom overflow bucket" true
    (contains prom "test_render_hist_bucket{le=\"+Inf\"} 1")

let test_prometheus_golden () =
  with_telemetry @@ fun () ->
  (* Uniquely-prefixed metrics that sort adjacently under prom_name, so
     the exact consecutive block below is stable no matter what the rest
     of the suite registered before this test. *)
  let c = T.Counter.create "test.prom.gold.a" in
  T.Counter.add c 7;
  let g = T.Gauge.create "test.prom.gold.b" in
  T.Gauge.set g 2.5;
  let h =
    T.Histogram.create ~lo:1.0 ~buckets_per_decade:1 ~decades:1
      "test.prom.gold.h"
  in
  T.Histogram.observe h 5.0;
  T.Histogram.observe h 20.0;
  let prom = T.render T.Prom in
  let golden =
    String.concat "\n"
      [
        "# TYPE test_prom_gold_a counter";
        "test_prom_gold_a 7";
        "# TYPE test_prom_gold_b gauge";
        "test_prom_gold_b 2.5";
        "# TYPE test_prom_gold_h histogram";
        "test_prom_gold_h_bucket{le=\"10\"} 1";
        "test_prom_gold_h_bucket{le=\"+Inf\"} 2";
        "test_prom_gold_h_sum 25";
        "test_prom_gold_h_count 2";
      ]
  in
  Alcotest.(check bool)
    "golden block present verbatim (names sanitized, kinds interleaved)" true
    (contains prom golden);
  (* Global ordering: every # TYPE family name is non-decreasing, except
     the two families one span emits back-to-back (_seconds_total then
     _count). *)
  let type_names =
    String.split_on_char '\n' prom
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | [ "#"; "TYPE"; name; _kind ] -> Some name
           | _ -> None)
  in
  Alcotest.(check bool) "several families rendered" true
    (List.length type_names >= 3);
  let span_pair a b =
    let suffix = "_seconds_total" in
    String.length a > String.length suffix
    && String.sub a
         (String.length a - String.length suffix)
         (String.length suffix)
       = suffix
    && b
       = String.sub a 0 (String.length a - String.length suffix) ^ "_count"
  in
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
        if not (String.compare a b <= 0 || span_pair a b) then
          Alcotest.failf "families out of order: %s before %s" a b;
        check_sorted rest
    | _ -> ()
  in
  check_sorted type_names

let test_format_of_string () =
  Alcotest.(check bool) "text" true (T.format_of_string "text" = Ok T.Text);
  Alcotest.(check bool) "json" true (T.format_of_string "json" = Ok T.Json);
  Alcotest.(check bool) "prom" true (T.format_of_string "prom" = Ok T.Prom);
  match T.format_of_string "yaml" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "yaml should be rejected"

(* --- LP phase-1 work ------------------------------------------------ *)

(* One Lp_round solve runs phase 1 once: the reweighted re-solve starts
   from the relaxation's feasible start.  The relaxation's own phase-1
   count is what a solve without the re-solve reports. *)
let test_lp_round_phase1_once () =
  let s = Helpers.small_scenario ~max_classes:12 () in
  let value name = T.Counter.value (T.Counter.create name) in
  let run reweight =
    with_telemetry @@ fun () ->
    T.reset ();
    ignore
      (Apple_core.Optimization_engine.solve
         ~method_:Apple_core.Optimization_engine.Lp_round ~reweight s);
    ( value "apple.lp.solves",
      value "apple.lp.phase1_solves",
      value "apple.lp.phase1_reused",
      value "apple.lp.phase1_pivots" )
  in
  let _, _, _, relax_phase1 = run false in
  let solves, phase1_solves, reused, phase1_pivots = run true in
  Alcotest.(check bool) "the relaxation needs phase 1" true (relax_phase1 > 0);
  Alcotest.(check int) "two LP solves" 2 solves;
  Alcotest.(check int) "phase1_solves" 1 phase1_solves;
  Alcotest.(check int) "phase1_reused" 1 reused;
  Alcotest.(check int) "phase1_pivots = the relaxation's" relax_phase1
    phase1_pivots

(* The default method counts its pricing passes, and falls back to the
   LP pipeline when its first repair finds no feasible counts: on hosts
   of two cores the shortest paths' repair fails, the fallback's
   relaxation is infeasible, and the solve raises after one LP. *)
let test_shortest_paths_fallback () =
  let value name = T.Counter.value (T.Counter.create name) in
  let s = Helpers.tiny_scenario () in
  let starved = { s with Apple_core.Types.host_cores = Array.make 4 2 } in
  with_telemetry @@ fun () ->
  T.reset ();
  ignore (Apple_core.Optimization_engine.solve s);
  Alcotest.(check bool) "passes counted" true
    (value "apple.opt.pricing_passes" >= 1);
  Alcotest.(check int) "no fallback" 0 (value "apple.opt.lp_fallbacks");
  Alcotest.(check int) "no LP" 0 (value "apple.lp.solves");
  T.reset ();
  (match Apple_core.Optimization_engine.solve starved with
  | _ -> Alcotest.fail "a starved scenario placed"
  | exception Apple_core.Optimization_engine.Infeasible _ -> ());
  Alcotest.(check int) "one pass" 1 (value "apple.opt.pricing_passes");
  Alcotest.(check int) "one fallback" 1 (value "apple.opt.lp_fallbacks");
  Alcotest.(check int) "the fallback's relaxation" 1 (value "apple.lp.solves")

let suite =
  [
    Alcotest.test_case "histogram: exact bucket boundaries" `Quick
      test_histogram_bucket_boundaries;
    Alcotest.test_case "histogram: observe/sum/percentile" `Quick
      test_histogram_observe_and_percentile;
    Alcotest.test_case "histogram: zero/negative/NaN/boundary edges" `Quick
      test_histogram_edge_observations;
    Alcotest.test_case "registry: idempotent create, type clash rejected"
      `Quick test_registry_idempotent;
    Alcotest.test_case "reset zeroes values, keeps handles" `Quick
      test_reset_keeps_registry;
    Alcotest.test_case "gauge: set_max high watermark" `Quick test_gauge_set_max;
    Alcotest.test_case "disabled: all updates are no-ops" `Quick
      test_disabled_is_noop;
    Alcotest.test_case "exporters: prometheus span summary block" `Quick
      test_prometheus_span_golden;
    Alcotest.test_case "exporters: text span header states drops" `Quick
      test_text_span_header_drops;
    Alcotest.test_case "exporters: text/json/prom sanity" `Quick
      test_exporters_render;
    Alcotest.test_case "exporters: prometheus golden block and ordering"
      `Quick test_prometheus_golden;
    Alcotest.test_case "format_of_string" `Quick test_format_of_string;
    Alcotest.test_case "lp: one phase 1 per Lp_round solve" `Quick
      test_lp_round_phase1_once;
    Alcotest.test_case "opt: shortest paths count passes and fallbacks"
      `Quick test_shortest_paths_fallback;
  ]
