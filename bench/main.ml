(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, then runs Bechamel micro-benchmarks on the hot kernels.

     dune exec bench/main.exe                 # full paper scale
     APPLE_BENCH_SCALE=0.05 dune exec bench/main.exe   # quick smoke run
     APPLE_BENCH_ONLY=soak dune exec bench/main.exe    # one section
     dune exec bench/main.exe -- table5 --json bench.json

   Positional arguments select what runs: a section (paper | ablations |
   failover | soak | slice | micro) or an
   individual artifact (table1 | table3 | table4 | table5 | fig6 ... fig12).  Without arguments,
   APPLE_BENCH_ONLY filters sections (comma-separated); unknown names in
   either place abort with the valid vocabulary.  --json FILE
   additionally writes a BENCH_core.json snapshot of the scalar metrics
   (schema documented in EXPERIMENTS.md).  One experiment driver per
   artifact lives in Apple_core.Experiments; this harness prints them all
   and appends kernel timings. *)

module C = Apple_core
module B = Apple_topology.Builders
module Tr = Apple_traffic
module Rng = Apple_prelude.Rng
module T = Apple_telemetry.Telemetry

let scale =
  match Sys.getenv_opt "APPLE_BENCH_SCALE" with
  | Some s -> (try float_of_string s with Failure _ -> 1.0)
  | None -> 1.0

let seed =
  match Sys.getenv_opt "APPLE_BENCH_SEED" with
  | Some s -> (try int_of_string s with Failure _ -> 20160627)
  | None -> 20160627

(* --- command line --------------------------------------------------- *)

let section_names =
  [ "paper"; "ablations"; "micro"; "failover"; "soak"; "slice" ]

let experiment_names =
  [ "table1"; "table3"; "table4"; "table5"; "fig6"; "fig7"; "fig8"; "fig9";
    "fig10"; "fig11"; "fig12" ]

(* Positional arguments win; otherwise APPLE_BENCH_ONLY="paper,soak"
   filters sections.  Unknown names — in either place — abort instead of
   silently running nothing (Apple_bench_args validates both). *)
let args =
  match
    Apple_bench_args.Args.parse ~section_names ~experiment_names
      ~argv:(List.tl (Array.to_list Sys.argv))
      ~only:(Sys.getenv_opt "APPLE_BENCH_ONLY")
  with
  | Ok t -> t
  | Error msg ->
      prerr_endline msg;
      exit 2

let json_path = args.Apple_bench_args.Args.json
let wants = Apple_bench_args.Args.wants args

(* --- BENCH_core.json snapshot --------------------------------------- *)

(* experiment id -> flat (metric, value) rows, in run order. *)
let snapshot : (string * (string * float) list) list ref = ref []

let record id metrics =
  if json_path <> None then snapshot := (id, metrics) :: !snapshot

let json_escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.9g" v else "null"

(* Which domain claimed each chunk of the domain pool's work changes
   between runs of the same build, so a committed snapshot leaves these
   out. *)
let run_dependent =
  [
    "apple.pool.chunks_by_submitter";
    "apple.pool.chunks_by_worker";
    "apple.pool.utilization";
  ]

let stable metrics =
  List.filter
    (fun (n, _) -> not (List.exists (String.equal n) run_dependent))
    metrics

let write_snapshot path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"apple-bench-core/2\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" seed);
  Buffer.add_string buf (Printf.sprintf "  \"scale\": %s,\n" (json_num scale));
  Buffer.add_string buf "  \"experiments\": {\n";
  let exps = List.rev !snapshot in
  List.iteri
    (fun i (id, metrics) ->
      Buffer.add_string buf (Printf.sprintf "    \"%s\": {" (json_escape id));
      List.iteri
        (fun j (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s\"%s\": %s"
               (if j = 0 then "" else ", ")
               (json_escape k) (json_num v)))
        metrics;
      Buffer.add_string buf
        (if i = List.length exps - 1 then "}\n" else "},\n"))
    exps;
  Buffer.add_string buf "  },\n";
  (* Pipeline-wide telemetry: every counter and gauge but the
     run-dependent ones. *)
  Buffer.add_string buf "  \"counters\": {";
  List.iteri
    (fun i (n, v) ->
      Buffer.add_string buf
        (Printf.sprintf "%s\"%s\": %d" (if i = 0 then "" else ", ")
           (json_escape n) v))
    (stable (T.counters ()));
  Buffer.add_string buf "},\n";
  Buffer.add_string buf "  \"gauges\": {";
  List.iteri
    (fun i (n, v) ->
      Buffer.add_string buf
        (Printf.sprintf "%s\"%s\": %s" (if i = 0 then "" else ", ")
           (json_escape n) (json_num v)))
    (stable (T.gauges ()));
  Buffer.add_string buf "}\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "bench: wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures.                             *)

(* Run one artifact, printing its table and recording raw scalars when
   the driver exposes them. *)
let run_artifact opts name =
  let print = C.Experiments.print in
  match name with
  | "table1" -> print (C.Experiments.table1 opts)
  | "table3" -> print (C.Experiments.table3 opts)
  | "table4" -> print (C.Experiments.table4 opts)
  | "table5" ->
      let rendered, raw = C.Experiments.table5 opts in
      print rendered;
      record "table5"
        (List.map (fun (topo, s) -> (topo ^ ".solve_seconds", s)) raw)
  | "fig6" -> print (C.Experiments.fig6 opts)
  | "fig7" -> print (C.Experiments.fig7 opts)
  | "fig8" -> print (C.Experiments.fig8 opts)
  | "fig9" -> print (C.Experiments.fig9 opts)
  | "fig10" ->
      let rendered, raw = C.Experiments.fig10 opts in
      print rendered;
      record "fig10"
        (List.concat_map
           (fun (topo, b) ->
             [
               (topo ^ ".reduction_q1", b.Apple_prelude.Stats.q1);
               (topo ^ ".reduction_median", b.Apple_prelude.Stats.med);
               (topo ^ ".reduction_q3", b.Apple_prelude.Stats.q3);
             ])
           raw)
  | "fig11" ->
      let rendered, raw = C.Experiments.fig11 opts in
      print rendered;
      record "fig11"
        (List.concat_map
           (fun (topo, apple, ingress) ->
             [
               (topo ^ ".apple_cores", float_of_int apple);
               (topo ^ ".ingress_cores", float_of_int ingress);
             ])
           raw)
  | "fig12" ->
      let rendered, raw = C.Experiments.fig12 opts in
      print rendered;
      record "fig12"
        (List.concat_map
           (fun (topo, w, wo, extra) ->
             [
               (topo ^ ".loss_with_failover", w);
               (topo ^ ".loss_without_failover", wo);
               (topo ^ ".extra_cores", extra);
             ])
           raw)
  | other -> invalid_arg ("run_artifact: " ^ other)

let reproduce_paper opts = List.iter (run_artifact opts) experiment_names

let run_ablations opts =
  print_endline "---- ablations (beyond the paper's figures) ----\n";
  List.iter C.Experiments.print (C.Experiments.ablations opts)

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks on the framework's kernels.       *)

open Bechamel
open Toolkit

(* Pre-built inputs shared by the kernels (construction excluded from the
   measured region). *)
let bench_scenario =
  lazy
    (let named = B.internet2 () in
     let rng = Rng.create seed in
     let tm = Tr.Synth.gravity rng ~n:12 ~total:3000.0 in
     let config = { C.Scenario.default_config with C.Scenario.max_classes = 12 } in
     C.Scenario.build ~config ~seed named tm)

let bench_placement =
  lazy
    (C.Optimization_engine.solve ~method_:C.Optimization_engine.Lp_round
       (Lazy.force bench_scenario))
let bench_assignment =
  lazy (C.Subclass.assign (Lazy.force bench_scenario) (Lazy.force bench_placement))
let bench_rules =
  lazy (C.Rule_generator.build (Lazy.force bench_scenario) (Lazy.force bench_assignment))

let test_optimize =
  Test.make ~name:"optimization-engine (internet2, 12 classes)"
    (Staged.stage (fun () ->
         ignore
           (C.Optimization_engine.solve ~method_:C.Optimization_engine.Lp_round
              (Lazy.force bench_scenario))))

let test_decompose =
  Test.make ~name:"sub-class decomposition (one class)"
    (Staged.stage (fun () ->
         let s = Lazy.force bench_scenario in
         let p = Lazy.force bench_placement in
         let c = s.C.Types.classes.(0) in
         ignore (C.Subclass.decompose c p.C.Optimization_engine.distribution.(0))))

let test_rulegen =
  Test.make ~name:"rule generation (all classes)"
    (Staged.stage (fun () ->
         ignore
           (C.Rule_generator.build (Lazy.force bench_scenario)
              (Lazy.force bench_assignment))))

let test_walk =
  Test.make ~name:"packet walk (one flow)"
    (Staged.stage (fun () ->
         let s = Lazy.force bench_scenario in
         let built = Lazy.force bench_rules in
         let c = s.C.Types.classes.(0) in
         let src_ip = c.C.Types.src_block.C.Types.Prefix.addr in
         ignore
           (Apple_dataplane.Walk.run built.C.Rule_generator.network
              ~path:(Array.to_list c.C.Types.path)
              ~cls:c.C.Types.id ~src_ip ())))

let test_verify =
  Test.make ~name:"static verifier (internet2, 12 classes)"
    (Staged.stage (fun () ->
         ignore
           (Apple_verify.Verify.check (Lazy.force bench_scenario)
              (Lazy.force bench_assignment)
              (Lazy.force bench_rules))))

let test_atoms =
  Test.make ~name:"atomic predicates (6 predicates)"
    (Staged.stage (fun () ->
         let module P = Apple_classifier.Predicate in
         let e = P.env () in
         let preds =
           [
             P.src_prefix e "10.0.0.0" 8;
             P.src_prefix e "10.1.0.0" 16;
             P.dst_prefix e "192.168.0.0" 16;
             P.proto e 6;
             P.dst_port e 80;
             P.dst_port_range e 1000 2000;
           ]
         in
         ignore (Apple_classifier.Atoms.compute e preds)))

(* The verifier's tag-collision check intersects the source sets of every
   pair of classification rules at a switch.  The rules come from the
   busiest switch (most classification rules) of the failover-heal
   workload's GEANT install. *)
let overlap_rules =
  lazy
    (let module R = Apple_dataplane.Rule in
     let topo = B.geant () in
     let n = Apple_topology.Graph.num_nodes topo.B.graph in
     let config = { C.Scenario.default_config with C.Scenario.max_classes = 120 } in
     let s =
       C.Scenario.build ~config ~seed:0 topo
         (Tr.Synth.gravity (Rng.create 0) ~n ~total:6000.0)
     in
     let report =
       C.Controller.run_epoch
         (C.Controller.create ~gate:Apple_verify.Verify.gate s)
     in
     let classifiers t =
       List.filter_map
         (fun (r : R.phys_rule) ->
           match r.R.action with
           | R.Tag_and_deliver _ | R.Tag_and_forward _ ->
               Some r.R.pmatch.R.m_prefixes
           | R.Fwd_to_host _ | R.Set_host_and_forward _ | R.Goto_next -> None)
         (Apple_dataplane.Tcam.phys_rules t)
     in
     Array.fold_left
       (fun best t ->
         let c = classifiers t in
         if List.length c > List.length best then c else best)
       [] report.C.Controller.rules.C.Rule_generator.network)

let test_overlap =
  let module S = Apple_classifier.Src_set in
  let sets =
    lazy
      (Array.of_list
         (List.map
            (function [] -> S.full | ps -> S.of_prefixes ps)
            (Lazy.force overlap_rules)))
  in
  Test.make ~name:"verifier overlap sets (GEANT busiest switch)"
    (Staged.stage (fun () ->
         let sets = Lazy.force sets in
         for i = 0 to Array.length sets - 1 do
           for j = i + 1 to Array.length sets - 1 do
             ignore (S.is_empty (S.inter sets.(i) sets.(j)))
           done
         done))

let test_chash =
  Test.make ~name:"consistent-hash assign (one packet)"
    (Staged.stage
       (let ring =
          Apple_classifier.Consistent_hash.create ~weights:[| 0.3; 0.3; 0.4 |]
        in
        let packet =
          {
            Apple_classifier.Header.src_ip = 0x0A000001;
            dst_ip = 0xC0A80101;
            proto = 6;
            src_port = 1234;
            dst_port = 80;
          }
        in
        fun () -> ignore (Apple_classifier.Consistent_hash.assign ring packet)))

let test_simplex_small =
  Test.make ~name:"simplex (20x30 covering LP)"
    (Staged.stage
       (let build () =
          let module M = Apple_lp.Model in
          let t = M.create () in
          let rng = Rng.create 5 in
          let vars =
            Array.init 30 (fun _ -> M.add_var t ~obj:(1.0 +. Rng.uniform rng) ())
          in
          for _ = 1 to 20 do
            let terms =
              Array.to_list (Array.map (fun v -> (0.5 +. Rng.uniform rng, v)) vars)
            in
            M.add_constraint t terms M.Ge (10.0 +. Rng.float rng 10.0)
          done;
          t
        in
        let model = build () in
        fun () -> ignore (Apple_lp.Model.solve_lp model)))

let test_drfq =
  Test.make ~name:"DRFQ enqueue+dequeue (one packet)"
    (Staged.stage
       (let s = Apple_sched.Drfq.create ~resources:[| "cpu"; "nic" |] in
        let f =
          Apple_sched.Drfq.add_flow s ~name:"bench" ~cost_per_kb:[| 1e-4; 2e-4 |]
        in
        fun () ->
          Apple_sched.Drfq.enqueue s f ~bytes:1024;
          ignore (Apple_sched.Drfq.dequeue s)))

let run_failover opts =
  print_endline "---- failover under injected faults (chaos engine) ----\n";
  C.Experiments.print (Apple_chaos.Experiments.fig_failover opts)

(* Endurance smoke: a short soak run (same drill as the CI job) recording
   throughput, memory flatness and the invariant verdict.  The committed
   trajectory snapshot (BENCH_soak.json) comes from `apple soak
   --bench-json` at full scale — see the Makefile's `bench-snapshots`. *)
let run_soak () =
  print_endline "---- soak smoke (endurance harness) ----\n";
  let module Soak = Apple_soak.Soak in
  let epochs = max 48 (int_of_float (200.0 *. scale)) in
  let schedule =
    match
      Apple_chaos.Fault.parse
        "at 50 kill-instance hottest\n\
         at 75 link-down busiest\n\
         at 90 link-up busiest"
    with
    | Ok s -> s
    | Error e -> invalid_arg ("soak bench schedule: " ^ e)
  in
  let cfg =
    {
      (Soak.default_config (B.internet2 ())) with
      Soak.seed;
      epochs;
      schedule = (if epochs > 90 then schedule else []);
    }
  in
  match Soak.create cfg with
  | Error e -> invalid_arg ("soak bench: " ^ e)
  | Ok session ->
      let o = Soak.run session in
      Printf.printf
        "%d epoch(s): %d violation(s), %.0f epochs/sec, peak %d live words \
         (%s)\n\
         %!"
        o.Soak.epochs_run
        (List.length o.Soak.violations)
        o.Soak.epochs_per_sec o.Soak.peak_live_words
        (if o.Soak.mem_flat then "flat" else "NOT FLAT");
      record "soak"
        [
          ("epochs", float_of_int o.Soak.epochs_run);
          ("violations", float_of_int (List.length o.Soak.violations));
          ("mem_flat", if o.Soak.mem_flat then 1.0 else 0.0);
          ("peak_live_words", float_of_int o.Soak.peak_live_words);
          ("epochs_per_sec", o.Soak.epochs_per_sec);
        ]

(* Multi-tenant slicing: replay a seeded arrival/departure stream at
   several substrate scales and record how many slices each admits
   (deterministic), plus the mean wall-clock admission decision latency
   (machine-dependent, kept as a separate metric like lp_seconds). *)
let run_slice () =
  print_endline "---- slice admission (multi-tenant lifecycle) ----\n";
  let module Sl = Apple_slice in
  let events = max 8 (int_of_float (24.0 *. scale)) in
  let tr = Sl.Trace.synth ~seed ~events in
  let arrivals =
    List.length
      (List.filter
         (fun (e : Sl.Trace.entry) ->
           match e.Sl.Trace.event with
           | Sl.Trace.Arrive _ -> true
           | Sl.Trace.Depart _ -> false)
         tr.Sl.Trace.entries)
  in
  Printf.printf "%d event(s) (%d arrivals), internet2, gate on\n\n%!"
    (List.length tr.Sl.Trace.entries)
    arrivals;
  Printf.printf "%-12s %-9s %-9s %-9s %-10s %s\n%!" "cores/host" "admitted"
    "rejected" "residents" "verified" "ms/decision";
  let metrics = ref [] in
  List.iter
    (fun cores ->
      let t0 = Unix.gettimeofday () in (* lint: L5 — decision-latency measurement; the bench metric itself *)
      let _mgr, o = Sl.Trace.run ~host_cores:cores (B.internet2 ()) tr in
      let dt = Unix.gettimeofday () -. t0 in (* lint: L5 — decision-latency measurement; the bench metric itself *)
      let decisions = o.Sl.Trace.events - o.Sl.Trace.ignored in
      let ms_per =
        if decisions = 0 then 0.0
        else dt *. 1000.0 /. float_of_int decisions
      in
      let rejected =
        o.Sl.Trace.rejected_capacity + o.Sl.Trace.rejected_tag_space
        + o.Sl.Trace.rejected_verifier
      in
      Printf.printf "%-12d %-9d %-9d %-9d %-10d %.1f\n%!" cores
        o.Sl.Trace.admitted rejected o.Sl.Trace.residents
        o.Sl.Trace.verifier_passes ms_per;
      metrics :=
        (Printf.sprintf "cores%d.decision_ms" cores, ms_per)
        :: (Printf.sprintf "cores%d.verifier_passes" cores,
            float_of_int o.Sl.Trace.verifier_passes)
        :: (Printf.sprintf "cores%d.residents" cores,
            float_of_int o.Sl.Trace.residents)
        :: (Printf.sprintf "cores%d.rejected" cores, float_of_int rejected)
        :: (Printf.sprintf "cores%d.admitted" cores,
            float_of_int o.Sl.Trace.admitted)
        :: !metrics)
    [ 16; 32; 64 ];
  record "slice" (("events", float_of_int (List.length tr.Sl.Trace.entries))
                  :: List.rev !metrics)

let run_micro () =
  print_endline "== Micro-benchmarks (Bechamel, monotonic clock) ==";
  Printf.printf "(overlap intersections: %d classification rules at the busiest GEANT switch)\n%!"
    (List.length (Lazy.force overlap_rules));
  let tests =
    [
      test_simplex_small;
      test_decompose;
      test_rulegen;
      test_walk;
      test_verify;
      test_overlap;
      test_atoms;
      test_chash;
      test_drfq;
      test_optimize;
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:300 ~stabilize:true ~quota:(Time.second 1.0) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      (* lint: L3 — bechamel result table has a single entry per test *)
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (ns :: _) ->
              let pretty =
                if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
                else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
                else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
                else Printf.sprintf "%.0f ns" ns
              in
              Printf.printf "%-45s %12s / run\n%!" name pretty
          | Some [] | None -> Printf.printf "%-45s (no estimate)\n%!" name)
        results)
    tests

let () =
  Printf.printf
    "APPLE reproduction benchmarks (seed=%d scale=%.2f)\n\
     =================================================\n\n%!"
    seed scale;
  if json_path <> None then T.set_enabled true;
  let opts = { C.Experiments.seed; scale } in
  if wants "paper" then reproduce_paper opts
  else
    (* Individual artifacts (skipped when the whole paper section ran). *)
    List.iter
      (fun name -> if wants name then run_artifact opts name)
      experiment_names;
  if wants "ablations" then run_ablations opts;
  if wants "failover" then run_failover opts;
  if wants "soak" then run_soak ();
  if wants "slice" then run_slice ();
  if wants "micro" then run_micro ();
  Option.iter write_snapshot json_path;
  print_endline "\nbench: done"
