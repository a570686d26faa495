(* Command-line front-end: run any paper experiment, solve a placement for
   one topology, or replay traffic with fast failover. *)

module C = Apple_core
module B = Apple_topology.Builders
module Tr = Apple_traffic
module Rng = Apple_prelude.Rng
module T = Apple_telemetry.Telemetry
module V = Apple_verify.Verify
module Obs = Apple_obs.Counters
module Flight = Apple_obs.Flight
module Poller = Apple_obs.Poller
module Provenance = Apple_obs.Provenance
module Top = Apple_obs.Top
module Walk = Apple_dataplane.Walk
module PS = Apple_packetsim.Packet_sim
module I = Apple_vnf.Instance
module Ch = Apple_chaos
module Sk = Apple_soak.Soak
module Sl = Apple_slice
module Trc = Apple_trace.Trace
module Paths = Apple_prelude.Paths

open Cmdliner

(* --- run context ------------------------------------------------------ *)

(* An output path whose parent directory must exist.  The check runs when
   the argument is parsed, so a bad path is a one-line argument error
   before any work, not a [Sys_error] at the end of the run. *)
let output_conv what =
  Arg.conv'
    ( (fun path -> Result.map (fun () -> path) (Paths.check_parent ~what path)),
      Format.pp_print_string )

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

let metrics_arg =
  let doc =
    "Enable telemetry and tracing and print a metrics report (counters, \
     gauges such as pool utilization, histograms, and per-span wall \
     timings from the causal tracer) after the command, in the given \
     $(docv): $(b,text), $(b,json) (JSON-lines) or $(b,prom) \
     (Prometheus text format)."
  in
  let env = Cmd.Env.info "APPLE_METRICS" ~doc:"Same as $(b,--metrics)." in
  Arg.(
    value
    & opt (some (enum [ ("text", T.Text); ("json", T.Json); ("prom", T.Prom) ])) None
    & info [ "metrics" ] ~docv:"FORMAT" ~env ~doc)

let metrics_out_arg =
  let doc =
    "Write the metrics report to $(docv) instead of stdout.  Implies \
     $(b,--metrics) (text format unless one was given) — handy for CI \
     artifact collection."
  in
  let env = Cmd.Env.info "APPLE_METRICS_OUT" ~doc:"Same as $(b,--metrics-out)." in
  Arg.(
    value
    & opt (some (output_conv "metrics report")) None
    & info [ "metrics-out" ] ~docv:"FILE" ~env ~doc)

let trace_out_arg =
  let doc =
    "Record a causal trace of the run and write it to $(docv) as Chrome \
     trace-event JSON (schema $(b,apple-trace/1)) — load it in Perfetto \
     (ui.perfetto.dev), speedscope or chrome://tracing."
  in
  Arg.(
    value
    & opt (some (output_conv "trace")) None
    & info [ "trace-out" ] ~docv:"FILE" ~doc)

let trace_mode_arg =
  let doc =
    "Trace timestamp source: $(b,sim) renders on the deterministic \
     simulation clock (wall-time, domain and allocation fields zeroed; \
     byte-identical across $(b,--jobs)), $(b,wall) renders host wall-clock \
     lanes per domain with allocation counts for profiling."
  in
  Arg.(
    value
    & opt (enum [ ("sim", Trc.Sim); ("wall", Trc.Wall) ]) Trc.Sim
    & info [ "trace-mode" ] ~docv:"MODE" ~doc)

(* The instrumentation a subcommand runs under. *)
type context = {
  report : (T.format * string option) option;
      (* metrics report format, and its file ([None]: stdout) *)
  trace : (string option * Trc.mode) option;
      (* tracing on: the Chrome export file, if any, and its clock *)
}

let report_term =
  let report metrics out =
    match (metrics, out) with
    | None, None -> None
    | fmt, out -> Some (Option.value ~default:T.Text fmt, out)
  in
  Term.(const report $ metrics_arg $ metrics_out_arg)

let metrics_context =
  Term.(const (fun report -> { report; trace = None }) $ report_term)

(* Tracing is always on; [--trace-out] adds the Chrome export. *)
let profile_context =
  Term.(
    const (fun report out mode -> { report; trace = Some (out, mode) })
    $ report_term $ trace_out_arg $ trace_mode_arg)

let full_context =
  Term.(
    const (fun report out mode ->
        { report; trace = Option.map (fun path -> (Some path, mode)) out })
    $ report_term $ trace_out_arg $ trace_mode_arg)

(* Run [f] under [ctx]: the metrics report outermost, which switches
   telemetry and tracing on (the report's span block comes from the
   tracer); then the tracer.  The report (to stdout or its file) and the
   Chrome export are written also when [f] fails, so a crashed run still
   shows what it did up to that point. *)
let run ctx f =
  let report_scope f =
    match ctx.report with
    | None -> f ()
    | Some (fmt, out) ->
        T.set_enabled true;
        Trc.set_enabled true;
        let emit () =
          let report = T.render fmt in
          match out with
          | None -> print_string report
          | Some path -> write_file path report
        in
        Fun.protect ~finally:emit f
  in
  let trace_scope f =
    match ctx.trace with
    | None -> f ()
    | Some (out, mode) ->
        Trc.reset ();
        Trc.set_enabled true;
        let emit () =
          Trc.set_enabled false;
          Option.iter
            (fun path -> write_file path (Trc.render_chrome ~mode ()))
            out
        in
        Fun.protect ~finally:emit f
  in
  report_scope @@ fun () -> trace_scope f

(* A subcommand whose action runs under [context]; the action term leaves
   the action's last, unit argument to [run]. *)
let command name ~doc context action =
  Cmd.v (Cmd.info name ~doc) Term.(ret (const run $ context $ action))

(* --- shared options --------------------------------------------------- *)

let topology_of_string = function
  | "internet2" -> Ok (B.internet2 ())
  | "geant" -> Ok (B.geant ())
  | "univ1" -> Ok (B.univ1 ())
  | "as3679" -> Ok (B.as3679 ())
  | s -> Error (`Msg (Printf.sprintf "unknown topology %S (expected internet2|geant|univ1|as3679)" s))

let topology_conv =
  Arg.conv
    ( (fun s -> topology_of_string s),
      fun ppf t -> Format.pp_print_string ppf t.B.label )

let topology_arg =
  let doc = "Topology: internet2, geant, univ1 or as3679." in
  Arg.(value & opt topology_conv (B.internet2 ()) & info [ "topology"; "t" ] ~docv:"TOPO" ~doc)

let seed_arg =
  let doc = "Random seed; every run is deterministic for a given seed." in
  Arg.(value & opt int 20160627 & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let doc =
    "Scale factor for run counts and snapshot counts (1.0 = paper scale, \
     0.05 = quick smoke run)."
  in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"SCALE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel engine sections (default: the \
     APPLE_JOBS environment variable, else the machine's core count).  \
     Results are byte-identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let engine_conv = Arg.enum [ ("best", `Best); ("lp", `Lp); ("greedy", `Greedy) ]

let engine_info =
  let doc =
    "Placement engine: $(b,best) (per-class shortest paths raced \
     against the greedy), $(b,lp) (monolithic LP pipeline) or \
     $(b,greedy)."
  in
  Arg.info [ "engine" ] ~docv:"ENGINE" ~doc

let engine_arg = Arg.(value & opt engine_conv `Best & engine_info)

let total_arg default =
  let doc = "Network-wide offered load in Mbps." in
  Arg.(value & opt float default & info [ "total" ] ~docv:"MBPS" ~doc)

let max_classes_arg default =
  let doc = "Maximum number of origin-destination pairs carrying policies." in
  Arg.(value & opt int default & info [ "max-classes" ] ~docv:"N" ~doc)

let flight_conv = output_conv "flight dump"

let flight_info =
  let doc =
    "Dump the flight recorder (binary event ring) to $(docv) after the \
     run ($(b,verify) dumps it only when the verifier rejects the \
     configuration); inspect it with $(b,apple trace)."
  in
  Arg.info [ "flight-out" ] ~docv:"FILE" ~doc

let flight_out_arg = Arg.(value & opt (some flight_conv) None & flight_info)

(* The scenario solve, verify and top run on: [max_classes] classes over
   [tm], by default a gravity matrix of [total] Mbps drawn from [seed]. *)
let build_scenario ?tm topo ~seed ~total ~max_classes =
  let tm =
    match tm with
    | Some tm -> tm
    | None ->
        let n = Apple_topology.Graph.num_nodes topo.B.graph in
        Tr.Synth.gravity (Rng.create seed) ~n ~total
  in
  let config = { C.Scenario.default_config with C.Scenario.max_classes } in
  C.Scenario.build ~config ~seed topo tm

(* --- experiment command ------------------------------------------- *)

let experiment_names =
  [ "table1"; "table3"; "table4"; "table5"; "fig6"; "fig7"; "fig8"; "fig9";
    "fig10"; "fig11"; "fig12"; "ablations"; "all" ]

let run_experiment name seed scale load_source () =
  let opts = { C.Experiments.seed; scale } in
  let first (r, _) = r in
  match name with
  | "table1" -> C.Experiments.print (C.Experiments.table1 opts); `Ok ()
  | "table3" -> C.Experiments.print (C.Experiments.table3 opts); `Ok ()
  | "table4" -> C.Experiments.print (C.Experiments.table4 opts); `Ok ()
  | "table5" -> C.Experiments.print (first (C.Experiments.table5 opts)); `Ok ()
  | "fig6" -> C.Experiments.print (C.Experiments.fig6 opts); `Ok ()
  | "fig7" -> C.Experiments.print (C.Experiments.fig7 opts); `Ok ()
  | "fig8" -> C.Experiments.print (C.Experiments.fig8 opts); `Ok ()
  | "fig9" ->
      (match load_source with
      | `Oracle -> C.Experiments.print (C.Experiments.fig9 opts)
      | `Polled -> C.Experiments.print (C.Experiments.fig9_polled opts));
      `Ok ()
  | "fig10" -> C.Experiments.print (first (C.Experiments.fig10 opts)); `Ok ()
  | "fig11" -> C.Experiments.print (first (C.Experiments.fig11 opts)); `Ok ()
  | "fig12" -> C.Experiments.print (first (C.Experiments.fig12 opts)); `Ok ()
  | "ablations" ->
      List.iter C.Experiments.print (C.Experiments.ablations opts);
      `Ok ()
  | "all" ->
      List.iter C.Experiments.print (C.Experiments.all opts);
      List.iter C.Experiments.print (C.Experiments.ablations opts);
      `Ok ()
  | other ->
      `Error (false, Printf.sprintf "unknown experiment %S (expected %s)" other
                       (String.concat "|" experiment_names))

(* [Arg.enum] gives the conventional cmdliner error — non-zero exit plus
   the list of valid names — on an unknown experiment. *)
let experiment_conv = Arg.enum (List.map (fun n -> (n, n)) experiment_names)

let experiment_cmd =
  let name_arg =
    let doc = "Experiment to reproduce: " ^ String.concat ", " experiment_names in
    Arg.(
      required
      & pos 0 (some experiment_conv) None
      & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let load_source_arg =
    let doc =
      "Load source driving the Fig. 9 overload detector: $(b,oracle) reads \
       the simulator's ground-truth rate (the paper's setting), $(b,polled) \
       reads EWMA-smoothed dataplane counters through the observability \
       poller and additionally reports detection latency vs poll period.  \
       Only $(b,fig9) honors this."
    in
    Arg.(
      value
      & opt (enum [ ("oracle", `Oracle); ("polled", `Polled) ]) `Oracle
      & info [ "load-source" ] ~docv:"SOURCE" ~doc)
  in
  command "experiment" ~doc:"Reproduce one of the paper's tables or figures"
    metrics_context
    Term.(
      const run_experiment $ name_arg $ seed_arg $ scale_arg $ load_source_arg)

(* --- solve command ------------------------------------------------- *)

let solve_action topo seed total max_classes engine jobs verify tm_file () =
  let n = Apple_topology.Graph.num_nodes topo.B.graph in
  let load path =
    match Tr.Io.load ~path with
    | Ok tm when Tr.Matrix.size tm = n -> tm
    | Ok tm ->
        failwith
          (Printf.sprintf "matrix is %dx%d but %s has %d nodes"
             (Tr.Matrix.size tm) (Tr.Matrix.size tm) topo.B.label n)
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let gate = if verify then Some V.gate else None in
  (try
     let scenario =
       build_scenario ?tm:(Option.map load tm_file) topo ~seed ~total
         ~max_classes
     in
     let controller = C.Controller.create ~engine ?jobs ?gate scenario in
     let report = C.Controller.run_epoch controller in
     Format.printf "topology:    %s (%d nodes, %d links)@." topo.B.label n
       (Apple_topology.Graph.num_edges topo.B.graph);
     Format.printf "classes:     %d (%.1f Mbps total)@."
       (Array.length scenario.C.Types.classes)
       (C.Types.total_rate scenario);
     Format.printf "model:       %s@."
       report.C.Controller.placement.C.Optimization_engine.model_size;
     Format.printf "instances:   %d (%d CPU cores)@." report.C.Controller.instances
       report.C.Controller.cores;
     Format.printf "LP bound:    %.2f instances@."
       report.C.Controller.placement.C.Optimization_engine.lp_objective;
     Format.printf "TCAM:        %d entries with tagging, %d without (%.1fx)@."
       report.C.Controller.rules.C.Rule_generator.tcam_with_tagging
       report.C.Controller.rules.C.Rule_generator.tcam_without_tagging
       (C.Rule_generator.reduction_ratio report.C.Controller.rules);
     Format.printf "solve time:  %.3f s@." report.C.Controller.solve_seconds;
     if verify then begin
       Format.printf
         "gate:        static verifier certified the rule tables@.";
       match C.Controller.verify controller with
       | Ok () ->
           Format.printf
             "verified:    policy enforcement + interference freedom on every sub-class@."
       | Error e -> Format.printf "VERIFY FAILED: %s@." e
     end;
     `Ok ()
   with
   | C.Optimization_engine.Infeasible msg -> `Error (false, "infeasible: " ^ msg)
   | C.Controller.Rejected msg ->
       `Error (false, "rejected by static verifier: " ^ msg)
   | Failure msg -> `Error (false, msg))

let solve_cmd =
  let verify_arg =
    let doc = "Run the end-to-end packet-walk verification after solving." in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let tm_arg =
    let doc =
      "Load the traffic matrix from a CSV file (rows = origins, columns = \
       destinations, Mbps) instead of synthesizing one."
    in
    Arg.(value & opt (some file) None & info [ "tm" ] ~docv:"FILE" ~doc)
  in
  command "solve"
    ~doc:"Run the Optimization Engine once and print the placement summary"
    full_context
    Term.(
      const solve_action $ topology_arg $ seed_arg $ total_arg 6000.0
      $ max_classes_arg 120 $ engine_arg $ jobs_arg $ verify_arg $ tm_arg)

(* --- verify command ------------------------------------------------ *)

(* One representative packet walk per sub-class, labelled with the
   sub-class key as its flow id so the flight recorder (and [apple
   trace]) can attribute each event to a flow. *)
let walk_representatives scenario asg (built : C.Rule_generator.built) =
  List.iter
    (fun ((c : C.Types.flow_class), reps) ->
      List.iter
        (fun (sub, p) ->
          ignore
            (Walk.run built.C.Rule_generator.network
               ~path:(Array.to_list c.C.Types.path)
               ~cls:c.C.Types.id ~src_ip:p.C.Types.Prefix.addr
               ~flow:(C.Subclass.key sub) ()))
        reps)
    (C.Rule_generator.representatives scenario asg built)

let code_ordinal = function
  | V.Chain_order -> 0
  | V.Path_deviation -> 1
  | V.Blackhole -> 2
  | V.Forwarding_loop -> 3
  | V.Shadowed_rule -> 4
  | V.Tag_collision -> 5
  | V.Isolation -> 6
  | V.Capacity -> 7
  | V.Unverified -> 8

(* Evidence for a rejected configuration: re-walk every sub-class
   representative with the flight recorder on, append one Violation
   event per verifier finding, and dump the ring next to the report. *)
let dump_flight_evidence ~path scenario asg built (r : V.report) =
  let saved = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled saved) @@ fun () ->
  Flight.clear ();
  walk_representatives scenario asg built;
  List.iter
    (fun v ->
      Flight.record Flight.Violation
        ~a:(code_ordinal v.V.code)
        ~b:(Option.value ~default:(-1) v.V.class_id)
        ~c:(Option.value ~default:(-1) v.V.sub_id)
        ~d:(Option.value ~default:(-1) v.V.switch)
        ())
    r.V.violations;
  Flight.dump ~path

let verify_action topo seed total max_classes engine jobs flight_out () =
  let scenario = build_scenario topo ~seed ~total ~max_classes in
  (* Capture the full report through the controller's admission gate so
     the command exercises the same code path as a gated epoch. *)
  let captured = ref None in
  let gate ?changed s asg built =
    captured := Some (V.check ?changed s asg built, asg, built);
    Ok ()
  in
  let controller = C.Controller.create ~engine ?jobs ~gate scenario in
  try
    let report = C.Controller.run_epoch controller in
    match !captured with
    | None -> `Error (false, "internal error: the verifier gate never ran")
    | Some (r, asg, built) ->
        Format.printf "topology:  %s (%d nodes), %d classes, engine %a@."
          topo.B.label
          (Apple_topology.Graph.num_nodes topo.B.graph)
          (Array.length scenario.C.Types.classes)
          (Arg.conv_printer engine_conv)
          engine;
        Format.printf "placement: %d instances (%d cores), %d TCAM entries@."
          report.C.Controller.instances report.C.Controller.cores
          report.C.Controller.tcam_entries;
        Format.printf "%a" V.pp_report r;
        if V.ok r then `Ok ()
        else begin
          dump_flight_evidence ~path:flight_out scenario asg built r;
          Format.printf "flight recorder dumped to %s (see apple trace)@."
            flight_out;
          `Error (false, "configuration rejected by the static verifier")
        end
  with C.Optimization_engine.Infeasible msg ->
    `Error (false, "infeasible: " ^ msg)

let verify_cmd =
  let flight_out_arg =
    Arg.(value & opt flight_conv "apple-flight.bin" & flight_info)
  in
  command "verify"
    ~doc:
      "Statically certify a generated configuration: chain order, \
       interference freedom, isolation, capacity and table \
       well-formedness, with a concrete witness per violation"
    metrics_context
    Term.(
      const verify_action $ topology_arg $ seed_arg $ total_arg 6000.0
      $ max_classes_arg 120 $ engine_arg $ jobs_arg $ flight_out_arg)

(* --- replay command ------------------------------------------------ *)

let replay_action topo seed snapshots () =
  let profile =
    { Tr.Synth.default_profile with Tr.Synth.snapshots; total_rate = 3000.0;
      burst_probability = 0.06; burst_factor = 25.0; burst_length = 6 }
  in
  let result = C.Simulation.replay ~seed topo ~profile in
  Format.printf "topology:      %s@." result.C.Simulation.label;
  Format.printf "snapshots:     %d@." snapshots;
  Format.printf "APPLE cores:   %d (ingress strawman: %d)@."
    result.C.Simulation.apple_cores result.C.Simulation.ingress_cores;
  let mean = Apple_prelude.Stats.mean in
  Format.printf "loss (fast failover): mean %.4f%%  p95 %.4f%%@."
    (100.0 *. mean result.C.Simulation.loss_with_failover)
    (100.0 *. Apple_prelude.Stats.percentile result.C.Simulation.loss_with_failover 95.0);
  Format.printf "loss (static):        mean %.4f%%  p95 %.4f%%@."
    (100.0 *. mean result.C.Simulation.loss_without_failover)
    (100.0 *. Apple_prelude.Stats.percentile result.C.Simulation.loss_without_failover 95.0);
  Format.printf "extra failover cores: %.1f average@." result.C.Simulation.mean_extra_cores;
  List.iter
    (fun (k, v) -> Format.printf "  %s: %d@." k v)
    result.C.Simulation.failover_events;
  `Ok ()

let replay_cmd =
  let snapshots_arg =
    let doc = "Number of traffic snapshots to replay." in
    Arg.(value & opt int 672 & info [ "snapshots" ] ~docv:"N" ~doc)
  in
  command "replay"
    ~doc:"Replay time-varying traffic with and without fast failover"
    metrics_context
    Term.(const replay_action $ topology_arg $ seed_arg $ snapshots_arg)

(* --- policies command ----------------------------------------------- *)

let policies_action topo file verify () =
  let env = Apple_classifier.Predicate.env () in
  match C.Policy_file.parse_file ~env ~topology:topo ~path:file with
  | Error e -> `Error (false, Format.asprintf "%s: %a" file C.Policy_file.pp_error e)
  | Ok flows -> (
      try
        let r = C.Flow_aggregation.aggregate ~env topo flows in
        Format.printf "%d policies -> %d equivalence classes (%d atomic predicates)@."
          (List.length flows)
          (Array.length r.C.Flow_aggregation.scenario.C.Types.classes)
          (List.length r.C.Flow_aggregation.atoms);
        List.iter
          (fun info ->
            let cls =
              r.C.Flow_aggregation.scenario.C.Types.classes.(info.C.Flow_aggregation.class_id)
            in
            Format.printf
              "  class %d: %d member(s), %.1f Mbps, chain %s, %d classifier rule(s)@."
              info.C.Flow_aggregation.class_id
              (List.length info.C.Flow_aggregation.members)
              cls.C.Types.rate
              (Apple_vnf.Nf.chain_to_string (Array.to_list cls.C.Types.chain))
              info.C.Flow_aggregation.tcam_rules)
          r.C.Flow_aggregation.classes_info;
        let gate = if verify then Some V.gate else None in
        let controller = C.Controller.create ?gate r.C.Flow_aggregation.scenario in
        let report = C.Controller.run_epoch controller in
        Format.printf "placement: %d instances, %d cores, %d TCAM entries@."
          report.C.Controller.instances report.C.Controller.cores
          report.C.Controller.tcam_entries;
        if verify then begin
          Format.printf "gate: static verifier certified the rule tables@.";
          match C.Controller.verify controller with
          | Ok () -> Format.printf "verified: every class enforced on its unchanged path@."
          | Error e -> Format.printf "VERIFY FAILED: %s@." e
        end;
        `Ok ()
      with
      | C.Flow_aggregation.No_route m -> `Error (false, m)
      | C.Optimization_engine.Infeasible m -> `Error (false, "infeasible: " ^ m)
      | C.Controller.Rejected m ->
          `Error (false, "rejected by static verifier: " ^ m))

let policies_cmd =
  let file_arg =
    let doc = "Policy file (see Apple_core.Policy_file for the grammar)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let verify_arg =
    let doc = "Packet-walk every class after solving." in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  command "policies"
    ~doc:"Aggregate a policy file into classes, place VNFs and verify"
    metrics_context
    Term.(const policies_action $ topology_arg $ file_arg $ verify_arg)

(* --- top command ---------------------------------------------------- *)

let top_action topo seed total max_classes duration once flight_out () =
  let scenario = build_scenario topo ~seed ~total ~max_classes in
  let controller = C.Controller.create scenario in
  try
    let report = C.Controller.run_epoch controller in
    let asg =
      match C.Controller.assignment controller with
      | Some asg -> asg
      | None -> failwith "internal error: epoch left no assignment"
    in
    let built = report.C.Controller.rules in
    (* One CBR flow per sub-class, offered at the sub-class's pinned
       share of its class rate (1500 B packets). *)
    let flows =
      List.concat_map
        (fun ((c : C.Types.flow_class), reps) ->
          List.filter_map
            (fun (sub, p) ->
              let mbps = c.C.Types.rate *. sub.C.Subclass.weight in
              let pps = mbps *. 1e6 /. 8.0 /. 1500.0 in
              if pps >= 1.0 then
                Some
                  {
                    PS.flow_name =
                      Printf.sprintf "c%d.s%d" c.C.Types.id sub.C.Subclass.sub_id;
                    cls = c.C.Types.id;
                    src_ip = p.C.Types.Prefix.addr;
                    path = Array.to_list c.C.Types.path;
                    source = PS.Cbr pps;
                    start_at = 0.0;
                    stop_at = duration;
                  }
              else None)
            reps)
        (C.Rule_generator.representatives scenario asg built)
    in
    if flows = [] then failwith "no sub-class carries measurable traffic";
    let saved = Obs.enabled () in
    Obs.reset ();
    Flight.clear ();
    Obs.set_enabled true;
    Fun.protect ~finally:(fun () -> Obs.set_enabled saved)
    @@ fun () ->
    let poller = Poller.create () in
    let poll now =
      Poller.poll poller ~now;
      if not once then print_endline (Top.summary ~now poller)
    in
    let r =
      PS.run ~seed ~network:built.C.Rule_generator.network
        ~instances:asg.C.Subclass.instances ~flows ~duration
        ~poll:(Poller.period poller, poll)
        ()
    in
    let capacities =
      List.map
        (fun i -> (I.id i, (I.spec i).Apple_vnf.Nf.capacity_mbps))
        asg.C.Subclass.instances
    in
    print_string (Top.render ~capacities ~now:duration poller);
    Format.printf
      "simulated %.2fs of traffic: %d flows, %d packets sent, %.3f%% lost@."
      duration (List.length flows) r.PS.total_sent (100.0 *. r.PS.loss_rate);
    (match flight_out with
    | None -> ()
    | Some path ->
        Flight.dump ~path;
        Format.printf "flight recorder dumped to %s@." path);
    `Ok ()
  with
  | C.Optimization_engine.Infeasible msg -> `Error (false, "infeasible: " ^ msg)
  | PS.Unroutable msg -> `Error (false, "unroutable flow: " ^ msg)
  | Failure msg -> `Error (false, msg)

let top_cmd =
  let duration_arg =
    let doc = "Virtual seconds of packet traffic to simulate." in
    Arg.(value & opt float 0.25 & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let once_arg =
    let doc =
      "Print only the final load tables (default also prints one status \
       line per counter poll)."
    in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  command "top"
    ~doc:
      "Solve an epoch, drive packet traffic through the installed rule \
       tables, and render per-switch and per-VNF-instance load from \
       polled dataplane counters"
    metrics_context
    Term.(
      const top_action $ topology_arg $ seed_arg $ total_arg 2000.0
      $ max_classes_arg 40 $ duration_arg $ once_arg $ flight_out_arg)

(* --- trace command --------------------------------------------------- *)

let trace_action flow dump =
  match Flight.load ~path:dump with
  | Error e -> `Error (false, e)
  | Ok events -> (
      match flow with
      | None ->
          let listing = Provenance.flows events in
          Format.printf "%s: %d event(s), %d flow(s)@." dump
            (List.length events) (List.length listing);
          List.iter
            (fun (f, count) ->
              let chain = Provenance.of_events events ~flow:f in
              let outcome =
                match chain.Provenance.outcome with
                | `Ok -> "ok"
                | `Failed e -> "FAILED: " ^ e
                | `Unknown -> "unknown"
              in
              Format.printf "  flow %d: %d event(s), %s@." f count outcome)
            listing;
          `Ok ()
      | Some f ->
          print_string (Provenance.render (Provenance.of_events events ~flow:f));
          `Ok ())

let trace_cmd =
  let flow_arg =
    let doc =
      "Flow id to explain (a sub-class key for verifier walks, a flow \
       index for packet-sim runs).  Without it, list every flow in the \
       dump."
    in
    Arg.(value & pos 0 (some int) None & info [] ~docv:"FLOW" ~doc)
  in
  let dump_arg =
    let doc = "Flight-recorder dump to read." in
    Arg.(
      value
      & opt string "apple-flight.bin"
      & info [ "dump" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Reconstruct a flow's causal chain (classification rule, sub-class \
          tag, hosts, VNF instances, outcome) from a flight-recorder dump")
    Term.(ret (const trace_action $ flow_arg $ dump_arg))

(* --- chaos command -------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let chaos_action topo seed schedule_file duration round jobs boot flight_out
    () =
  let schedule =
    match schedule_file with
    | Some path -> Ch.Fault.parse (read_file path)
    | None ->
        (* Default drill: kill the hottest instance half a second in. *)
        Ok
          (Ch.Fault.add Ch.Fault.empty ~at:0.5
             (Ch.Fault.Kill_instance Ch.Fault.Hottest))
  in
  match schedule with
  | Error m -> `Error (false, "bad schedule: " ^ m)
  | Ok schedule -> (
      Obs.set_enabled true;
      let config =
        { Ch.Chaos.default_config with Ch.Chaos.duration; round; jobs; boot }
      in
      let s =
        Ch.Experiments.scenario_for { C.Experiments.seed; scale = 1.0 } topo
      in
      try
        let o = Ch.Chaos.run ~config ~seed ~schedule s in
        print_string (Ch.Chaos.render o);
        (match flight_out with
        | Some path when Flight.length () > 0 ->
            Flight.dump ~path;
            Format.printf "flight recorder dumped to %s (see apple trace)@."
              path
        | _ -> ());
        `Ok ()
      with
      | C.Controller.Rejected m ->
          `Error (false, "initial epoch rejected by the static verifier: " ^ m)
      | C.Optimization_engine.Infeasible m -> `Error (false, "infeasible: " ^ m))

let chaos_cmd =
  let schedule_arg =
    let doc =
      "Fault schedule file (lines $(b,at TIME KIND ARGS); see \
       examples/chaos_internet2.sched).  Without one, a single \
       kill-instance drill against the hottest instance runs at t=0.5 s."
    in
    Arg.(
      value & opt (some file) None & info [ "schedule" ] ~docv:"FILE" ~doc)
  in
  let duration_arg =
    let doc =
      "Run length in simulated seconds; 0 auto-extends past the last \
       scheduled event plus the slowest respawn."
    in
    Arg.(value & opt float 0.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let round_arg =
    let doc = "Control-round period in simulated seconds." in
    Arg.(value & opt float 0.05 & info [ "round" ] ~docv:"SECONDS" ~doc)
  in
  let boot_arg =
    let doc =
      "Respawn boot path: $(b,clickos) (30 ms), $(b,openstack) (3.9-4.6 s), \
       $(b,reconfigure) (30 ms) or $(b,normal) (30 s).  Default: per-kind."
    in
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("clickos", Apple_vnf.Lifecycle.Raw_clickos);
                  ("openstack", Apple_vnf.Lifecycle.Openstack);
                  ("reconfigure", Apple_vnf.Lifecycle.Reconfigure);
                  ("normal", Apple_vnf.Lifecycle.Normal_vm);
                ]))
          None
      & info [ "boot" ] ~docv:"PATH" ~doc)
  in
  command "chaos"
    ~doc:
      "Inject a deterministic fault schedule (VM deaths, link/switch \
       failures, TCAM rule loss, poller blackouts) into a running \
       scenario and report recovery times, packet loss and verifier \
       status per fault"
    full_context
    Term.(
      const chaos_action $ topology_arg $ seed_arg $ schedule_arg
      $ duration_arg $ round_arg $ jobs_arg $ boot_arg $ flight_out_arg)

(* --- failover experiment command ------------------------------------ *)

let failover_action seed scale () =
  C.Experiments.print (Ch.Experiments.fig_failover { C.Experiments.seed; scale });
  `Ok ()

let failover_cmd =
  command "failover"
    ~doc:
      "Run the failover table: recovery time, packets lost and verifier \
       status per fault kind and schedule density on Internet2 and GEANT"
    metrics_context
    Term.(const failover_action $ seed_arg $ scale_arg)

(* --- soak command --------------------------------------------------- *)

let soak_action topo seed epochs reopt cycle total classes heal
    loss_band window_band mem_slack engine jobs load_source schedule_file
    state_dir resume halt_at stream_path summary_out bench_json_out flight_out
    () =
  let schedule =
    match schedule_file with
    | Some path -> Ch.Fault.parse (read_file path)
    | None -> Ok Ch.Fault.empty
  in
  match schedule with
  | Error m -> `Error (false, "bad schedule: " ^ m)
  | Ok schedule -> (
      let cfg =
        {
          (Sk.default_config topo) with
          Sk.seed;
          epochs;
          reopt_every = reopt;
          cycle;
          total_rate = total;
          max_classes = classes;
          heal_after = heal;
          loss_band;
          window_band;
          mem_slack;
          engine;
          jobs;
          load_source;
          schedule;
        }
      in
      (match flight_out with Some _ -> Obs.set_enabled true | None -> ());
      (match state_dir with
      | Some d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755
      | None -> ());
      let stream_path =
        match (stream_path, state_dir) with
        | Some p, _ -> Some p
        | None, Some d -> Some (Filename.concat d "stream.log")
        | None, None -> None
      in
      let sess =
        if resume then
          match state_dir with
          | None -> Error "soak: --resume needs --state-dir"
          | Some d -> Sk.resume_dir ?stream_path cfg ~dir:d
        else Sk.create ?stream_path cfg
      in
      match sess with
      | Error m -> `Error (false, m)
      | Ok sess ->
          let o = Sk.run ?halt_at ?state_dir sess in
          print_string o.Sk.summary;
          print_string o.Sk.perf;
          Option.iter (fun path -> write_file path o.Sk.summary) summary_out;
          (match bench_json_out with
          | Some path ->
              write_file path (Sk.bench_json sess o);
              Format.printf "bench trajectory written to %s@." path
          | None -> ());
          (match flight_out with
          | Some path when Flight.length () > 0 ->
              Flight.dump ~path;
              Format.printf "flight recorder dumped to %s (see apple trace)@."
                path
          | _ -> ());
          (match o.Sk.violations with
          | _ :: _ as vs ->
              `Error
                ( false,
                  Printf.sprintf "soak: %d invariant violation(s)"
                    (List.length vs) )
          | [] ->
              if o.Sk.completed && not o.Sk.mem_flat then
                `Error (false, "soak: live words grew past the allowed slack")
              else `Ok ()))

let soak_cmd =
  let epochs_arg =
    let doc = "Total epochs (traffic snapshots) to run." in
    Arg.(value & opt int 2000 & info [ "epochs" ] ~docv:"N" ~doc)
  in
  let reopt_arg =
    let doc =
      "Epochs between global re-optimizations (96 = one diurnal day); a \
       checkpoint is written at each one."
    in
    Arg.(value & opt int 96 & info [ "reopt-every" ] ~docv:"N" ~doc)
  in
  let cycle_arg =
    let doc = "Traffic snapshots before the diurnal sequence repeats." in
    Arg.(value & opt int 672 & info [ "cycle" ] ~docv:"N" ~doc)
  in
  let heal_arg =
    let doc = "Epochs between a kill fault and its respawn heal." in
    Arg.(value & opt int 2 & info [ "heal-after" ] ~docv:"N" ~doc)
  in
  let loss_band_arg =
    let doc = "Per-epoch fault-free loss bound (invariant)." in
    Arg.(value & opt float 0.15 & info [ "loss-band" ] ~docv:"FRACTION" ~doc)
  in
  let window_band_arg =
    let doc = "Per-window fault-free mean loss bound (invariant)." in
    Arg.(value & opt float 0.02 & info [ "window-band" ] ~docv:"FRACTION" ~doc)
  in
  let mem_slack_arg =
    let doc =
      "Allowed live-words growth factor over the first window boundary's \
       sample (perf verdict)."
    in
    Arg.(value & opt float 1.5 & info [ "mem-slack" ] ~docv:"FACTOR" ~doc)
  in
  let load_source_arg =
    let doc =
      "Where the Dynamic Handler reads instance loads: $(b,oracle) (simulator \
       ground truth) or $(b,polled) (counter-derived estimates)."
    in
    Arg.(
      value
      & opt (enum [ ("oracle", Sk.Oracle); ("polled", Sk.Polled) ]) Sk.Oracle
      & info [ "load-source" ] ~docv:"SOURCE" ~doc)
  in
  let schedule_arg =
    let doc =
      "Fault schedule file (lines $(b,at EPOCH KIND ARGS); see \
       examples/soak_internet2.soak).  Times are epochs, not seconds."
    in
    Arg.(value & opt (some file) None & info [ "schedule" ] ~docv:"FILE" ~doc)
  in
  let state_dir_arg =
    let doc =
      "Directory for checkpoint.apple and stream.log; enables kill/resume."
    in
    Arg.(
      value
      & opt (some (output_conv "state directory")) None
      & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let resume_arg =
    let doc = "Resume from $(b,--state-dir)'s last checkpoint." in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let halt_arg =
    let doc = "Stop after $(docv) epochs (for kill/resume drills)." in
    Arg.(value & opt (some int) None & info [ "halt-at" ] ~docv:"EPOCH" ~doc)
  in
  let stream_arg =
    let doc =
      "Write the deterministic per-epoch stream to $(docv) (default: \
       $(b,--state-dir)/stream.log when a state dir is given)."
    in
    Arg.(
      value
      & opt (some (output_conv "stream")) None
      & info [ "stream" ] ~docv:"FILE" ~doc)
  in
  let summary_out_arg =
    let doc = "Also write the deterministic summary to $(docv)." in
    Arg.(
      value
      & opt (some (output_conv "summary")) None
      & info [ "summary-out" ] ~docv:"FILE" ~doc)
  in
  let bench_json_arg =
    let doc =
      "Write the BENCH_soak.json trajectory snapshot (schema \
       apple-bench-soak/1) to $(docv)."
    in
    Arg.(
      value
      & opt (some (output_conv "bench snapshot")) None
      & info [ "bench-json" ] ~docv:"FILE" ~doc)
  in
  command "soak"
    ~doc:
      "Thousands-of-epochs endurance run: diurnal traffic, periodic \
       re-optimization, scheduled faults, per-epoch invariant checks, \
       and checkpoint/restore with byte-identical continuation"
    full_context
    Term.(
      const soak_action $ topology_arg $ seed_arg $ epochs_arg $ reopt_arg
      $ cycle_arg $ total_arg 3000.0 $ max_classes_arg 40 $ heal_arg
      $ loss_band_arg $ window_band_arg $ mem_slack_arg $ engine_arg
      $ jobs_arg $ load_source_arg $ schedule_arg $ state_dir_arg
      $ resume_arg $ halt_arg $ stream_arg $ summary_out_arg
      $ bench_json_arg $ flight_out_arg)

(* --- slice command -------------------------------------------------- *)

let slice_action mode topo seed trace_file synth_events tenant name rate demand
    classes weight isolated nat slice_seed host_cores no_gate engine jobs () =
  let gate = not no_gate in
  let load_trace () =
    match (trace_file, synth_events) with
    | Some path, _ -> Sl.Trace.load path
    | None, Some n -> Ok (Sl.Trace.synth ~seed ~events:n)
    | None, None -> Ok { Sl.Trace.cores = None; entries = [] }
  in
  match load_trace () with
  | Error e -> `Error (false, "slice trace: " ^ e)
  | Ok tr -> (
      let mgr, outcome =
        Sl.Trace.run ?engine ?jobs ~gate ?host_cores topo tr
      in
      match mode with
      | `Run ->
          if trace_file = None && synth_events = None then
            `Error
              (false, "run-trace needs --trace FILE or --synth N (event stream)")
          else begin
            print_string (Sl.Trace.render outcome);
            `Ok ()
          end
      | `Admit -> (
          if outcome.Sl.Trace.events > 0 then
            Printf.printf
              "(replayed %d event(s): admitted=%d rejected=%d departed=%d)\n"
              outcome.Sl.Trace.events outcome.Sl.Trace.admitted
              (outcome.Sl.Trace.rejected_capacity
              + outcome.Sl.Trace.rejected_tag_space
              + outcome.Sl.Trace.rejected_verifier)
              outcome.Sl.Trace.departed;
          let spec =
            Sl.Slice.synth_spec topo ~seed:slice_seed ~tenant ~name ~isolated
              ~weight ?demand ~nat ~rate ~classes ()
          in
          match Sl.Slice.admit mgr spec with
          | Ok adm ->
              Printf.printf
                "ADMIT %s/%s: slice=%d residents=%d inst=%d cores=%d tcam=%d \
                 tags=%d (%d left) verified-subclasses=%d\n"
                tenant name adm.Sl.Slice.slice_id adm.Sl.Slice.residents
                adm.Sl.Slice.instances adm.Sl.Slice.cores
                adm.Sl.Slice.tcam_rules adm.Sl.Slice.global_tags
                adm.Sl.Slice.tags_left adm.Sl.Slice.verified_subclasses;
              List.iter
                (fun (k, f) -> Printf.printf "  throttled %s to %.2f\n" k f)
                adm.Sl.Slice.throttled;
              print_string (Sl.Slice.top mgr);
              `Ok ()
          | Error reason ->
              Printf.printf "REJECT %s/%s: %s\n" tenant name
                (Format.asprintf "%a" Sl.Slice.pp_reason reason);
              print_string (Sl.Slice.top mgr);
              `Ok ()
          | exception Invalid_argument msg -> `Error (false, msg))
      | `Depart -> (
          match Sl.Slice.depart mgr ~tenant ~name with
          | Ok d ->
              Printf.printf
                "DEPART %s/%s: residents=%d freed-cores=%d freed-tcam=%d \
                 freed-tags=%d\n"
                tenant name d.Sl.Slice.residents d.Sl.Slice.freed_cores
                d.Sl.Slice.freed_tcam d.Sl.Slice.freed_tags;
              print_string (Sl.Slice.top mgr);
              `Ok ()
          | Error e -> `Error (false, e)))

let slice_cmd =
  let mode_arg =
    let doc =
      "What to do: $(b,run-trace) replays an event stream ($(b,--trace) or \
       $(b,--synth)); $(b,admit) replays first (when a stream was given) \
       then admits one slice from the $(b,--tenant)/$(b,--name)/$(b,--rate) \
       flags; $(b,depart) removes a resident slice."
    in
    Arg.(
      value
      & pos 0 (enum [ ("run-trace", `Run); ("admit", `Admit); ("depart", `Depart) ]) `Run
      & info [] ~docv:"MODE" ~doc)
  in
  let trace_arg =
    let doc =
      "Slice arrival/departure trace file (see \
       examples/slices_internet2.trace)."
    in
    Arg.(value & opt (some file) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let synth_arg =
    let doc =
      "Instead of $(b,--trace), synthesize a deterministic $(docv)-event \
       stream from $(b,--seed)."
    in
    Arg.(value & opt (some int) None & info [ "synth" ] ~docv:"EVENTS" ~doc)
  in
  let tenant_arg =
    let doc = "Tenant owning the slice (admit/depart modes)." in
    Arg.(value & opt string "tenant0" & info [ "tenant" ] ~docv:"NAME" ~doc)
  in
  let name_arg =
    let doc = "Slice name, unique per tenant (admit/depart modes)." in
    Arg.(value & opt string "slice0" & info [ "name" ] ~docv:"NAME" ~doc)
  in
  let rate_arg =
    let doc = "Guaranteed aggregate rate in Mbps (admit mode)." in
    Arg.(value & opt float 500.0 & info [ "rate" ] ~docv:"MBPS" ~doc)
  in
  let demand_arg =
    let doc = "Offered demand in Mbps (default: the guaranteed rate)." in
    Arg.(value & opt (some float) None & info [ "demand" ] ~docv:"MBPS" ~doc)
  in
  let classes_arg =
    let doc = "Traffic classes synthesized for the slice." in
    Arg.(value & opt int 3 & info [ "classes" ] ~docv:"N" ~doc)
  in
  let weight_arg =
    let doc = "Fair-share weight under contention." in
    Arg.(value & opt float 1.0 & info [ "weight" ] ~docv:"W" ~doc)
  in
  let isolated_arg =
    let doc = "Demand tenant isolation (dedicated VNF instances)." in
    Arg.(value & flag & info [ "isolated" ] ~doc)
  in
  let nat_arg =
    let doc =
      "Force a header-rewriting (NAT) chain, pushing the joint tables into \
       global-tag mode."
    in
    Arg.(value & flag & info [ "nat" ] ~doc)
  in
  let slice_seed_arg =
    let doc = "Seed for the admitted slice's synthesized spec (admit mode)." in
    Arg.(value & opt int 7 & info [ "slice-seed" ] ~docv:"SEED" ~doc)
  in
  let host_cores_arg =
    let doc =
      "Per-host core budget (default 64, or the trace's $(b,cores) \
       directive)."
    in
    Arg.(value & opt (some int) None & info [ "host-cores" ] ~docv:"N" ~doc)
  in
  let no_gate_arg =
    let doc =
      "Skip the static-verifier admission gate (tag-space and isolation \
       checks still run)."
    in
    Arg.(value & flag & info [ "no-gate" ] ~doc)
  in
  let engine_arg = Arg.(value & opt (some engine_conv) None & engine_info) in
  command "slice"
    ~doc:
      "Multi-tenant slice lifecycle: admit/depart slices online against \
       substrate headroom with the static verifier as the admission gate, \
       weighted cross-slice fairness and per-tenant accounting"
    full_context
    Term.(
      const slice_action $ mode_arg $ topology_arg $ seed_arg $ trace_arg
      $ synth_arg $ tenant_arg $ name_arg $ rate_arg $ demand_arg
      $ classes_arg $ weight_arg $ isolated_arg $ nat_arg $ slice_seed_arg
      $ host_cores_arg $ no_gate_arg $ engine_arg $ jobs_arg)

(* --- topologies command -------------------------------------------- *)

let topologies_action () =
  List.iter
    (fun (t : B.named) ->
      Format.printf "%-10s %3d nodes %4d links  ingress=%d core=%d@." t.B.label
        (Apple_topology.Graph.num_nodes t.B.graph)
        (Apple_topology.Graph.num_edges t.B.graph)
        (List.length t.B.ingress) (List.length t.B.core))
    (B.all_paper_topologies ());
  `Ok ()

let topologies_cmd =
  Cmd.v
    (Cmd.info "topologies" ~doc:"List the built-in evaluation topologies")
    Term.(ret (const topologies_action $ const ()))

(* --- profile command ------------------------------------------------ *)

let profile_action name seed scale jobs () =
  (* The experiment drivers size their pools from APPLE_JOBS; pinning it
     here makes `apple profile --jobs N` reach every parallel section. *)
  Option.iter (fun j -> Unix.putenv "APPLE_JOBS" (string_of_int (max 1 j))) jobs;
  (* The attribution table is a profiler: always wall time. *)
  let table () = print_string (Trc.render_table ~mode:Trc.Wall ()) in
  Fun.protect ~finally:table (run_experiment name seed scale `Oracle)

let profile_cmd =
  let exp_arg =
    let doc =
      "Experiment workload to profile: "
      ^ String.concat ", " experiment_names
      ^ "."
    in
    Arg.(
      value & opt experiment_conv "table3"
      & info [ "experiment" ] ~docv:"EXPERIMENT" ~doc)
  in
  command "profile"
    ~doc:
      "Run an experiment under the causal tracer and print the \
       per-span/per-phase self-time attribution table; optionally \
       export the Chrome trace (apple-trace/1) for Perfetto"
    profile_context
    Term.(const profile_action $ exp_arg $ seed_arg $ scale_arg $ jobs_arg)

let main =
  let doc = "APPLE: interference-free NFV policy enforcement (ICDCS 2016 reproduction)" in
  Cmd.group (Cmd.info "apple" ~doc)
    [
      experiment_cmd;
      solve_cmd;
      verify_cmd;
      replay_cmd;
      policies_cmd;
      top_cmd;
      trace_cmd;
      chaos_cmd;
      failover_cmd;
      soak_cmd;
      slice_cmd;
      profile_cmd;
      topologies_cmd;
    ]

(* Last-gasp flight dump: if a command dies on an uncaught exception
   while the dataplane counters were live, persist whatever the ring
   still holds so [apple trace --dump apple-flight-crash.bin] can
   reconstruct the final flows.  [~catch:false] lets the exception reach
   us instead of cmdliner's backtrace printer; we re-raise with the
   original backtrace so the exit behaviour is unchanged. *)
let () =
  try exit (Cmd.eval ~catch:false main)
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    if Obs.enabled () && Flight.length () > 0 then begin
      Flight.dump ~path:"apple-flight-crash.bin";
      Printf.eprintf "apple: flight recorder dumped to apple-flight-crash.bin\n%!"
    end;
    Printexc.raise_with_backtrace e bt
