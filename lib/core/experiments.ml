module Builders = Apple_topology.Builders
module Synth = Apple_traffic.Synth
module Matrix = Apple_traffic.Matrix
module Rng = Apple_prelude.Rng
module Stats = Apple_prelude.Stats
module Table = Apple_prelude.Text_table
module Nf = Apple_vnf.Nf

type rendered = { title : string; body : string }

let print r =
  Printf.printf "== %s ==\n%s\n\n%!" r.title r.body (* lint: L6 — experiment reports print by contract; callers are CLIs *)

type opts = { seed : int; scale : float }

let default_opts = { seed = 20160627; scale = 1.0 }

let scaled opts n = max 1 (int_of_float (float_of_int n *. opts.scale))

let check = function true -> "yes" | false -> "NO"

(* Small scenario shared by a few artifacts. *)
let small_scenario opts =
  let named = Builders.internet2 () in
  let rng = Rng.create opts.seed in
  let tm =
    Synth.gravity rng
      ~n:(Apple_topology.Graph.num_nodes named.Builders.graph)
      ~total:18_000.0
  in
  Scenario.build ~seed:opts.seed named tm

(* ------------------------------------------------------------------ *)

let table1 opts =
  let scenario = small_scenario opts in
  let rows = Baselines.properties_table scenario in
  let t = Table.create [ "Framework"; "Policy Enforcement"; "Interference Free"; "Isolation" ] in
  List.iter
    (fun (name, pe, ifree, iso) ->
      Table.add_row t [ name; check pe; check ifree; check iso ])
    rows;
  let steering = Baselines.steering_stats ~seed:opts.seed scenario in
  let footer =
    Printf.sprintf
      "steering interference on this scenario: %.0f%% of traffic rerouted, mean path stretch %.2fx (max %.2fx)"
      (100.0 *. steering.Baselines.flows_rerouted)
      steering.Baselines.mean_stretch steering.Baselines.max_stretch
  in
  {
    title = "Table I: comparison of NF orchestration frameworks";
    body = Table.render t ^ "\n" ^ footer;
  }

let table3 opts =
  let scenario = small_scenario opts in
  let placement = Engine_select.solve scenario in
  let asg = Subclass.assign scenario placement in
  let built = Rule_generator.build scenario asg in
  (* Show the busiest ingress switch's APPLE table. *)
  let network = built.Rule_generator.network in
  let busiest = ref network.(0) in
  Array.iter
    (fun table ->
      if
        Apple_dataplane.Tcam.tcam_entries table
        > Apple_dataplane.Tcam.tcam_entries !busiest
      then busiest := table)
    network;
  let t = Table.create [ "Type"; "Host ID field"; "Match"; "Action" ] in
  let add_rule (r : Apple_dataplane.Rule.phys_rule) =
    let host_str =
      match r.Apple_dataplane.Rule.pmatch.Apple_dataplane.Rule.m_host with
      | `Empty -> "Empty"
      | `Host h -> Printf.sprintf "Host %d" h
      | `Fin -> "Fin"
      | `Any -> "*"
    in
    let n_prefixes =
      List.length r.Apple_dataplane.Rule.pmatch.Apple_dataplane.Rule.m_prefixes
    in
    let match_str =
      if n_prefixes = 0 then "*" else Printf.sprintf "%d prefix(es)" n_prefixes
    in
    let type_str, action_str =
      match r.Apple_dataplane.Rule.action with
      | Apple_dataplane.Rule.Fwd_to_host h ->
          ("Host match", Printf.sprintf "Fwd to APPLE host %d" h)
      | Apple_dataplane.Rule.Tag_and_deliver { subclass; host } ->
          ( "Classification",
            Printf.sprintf "Tag sub-class %d, Fwd to APPLE host %d" subclass host )
      | Apple_dataplane.Rule.Tag_and_forward { subclass; _ } ->
          ( "Classification",
            Printf.sprintf "Tag sub-class %d, Tag host ID, Go to next table"
              subclass )
      | Apple_dataplane.Rule.Set_host_and_forward _ ->
          ("Retag", "Set host ID, Go to next table")
      | Apple_dataplane.Rule.Goto_next -> ("Pass by", "Go to next table")
    in
    Table.add_row t [ type_str; host_str; match_str; action_str ]
  in
  let rules = Apple_dataplane.Tcam.phys_rules !busiest in
  let shown = List.filteri (fun i _ -> i < 12) rules in
  List.iter add_rule shown;
  let footer =
    Printf.sprintf "switch %d: %d rules total (%d TCAM entries), %d shown"
      (Apple_dataplane.Tcam.switch !busiest)
      (List.length rules)
      (Apple_dataplane.Tcam.tcam_entries !busiest)
      (List.length shown)
  in
  {
    title = "Table III: TCAM layout at a physical switch (tagging scheme)";
    body = Table.render t ^ "\n" ^ footer;
  }

let table4 _opts =
  let t = Table.create [ "Network Function"; "Cores Required"; "Capacity"; "ClickOS" ] in
  List.iter
    (fun kind ->
      let spec = Nf.spec kind in
      Table.add_row t
        [
          String.capitalize_ascii (Nf.name kind);
          string_of_int spec.Nf.cores;
          Printf.sprintf "%.0fMbps" spec.Nf.capacity_mbps;
          (if spec.Nf.clickos then "yes" else "no");
        ])
    Nf.all_kinds;
  { title = "Table IV: VNF data sheets"; body = Table.render t }

let table5 opts =
  let t = Table.create [ "Topology"; "Nodes"; "Links"; "Classes"; "Time" ] in
  let raw = ref [] in
  List.iter
    (fun (named : Builders.named) ->
      let rng = Rng.create opts.seed in
      let n = Apple_topology.Graph.num_nodes named.Builders.graph in
      let tm = Synth.gravity rng ~n ~total:18_000.0 in
      let scenario = Scenario.build ~seed:opts.seed named tm in
      let placement = Engine_select.solve scenario in
      raw := (named.Builders.label, placement.Optimization_engine.solve_seconds) :: !raw;
      Table.add_row t
        [
          named.Builders.label;
          string_of_int n;
          string_of_int (Apple_topology.Graph.num_edges named.Builders.graph);
          string_of_int (Array.length scenario.Types.classes);
          Printf.sprintf "%.3f second%s"
            placement.Optimization_engine.solve_seconds
            (if placement.Optimization_engine.solve_seconds >= 2.0 then "s" else "");
        ])
    (Builders.all_paper_topologies ());
  ( {
      title = "Table V: average computation time of different topologies";
      body = Table.render t;
    },
    List.rev !raw )

(* ------------------------------------------------------------------ *)

let fig6 _opts =
  let points = Prototype.monitor_loss_curve () in
  let t = Table.create [ "Rate (Kpps)"; "Loss (64B)"; "Loss (512B)"; "Loss (1500B)" ] in
  List.iter
    (fun p ->
      Table.add_row t
        [
          Printf.sprintf "%.1f" p.Prototype.rate_kpps;
          Printf.sprintf "%.3f" p.Prototype.loss_64;
          Printf.sprintf "%.3f" p.Prototype.loss_512;
          Printf.sprintf "%.3f" p.Prototype.loss_1500;
        ])
    points;
  {
    title = "Fig 6: ClickOS passive monitor loss rate vs packet receiving rate";
    body =
      Table.render t
      ^ "\nloss depends on the packet rate, not the packet size (curves coincide)";
  }

let fig7 opts =
  let runs = scaled opts 10 in
  let results = Prototype.vm_setup_experiment ~seed:opts.seed ~runs in
  let blackouts =
    Array.of_list (List.map (fun r -> r.Prototype.blackout_seconds) results)
  in
  let t = Table.create [ "Run"; "Blackout (s)" ] in
  List.iteri
    (fun i r ->
      Table.add_row t
        [ string_of_int (i + 1); Printf.sprintf "%.2f" r.Prototype.blackout_seconds ])
    results;
  let summary =
    Printf.sprintf "range [%.2f, %.2f] s, mean %.2f s (paper: 3.9-4.6, avg 4.2)"
      (Stats.minimum blackouts) (Stats.maximum blackouts) (Stats.mean blackouts)
  in
  {
    title = "Fig 7: throughput blackout while a ClickOS VM boots via OpenStack";
    body = Table.render t ^ "\n" ^ summary;
  }

let fig8 opts =
  let runs = scaled opts 10 in
  let results = Prototype.file_transfer_experiment ~seed:opts.seed ~runs in
  let t = Table.create [ "Variant"; "Min (s)"; "Median (s)"; "Max (s)"; "UDP loss" ] in
  List.iter
    (fun (variant, durations) ->
      Table.add_row t
        [
          Prototype.variant_name variant;
          Printf.sprintf "%.2f" (Stats.minimum durations);
          Printf.sprintf "%.2f" (Stats.median durations);
          Printf.sprintf "%.2f" (Stats.maximum durations);
          Printf.sprintf "%.0f%%" (100.0 *. Prototype.udp_loss_during_failover variant);
        ])
    results;
  let cdf_lines =
    List.map
      (fun (variant, durations) ->
        let cdf = Stats.cdf durations in
        Printf.sprintf "%s CDF: %s"
          (Prototype.variant_name variant)
          (String.concat " "
             (List.map (fun (x, p) -> Printf.sprintf "(%.2f,%.1f)" x p) cdf)))
      results
  in
  let naive = Prototype.naive_switch_transfer ~seed:opts.seed in
  let footer =
    Printf.sprintf
      "naive contrast (rules switched before the VM is up): %.2f s with %d \
       TCP timeouts -- the overhead APPLE's wait/reconfigure designs avoid"
      naive.Apple_packetsim.Tcp_model.completion_time
      naive.Apple_packetsim.Tcp_model.timeouts
  in
  {
    title = "Fig 8: distribution of 20MB file transfer time (3 variants)";
    body = Table.render t ^ "\n" ^ String.concat "\n" cdf_lines ^ "\n" ^ footer;
  }

let fig9 opts =
  let run = Prototype.overload_detection_experiment ~seed:opts.seed () in
  let t = Table.create [ "Time (s)"; "Event" ] in
  List.iter
    (fun e ->
      let name =
        match e.Prototype.kind with
        | `Overload_detected -> "overload detected (rate > 8.5 Kpps)"
        | `New_instance_ready -> "new ClickOS monitor configured, traffic split"
        | `Rolled_back -> "rolled back to normal state (rate <= 4 Kpps)"
      in
      Table.add_row t [ Printf.sprintf "%.2f" e.Prototype.time; name ])
    run.Prototype.det_events;
  let sample_at series time =
    let rec nearest best = function
      | [] -> best
      | (t, v) :: rest ->
          let best =
            match best with
            | Some (bt, _) when abs_float (bt -. time) <= abs_float (t -. time) ->
                best
            | _ -> Some (t, v)
          in
          nearest best rest
    in
    match nearest None series with Some (_, v) -> v | None -> 0.0
  in
  let timeline =
    String.concat "\n"
      (List.map
         (fun time ->
           Printf.sprintf
             "t=%.1fs send=%.1f Kpps master=%.1f Kpps sibling=%.1f Kpps" time
             (sample_at run.Prototype.send_rate time)
             (sample_at run.Prototype.master_rate time)
             (sample_at run.Prototype.sibling_rate time))
         [ 0.5; 1.5; 2.5; 3.5; 5.0; 6.5; 7.5; 9.0 ])
  in
  {
    title = "Fig 9: overload detection (1 -> 10 -> 1 Kpps source)";
    body =
      Table.render t ^ "\n" ^ timeline
      ^ Printf.sprintf "\nend-to-end packet loss: %.2f%% (paper: 0%%)"
          (100.0 *. run.Prototype.packet_loss);
  }

let fig9_polled opts =
  let event_name = function
    | `Overload_detected -> "overload detected (rate > 8.5 Kpps)"
    | `New_instance_ready -> "new ClickOS monitor configured, traffic split"
    | `Rolled_back -> "rolled back to normal state (rate <= 4 Kpps)"
  in
  let poll_period = 0.05 in
  let oracle = Prototype.overload_detection_experiment ~seed:opts.seed () in
  let polled =
    Prototype.overload_detection_experiment ~load_source:(`Polled poll_period)
      ~seed:opts.seed ()
  in
  let t = Table.create [ "Load source"; "Time (s)"; "Event" ] in
  List.iter
    (fun (label, (run : Prototype.detection_run)) ->
      List.iter
        (fun e ->
          Table.add_row t
            [
              label;
              Printf.sprintf "%.2f" e.Prototype.time;
              event_name e.Prototype.kind;
            ])
        run.Prototype.det_events)
    [ ("oracle", oracle); (Printf.sprintf "polled %.0fms" (1000.0 *. poll_period), polled) ];
  let periods = [ 0.01; 0.02; 0.05; 0.1; 0.2 ] in
  let latencies = Prototype.detection_latency_vs_poll ~seed:opts.seed ~periods in
  let lt = Table.create [ "Poll period"; "Detection latency"; "Polls to detect" ] in
  List.iter
    (fun (p, l) ->
      Table.add_row lt
        [
          Printf.sprintf "%.0f ms" (1000.0 *. p);
          (if l = infinity then "missed"
           else Printf.sprintf "%.0f ms" (1000.0 *. l));
          (if l = infinity then "--"
           else Printf.sprintf "%.1f" (l /. p));
        ])
    latencies;
  let oracle_latency =
    Option.value ~default:infinity (Prototype.detection_latency oracle)
  in
  let polled_latency =
    Option.value ~default:infinity (Prototype.detection_latency polled)
  in
  let footer =
    Printf.sprintf
      "detection latency after the t=2.0s rate jump: oracle %.0f ms, counter \
       polling %.0f ms (measurement delay = EWMA warm-up x poll period); \
       loss oracle %.2f%% vs polled %.2f%%"
      (1000.0 *. oracle_latency)
      (1000.0 *. polled_latency)
      (100.0 *. oracle.Prototype.packet_loss)
      (100.0 *. polled.Prototype.packet_loss)
  in
  {
    title =
      "Fig 9 (polled): counter-driven overload detection vs the oracle detector";
    body =
      Table.render t ^ "\n" ^ Table.render lt ^ "\n" ^ footer;
  }

(* ------------------------------------------------------------------ *)

(* The paper's regime: per-class demands are small relative to one
   instance's capacity, so the ingress strawman wastes most of every
   instance it allocates while APPLE consolidates across the network, and
   ceil-rounding leaves the headroom that lets fast failover absorb bursts
   with few extra ClickOS instances.  Policies attach to transit traffic
   (paths of at least 2 links), matching the long-haul dominance of the
   measured WAN matrices. *)
let sim_profile ?(label = "") opts =
  {
    Synth.default_profile with
    Synth.snapshots = scaled opts 672;
    (* The data-center network runs hotter than the WAN backbones, as the
       UNIV1 packet trace does relative to the Abilene/GEANT matrices. *)
    total_rate = (if label = "UNIV1" then 9_000.0 else 3_000.0);
    (* UNIV1 snapshots are one second apart (Sec. IX-A): at that timescale
       data-center traffic shows bursts, not diurnal cycles. *)
    diurnal_depth = (if label = "UNIV1" then 0.05 else 0.35);
    (* Fierce small-time-scale dynamics (Sec. IX-E): individual demands
       burst to many times their base rate for a few seconds. *)
    burst_probability = 0.06;
    burst_factor = 25.0;
    burst_length = 6;
  }

let sim_config = { Scenario.default_config with Scenario.min_path_hops = 2 }

let fig10 opts =
  let runs = scaled opts 12 in
  let t = Table.create [ "Topology"; "5th pct"; "Q1"; "Median"; "Q3"; "95th pct" ] in
  let raw = ref [] in
  List.iter
    (fun (named : Builders.named) ->
      let samples =
        Simulation.tcam_samples ~config:sim_config ~seed:opts.seed ~runs named
          ~profile:(sim_profile ~label:named.Builders.label opts)
      in
      let box = Stats.boxplot samples in
      raw := (named.Builders.label, box) :: !raw;
      Table.add_row t
        [
          named.Builders.label;
          Printf.sprintf "%.1fx" box.Stats.whisker_low;
          Printf.sprintf "%.1fx" box.Stats.q1;
          Printf.sprintf "%.1fx" box.Stats.med;
          Printf.sprintf "%.1fx" box.Stats.q3;
          Printf.sprintf "%.1fx" box.Stats.whisker_high;
        ])
    (Builders.simulation_topologies ());
  ( {
      title = "Fig 10: TCAM usage reduction ratio of the tagging scheme (boxplot)";
      body = Table.render t;
    },
    List.rev !raw )

let replay_results opts =
  List.map
    (fun (named : Builders.named) ->
      Simulation.replay ~config:sim_config ~seed:opts.seed named
        ~profile:(sim_profile ~label:named.Builders.label opts))
    (Builders.simulation_topologies ())

let fig11 opts =
  let results = replay_results opts in
  let t =
    Table.create [ "Topology"; "APPLE cores"; "Ingress cores"; "Reduction" ]
  in
  let raw = ref [] in
  List.iter
    (fun (r : Simulation.replay_result) ->
      raw := (r.Simulation.label, r.Simulation.apple_cores, r.Simulation.ingress_cores) :: !raw;
      Table.add_row t
        [
          r.Simulation.label;
          string_of_int r.Simulation.apple_cores;
          string_of_int r.Simulation.ingress_cores;
          Printf.sprintf "%.1fx"
            (float_of_int r.Simulation.ingress_cores
            /. float_of_int (max 1 r.Simulation.apple_cores));
        ])
    results;
  ( {
      title = "Fig 11: average CPU core usage, APPLE vs ingress strawman";
      body = Table.render t;
    },
    List.rev !raw )

let fig12 opts =
  let results = replay_results opts in
  let t =
    Table.create
      [
        "Topology";
        "Mean loss (failover)";
        "Mean loss (static)";
        "P95 loss (failover)";
        "P95 loss (static)";
        "Extra cores (avg)";
      ]
  in
  let raw = ref [] in
  List.iter
    (fun (r : Simulation.replay_result) ->
      let mw = Stats.mean r.Simulation.loss_with_failover in
      let mo = Stats.mean r.Simulation.loss_without_failover in
      raw := (r.Simulation.label, mw, mo, r.Simulation.mean_extra_cores) :: !raw;
      Table.add_row t
        [
          r.Simulation.label;
          Printf.sprintf "%.3f%%" (100.0 *. mw);
          Printf.sprintf "%.3f%%" (100.0 *. mo);
          Printf.sprintf "%.3f%%"
            (100.0 *. Stats.percentile r.Simulation.loss_with_failover 95.0);
          Printf.sprintf "%.3f%%"
            (100.0 *. Stats.percentile r.Simulation.loss_without_failover 95.0);
          Printf.sprintf "%.1f" r.Simulation.mean_extra_cores;
        ])
    results;
  ( {
      title = "Fig 12: packet loss over time, with vs without fast failover";
      body = Table.render t;
    },
    List.rev !raw )

let all opts =
  let t5, _ = table5 opts in
  let f10, _ = fig10 opts in
  let f11, _ = fig11 opts in
  let f12, _ = fig12 opts in
  [
    table1 opts;
    table3 opts;
    table4 opts;
    t5;
    fig6 opts;
    fig7 opts;
    fig8 opts;
    fig9 opts;
    f10;
    f11;
    f12;
  ]

(* ------------------------------------------------------------------ *)
(* Ablations: design-choice studies beyond the paper's own figures.    *)

let scenario_for opts (named : Builders.named) =
  let rng = Rng.create opts.seed in
  let profile = { (sim_profile ~label:named.Builders.label opts) with Synth.snapshots = 8 } in
  let snapshots = Synth.for_topology rng profile named in
  Scenario.build ~config:sim_config ~seed:opts.seed named (Matrix.mean_of snapshots)

let ablation_engines opts =
  let t =
    Table.create
      [ "Topology"; "Engine"; "Instances"; "Cores"; "Solve time" ]
  in
  List.iter
    (fun (named : Builders.named) ->
      let s = scenario_for opts named in
      let time f =
        let t0 = Unix.gettimeofday () in (* lint: L5 — wall-clock solve timing, reported as perf metadata only *)
        let r = f () in
        (r, Unix.gettimeofday () -. t0) (* lint: L5 — wall-clock solve timing, reported as perf metadata only *)
      in
      let lp, lp_t =
        time (fun () ->
            Optimization_engine.solve ~method_:Optimization_engine.Lp_round s)
      in
      let paths, paths_t = time (fun () -> Optimization_engine.solve s) in
      let greedy, greedy_t = time (fun () -> Heuristic_engine.solve s) in
      let best, best_t = time (fun () -> Engine_select.solve s) in
      List.iter
        (fun (name, p, seconds) ->
          Table.add_row t
            [
              named.Builders.label;
              name;
              string_of_int (Optimization_engine.instance_count p);
              string_of_int (Optimization_engine.core_count p);
              Printf.sprintf "%.3f s" seconds;
            ])
        [
          ("LP relax + round", lp, lp_t);
          ("shortest paths", paths, paths_t);
          ("greedy heuristic", greedy, greedy_t);
          ("selector (best)", best, best_t);
        ])
    (Builders.all_paper_topologies ());
  {
    title =
      "Ablation: placement engines (LP pipeline vs shortest paths vs greedy vs \
       selector)";
    body = Table.render t;
  }

let ablation_passes opts =
  let t =
    Table.create [ "Topology"; "Variant"; "Instances"; "vs full pipeline" ]
  in
  List.iter
    (fun (named : Builders.named) ->
      let s = scenario_for opts named in
      let lp_round = Optimization_engine.Lp_round in
      let full = Optimization_engine.solve ~method_:lp_round s in
      let base = Optimization_engine.instance_count full in
      let variant name ~reweight ~consolidate =
        let p =
          Optimization_engine.solve ~method_:lp_round ~reweight ~consolidate s
        in
        let k = Optimization_engine.instance_count p in
        Table.add_row t
          [
            named.Builders.label;
            name;
            string_of_int k;
            Printf.sprintf "%+d" (k - base);
          ]
      in
      Table.add_row t
        [ named.Builders.label; "full (reweight + consolidate)"; string_of_int base; "--" ];
      variant "no reweighted 2nd LP" ~reweight:false ~consolidate:true;
      variant "no consolidation pass" ~reweight:true ~consolidate:false;
      variant "plain LP + ceil only" ~reweight:false ~consolidate:false)
    (Builders.simulation_topologies ());
  {
    title = "Ablation: contribution of the rounding post-passes";
    body = Table.render t;
  }

let ablation_split_depth opts =
  (* Needs fractional sub-class weights, so run at heavy load where the
     Optimization Engine genuinely splits classes across instances. *)
  let s = small_scenario opts in
  let placement = Engine_select.solve s in
  let asg = Subclass.assign s placement in
  let t =
    Table.create
      [ "Realization"; "Classifier rules"; "Max weight error"; "Mean weight error" ]
  in
  (* Prefix splitting at several quantization depths. *)
  List.iter
    (fun depth ->
      let rules = ref 0 in
      let errors = ref [] in
      Array.iter
        (fun c ->
          let subs =
            List.filter
              (fun sub -> sub.Subclass.class_id = c.Types.id)
              asg.Subclass.subclasses
          in
          if subs <> [] then begin
            let split = Rule_generator.subclass_prefixes c subs ~depth in
            rules := !rules + Types.Prefix.rule_count split;
            let realized =
              Types.Prefix.realized_weights split ~base:c.Types.src_block
            in
            List.iteri
              (fun i sub ->
                errors := abs_float (realized.(i) -. sub.Subclass.weight) :: !errors)
              subs
          end)
        s.Types.classes;
      let arr = Array.of_list !errors in
      Table.add_row t
        [
          Printf.sprintf "prefix split, depth %d" depth;
          string_of_int !rules;
          Printf.sprintf "%.4f" (Stats.maximum arr);
          Printf.sprintf "%.4f" (Stats.mean arr);
        ])
    [ 4; 6; 8 ];
  (* Consistent hashing: one range rule per sub-class; weight fidelity
     measured by hashing 20k synthetic flows per class. *)
  let rng = Rng.create opts.seed in
  let rules = ref 0 in
  let errors = ref [] in
  Array.iter
    (fun c ->
      let subs =
        List.filter
          (fun sub -> sub.Subclass.class_id = c.Types.id)
          asg.Subclass.subclasses
      in
      if subs <> [] then begin
        rules := !rules + List.length subs;
        let weights =
          Array.of_list (List.map (fun sub -> sub.Subclass.weight) subs)
        in
        let ring = Apple_classifier.Consistent_hash.create ~weights in
        let samples = 20_000 in
        let hits = Array.make (Array.length weights) 0 in
        for _ = 1 to samples do
          let packet =
            {
              Apple_classifier.Header.src_ip =
                c.Types.src_block.Types.Prefix.addr + Rng.int rng 256;
              dst_ip = Rng.int rng 0x3FFFFFFF;
              proto = 6;
              src_port = Rng.int rng 65536;
              dst_port = Rng.int rng 65536;
            }
          in
          let b = Apple_classifier.Consistent_hash.assign ring packet in
          hits.(b) <- hits.(b) + 1
        done;
        Array.iteri
          (fun i w ->
            errors :=
              abs_float ((float_of_int hits.(i) /. float_of_int samples) -. w)
              :: !errors)
          weights
      end)
    s.Types.classes;
  let arr = Array.of_list !errors in
  Table.add_row t
    [
      "consistent hashing";
      string_of_int !rules;
      Printf.sprintf "%.4f" (Stats.maximum arr);
      Printf.sprintf "%.4f" (Stats.mean arr);
    ];
  {
    title =
      "Ablation: sub-class realization (prefix splitting depth vs consistent hashing)";
    body = Table.render t;
  }

let ablation_tag_mode opts =
  (* NAT-heavy scenario so header rewriting is pervasive. *)
  let mix =
    Policy.mix_of_strings
      [ ("nat -> firewall", 0.5); ("nat -> firewall -> ids", 0.5) ]
  in
  let config =
    { Scenario.default_config with Scenario.policy_mix = mix; max_classes = 40 }
  in
  let named = Builders.internet2 () in
  let rng = Rng.create opts.seed in
  let tm = Synth.gravity rng ~n:12 ~total:4000.0 in
  let s = Scenario.build ~config ~seed:opts.seed named tm in
  let placement = Engine_select.solve s in
  let asg = Subclass.assign s placement in
  let t =
    Table.create
      [ "Tag mode"; "TCAM"; "vSwitch rules"; "Tag ids"; "Walks OK under NAT" ]
  in
  let rewriters i =
    List.exists
      (fun inst ->
        Apple_vnf.Instance.id inst = i
        && Nf.rewrites_header (Apple_vnf.Instance.kind inst))
      asg.Subclass.instances
  in
  List.iter
    (fun mode ->
      let built = Rule_generator.build ~tag_mode:mode s asg in
      let ok = ref 0 and total = ref 0 in
      List.iter
        (fun ((c : Types.flow_class), reps) ->
          List.iter
            (fun (_, p) ->
              incr total;
              match
                Apple_dataplane.Walk.run built.Rule_generator.network
                  ~path:(Array.to_list c.Types.path)
                  ~cls:c.Types.id ~src_ip:p.Types.Prefix.addr ~rewriters ()
              with
              | Ok _ -> incr ok
              | Error _ -> ())
            reps)
        (Rule_generator.representatives s asg built);
      Table.add_row t
        [
          (match built.Rule_generator.tag_mode with
          | `Local -> "local (class-multiplexed)"
          | `Global -> "global (network-unique)");
          string_of_int built.Rule_generator.tcam_with_tagging;
          string_of_int built.Rule_generator.vswitch_rules;
          string_of_int built.Rule_generator.global_tags_used;
          Printf.sprintf "%d/%d" !ok !total;
        ])
    [ `Local; `Global ];
  {
    title = "Ablation: sub-class tag modes under header-rewriting NFs (Sec. X)";
    body = Table.render t;
  }

let ablation_packet_level opts =
  (* A single ClickOS-style monitor (firewall spec: 900 Mbps = 75 Kpps at
     1500 B) driven at increasing CBR rates, packet by packet. *)
  let module PS = Apple_packetsim.Packet_sim in
  let module Rule = Apple_dataplane.Rule in
  let module Tcam = Apple_dataplane.Tcam in
  let module Tag = Apple_dataplane.Tag in
  let net = Tcam.network ~num_switches:1 in
  let pfx = Types.Prefix.prefix_of_string "10.0.0.0/24" in
  Tcam.add_phys net.(0)
    {
      Rule.priority = 100;
      pmatch = { Rule.m_host = `Empty; m_subclass = `Any; m_prefixes = [ pfx ] };
      action = Rule.Tag_and_deliver { subclass = 0; host = 0 };
    };
  Tcam.add_phys net.(0)
    {
      Rule.priority = 0;
      pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
      action = Rule.Goto_next;
    };
  Tcam.add_vswitch net.(0)
    { Rule.v_port = Rule.From_network;
      v_key = Rule.Per_class { cls = 0; subclass = 0 };
      v_action = Rule.To_instance 1 };
  Tcam.add_vswitch net.(0)
    { Rule.v_port = Rule.From_instance 1;
      v_key = Rule.Per_class { cls = 0; subclass = 0 };
      v_action = Rule.Back_to_network Tag.Fin };
  let inst =
    Apple_vnf.Instance.create ~id:1 ~spec:(Nf.spec Nf.Firewall) ~host:0
  in
  let t =
    Table.create
      [ "Rate (Kpps)"; "Packet-level loss"; "Analytic loss"; "p50 latency" ]
  in
  let duration = max 0.2 (2.0 *. opts.scale) in
  List.iter
    (fun pps ->
      let flows =
        [
          {
            PS.flow_name = "probe";
            cls = 0;
            src_ip = pfx.Types.Prefix.addr + 5;
            path = [ 0 ];
            source = PS.Cbr pps;
            start_at = 0.0;
            stop_at = duration;
          };
        ]
      in
      let r =
        PS.run ~seed:opts.seed ~network:net ~instances:[ inst ] ~flows ~duration ()
      in
      let analytic =
        Apple_vnf.Instance.loss_at_pps ~capacity_pps:75_000.0 ~offered_pps:pps
      in
      Table.add_row t
        [
          Printf.sprintf "%.0f" (pps /. 1000.0);
          Printf.sprintf "%.4f" (PS.loss_of r "probe");
          Printf.sprintf "%.4f" analytic;
          Printf.sprintf "%.0f us" (1e6 *. PS.latency_percentile r "probe" 50.0);
        ])
    [ 40_000.; 60_000.; 74_000.; 80_000.; 90_000.; 110_000. ];
  {
    title =
      "Ablation: packet-level queueing vs the analytic loss model (Fig 6 validation)";
    body =
      Table.render t
      ^ "\nsame knee at 75 Kpps; the packet simulator adds the queueing latency";
  }

let ablation_failure_recovery opts =
  let named = Builders.internet2 () in
  let rng = Rng.create opts.seed in
  let tm = Synth.gravity rng ~n:12 ~total:4000.0 in
  let s = Scenario.build ~seed:opts.seed named tm in
  let controller = Controller.create s in
  let before = Controller.run_epoch controller in
  let verify_tag c =
    match Controller.verify c with Ok () -> "verified" | Error _ -> "FAILED"
  in
  let before_ok = verify_tag controller in
  (* Fail the most-traversed link. *)
  let g = named.Builders.graph in
  let link_use = Hashtbl.create 32 in
  Array.iter
    (fun c ->
      let p = c.Types.path in
      for i = 0 to Array.length p - 2 do
        let key = (min p.(i) p.(i + 1), max p.(i) p.(i + 1)) in
        Hashtbl.replace link_use key
          (c.Types.rate +. Option.value ~default:0.0 (Hashtbl.find_opt link_use key))
      done)
    s.Types.classes;
  let by_load ((u1, v1), w1) ((u2, v2), w2) =
    match Float.compare w2 w1 with
    | 0 -> ( match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c)
    | c -> c
  in
  let (fu, fv), failed_load =
    (* lint: L3 — order erased: deterministic max (load, then link id) below *)
    match List.sort by_load (Hashtbl.fold (fun k v acc -> (k, v) :: acc) link_use []) with
    | best :: _ -> best
    | [] -> ((0, 0), 0.0)
  in
  Apple_topology.Graph.remove_edge g fu fv;
  (* Routing recomputes paths; APPLE follows (it never reroutes itself). *)
  let rerouted = ref 0 in
  let classes' =
    Array.map
      (fun c ->
        let on_failed =
          let p = c.Types.path in
          let hit = ref false in
          for i = 0 to Array.length p - 2 do
            if
              (p.(i) = fu && p.(i + 1) = fv) || (p.(i) = fv && p.(i + 1) = fu)
            then hit := true
          done;
          !hit
        in
        if on_failed then begin
          incr rerouted;
          match Apple_topology.Graph.shortest_path g c.Types.src c.Types.dst with
          | Some path -> { c with Types.path = Array.of_list path }
          | None -> c (* disconnected pair keeps its stale path *)
        end
        else c)
      s.Types.classes
  in
  let s' = { s with Types.classes = classes' } in
  let controller' = Controller.create s' in
  let after = Controller.run_epoch controller' in
  let after_ok = verify_tag controller' in
  let t = Table.create [ "Phase"; "Instances"; "Cores"; "Solve time"; "Walks" ] in
  Table.add_row t
    [
      "before failure";
      string_of_int before.Controller.instances;
      string_of_int before.Controller.cores;
      Printf.sprintf "%.2f s" before.Controller.solve_seconds;
      before_ok;
    ];
  Table.add_row t
    [
      "after failure + re-epoch";
      string_of_int after.Controller.instances;
      string_of_int after.Controller.cores;
      Printf.sprintf "%.2f s" after.Controller.solve_seconds;
      after_ok;
    ];
  {
    title = "Ablation: link failure -> routing change -> global re-epoch";
    body =
      Table.render t
      ^ Printf.sprintf
          "\nfailed link %d-%d (%.0f Mbps crossing); %d classes re-routed by \
           routing, zero by APPLE (interference freedom holds by construction)"
          fu fv failed_load !rerouted;
  }

let ablation_scale opts =
  (* The "gigantic networks" regime the paper defers to heuristics
     (Sec. IV-D): LP pipeline vs greedy across Rocketfuel-scale ISPs. *)
  let t =
    Table.create
      [ "Topology"; "Nodes"; "Links"; "Classes";
        "LP time"; "LP inst"; "Greedy time"; "Greedy inst" ]
  in
  List.iter
    (fun (named : Builders.named) ->
      let rng = Rng.create opts.seed in
      let n = Apple_topology.Graph.num_nodes named.Builders.graph in
      let tm = Synth.gravity rng ~n ~total:8_000.0 in
      let config = { Scenario.default_config with Scenario.max_classes = 100 } in
      let s = Scenario.build ~config ~seed:opts.seed named tm in
      let t0 = Unix.gettimeofday () in (* lint: L5 — wall-clock solve timing, reported as perf metadata only *)
      let lp = Optimization_engine.solve ~method_:Optimization_engine.Lp_round s in
      let lp_t = Unix.gettimeofday () -. t0 in (* lint: L5 — wall-clock solve timing, reported as perf metadata only *)
      let t1 = Unix.gettimeofday () in (* lint: L5 — wall-clock solve timing, reported as perf metadata only *)
      let greedy = Heuristic_engine.solve s in
      let greedy_t = Unix.gettimeofday () -. t1 in (* lint: L5 — wall-clock solve timing, reported as perf metadata only *)
      Table.add_row t
        [
          named.Builders.label;
          string_of_int n;
          string_of_int (Apple_topology.Graph.num_edges named.Builders.graph);
          string_of_int (Array.length s.Types.classes);
          Printf.sprintf "%.2f s" lp_t;
          string_of_int (Optimization_engine.instance_count lp);
          Printf.sprintf "%.1f ms" (1000.0 *. greedy_t);
          string_of_int (Optimization_engine.instance_count greedy);
        ])
    [ Builders.as3679 (); Builders.as1221 (); Builders.as1755 (); Builders.as3257 () ];
  {
    title =
      "Ablation: gigantic networks (Rocketfuel ISPs) — LP pipeline vs greedy heuristic";
    body = Table.render t;
  }

let ablation_path_stretch opts =
  (* Intro motivation (2): traffic steering adds path length; APPLE's
     on-path placement adds none.  Quantified per topology with a 50 us
     per-hop latency. *)
  let per_hop_us = 50.0 in
  let t =
    Table.create
      [
        "Topology";
        "Rerouted traffic";
        "Mean stretch";
        "Max stretch";
        "Added latency (mean)";
        "APPLE detour";
      ]
  in
  List.iter
    (fun (named : Builders.named) ->
      let s = scenario_for opts named in
      let st = Baselines.steering_stats ~seed:opts.seed s in
      (* mean added hops = (stretch - 1) * mean path hops *)
      let mean_hops =
        let acc = ref 0.0 in
        Array.iter
          (fun c ->
            acc := !acc +. float_of_int (Array.length c.Types.path - 1))
          s.Types.classes;
        !acc /. float_of_int (max 1 (Array.length s.Types.classes))
      in
      let added_us =
        (st.Baselines.mean_stretch -. 1.0) *. mean_hops *. per_hop_us
      in
      Table.add_row t
        [
          named.Builders.label;
          Printf.sprintf "%.0f%%" (100.0 *. st.Baselines.flows_rerouted);
          Printf.sprintf "%.2fx" st.Baselines.mean_stretch;
          Printf.sprintf "%.2fx" st.Baselines.max_stretch;
          Printf.sprintf "%.0f us" added_us;
          "0 (on-path)";
        ])
    (Builders.simulation_topologies ());
  {
    title =
      "Ablation: steering path stretch vs APPLE's on-path placement (interference)";
    body = Table.render t;
  }

let ablations opts =
  [
    ablation_engines opts;
    ablation_passes opts;
    ablation_split_depth opts;
    ablation_tag_mode opts;
    ablation_packet_level opts;
    ablation_failure_recovery opts;
    ablation_scale opts;
    ablation_path_stretch opts;
  ]
