module Builders = Apple_topology.Builders
module Synth = Apple_traffic.Synth
module Matrix = Apple_traffic.Matrix
module Rng = Apple_prelude.Rng
module Stats = Apple_prelude.Stats

type replay_result = {
  label : string;
  loss_with_failover : float array;
  loss_without_failover : float array;
  extra_cores_series : float array;
  mean_extra_cores : float;
  failover_events : (string * int) list;
  apple_cores : int;
  ingress_cores : int;
  apple_instances : int;
  ingress_instances : int;
}

let ingress_core_count placement =
  Optimization_engine.core_count placement

let replay ?config ?failover_config ~seed (named : Builders.named) ~profile =
  let rng = Rng.create seed in
  let snapshots = Synth.for_topology rng profile named in
  let mean_tm = Matrix.mean_of snapshots in
  let scenario = Scenario.build ?config ~seed named mean_tm in
  let placement = Engine_select.solve scenario in
  let ingress = Baselines.ingress_placement scenario in
  (* Two independent states: frozen weights vs fast failover. *)
  let make_state () = Netstate.of_assignment scenario (Subclass.assign scenario placement) in
  let state_static = make_state () in
  let state_failover = make_state () in
  let handler = Dynamic_handler.create ?config:failover_config state_failover in
  let n_snapshots = List.length snapshots in
  let loss_with = Array.make n_snapshots 0.0 in
  let loss_without = Array.make n_snapshots 0.0 in
  let extra = Array.make n_snapshots 0.0 in
  List.iteri
    (fun t tm ->
      Scenario.update_rates scenario tm;
      (* Static: loads follow rates, weights frozen. *)
      Netstate.recompute_loads state_static;
      loss_without.(t) <- Netstate.network_loss state_static;
      (* Failover: one Dynamic Handler round per snapshot. *)
      Dynamic_handler.step handler;
      loss_with.(t) <- Netstate.network_loss state_failover;
      extra.(t) <- float_of_int (Netstate.extra_cores state_failover))
    snapshots;
  (* Restore the mean rates so callers see the scenario unperturbed. *)
  Scenario.update_rates scenario mean_tm;
  {
    label = named.Builders.label;
    loss_with_failover = loss_with;
    loss_without_failover = loss_without;
    extra_cores_series = extra;
    mean_extra_cores = Stats.mean extra;
    failover_events = Dynamic_handler.events handler;
    apple_cores = Optimization_engine.core_count placement;
    ingress_cores = ingress_core_count ingress;
    apple_instances = Optimization_engine.instance_count placement;
    ingress_instances = Optimization_engine.instance_count ingress;
  }

let tcam_samples ?config ~seed ~runs (named : Builders.named) ~profile =
  Array.init runs (fun r ->
      let rng = Rng.create (seed + (1000 * r)) in
      let snapshots =
        Synth.for_topology rng { profile with snapshots = 16 } named
      in
      let mean_tm = Matrix.mean_of snapshots in
      let scenario = Scenario.build ?config ~seed:(seed + r) named mean_tm in
      let placement = Engine_select.solve scenario in
      let asg = Subclass.assign scenario placement in
      let built = Rule_generator.build scenario asg in
      Rule_generator.reduction_ratio built)
