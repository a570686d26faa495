(** The chaos engine: seeded, fully deterministic fault injection
    against a running scenario, on the simulation clock.

    A run installs one controller epoch (gated by the static verifier),
    then replays a {!Fault.schedule} through {!Fault.inject} while a
    periodic control round drives the Dynamic Handler and integrates
    blackhole losses:

    - {b kill-instance} marks the instance dead in the failure mask,
      runs the Dynamic Handler's repair path (weight shifted to live
      siblings, the unabsorbable remainder visibly blackholed), and asks
      the Resource Orchestrator to respawn the VM with capped
      exponential backoff; when the replacement boots, the controller
      heals the epoch (pinnings swapped, rules reinstalled) and the
      healed tables are re-checked by the verifier gate.
    - {b link-down} / {b switch-crash} darken every class path crossing
      the element until the paired up/restart event; the verifier
      re-checks the (unchanged) tables at heal time.
    - {b tcam-loss} deletes a seeded-random subset of a switch's APPLE
      table; the controller reinstalls the full tables one rule-install
      latency later and the gate re-checks them.
    - {b poller-blackout} suspends control rounds (the controller is
      blind while counters don't arrive).

    Packets lost while each fault is open are integrated from the
    flow-level blackhole rate at the configured packet size, credited to
    {!Apple_obs.Counters.blackhole} at the failed element, and reported
    per fault.  Everything runs on {!Apple_sim.Engine}'s virtual clock
    with a seeded {!Apple_prelude.Rng}, so a run is byte-identical
    across repeats and [--jobs] values. *)

type config = {
  round : float;  (** control-round period, seconds (default 0.05) *)
  duration : float;
      (** run length, sim seconds; 0 (the default) auto-extends to the
          last scheduled event plus a grace window covering the slowest
          respawn *)
  packet_bytes : int;  (** packet size for loss accounting (1500) *)
  jobs : int option;  (** forwarded to the placement engine *)
  boot : Apple_vnf.Lifecycle.boot_path option;
      (** respawn boot path; [None] picks per-kind (ClickOS kinds boot
          in 30 ms, the rest as normal VMs) *)
  backoff : Apple_core.Resource_orchestrator.backoff;
      (** respawn backoff policy *)
}

val default_config : config

type verdict =
  [ `Ok  (** healed tables passed the verifier gate *)
  | `Rejected of string  (** gate refused the healed tables *)
  | `Skipped  (** fault still open when the run ended *) ]

type fault_outcome = {
  o_at : float;  (** injection time *)
  o_label : string;  (** rendered fault with its resolved element *)
  o_recovery : float option;
      (** seconds from injection to healed; [None] if never healed *)
  o_lost : int;  (** packets lost to this fault's element while open *)
  o_verdict : verdict;
}

type outcome = {
  scenario_label : string;
  seed : int;
  faults : fault_outcome list;  (** in schedule order *)
  total_lost : int;  (** sum of per-fault losses *)
  heals_ok : int;  (** healed epochs that passed the gate *)
  heals_rejected : int;
  final_loss : float;  (** {!Apple_core.Netstate.network_loss} at the end *)
  log : string list;  (** chronological timeline, rendered *)
}

val run :
  ?config:config ->
  seed:int ->
  schedule:Fault.schedule ->
  Apple_core.Types.scenario ->
  outcome
(** Raises [Invalid_argument] on a schedule {!Fault.validate} rejects,
    and propagates {!Apple_core.Controller.Rejected} if the initial
    epoch itself fails the gate. *)

val render : outcome -> string
(** Multi-line report: header, timeline, and a per-fault recovery
    table. *)
