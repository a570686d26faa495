(** The soak harness: thousands-of-epochs endurance runs of the full
    controller pipeline, with checkpoint/restore and invariant gates.

    One {e epoch} is one traffic snapshot of the diurnal generator (the
    paper's 672-snapshot, 96-per-day sequence, cycled).  Every
    [reopt_every] epochs the controller re-optimizes globally
    ({!Apple_core.Controller.run_epoch}, gated by the static verifier);
    in between, each epoch refreshes class rates, injects any scheduled
    faults, runs one Dynamic-Handler round and samples network loss.

    Everything observable is deterministic for a given config: the
    {e stream} (one line per epoch / fault / re-optimization) and the
    final {e summary} contain no wall-clock or GC data, so an
    interrupted run resumed from its last checkpoint reproduces them
    byte-for-byte.  Wall-clock throughput and memory flatness go to a
    separate perf report and to [BENCH_soak.json].

    Checkpoints are taken only at re-optimization boundaries, where the
    controller is a function of the scenario alone; see {!Checkpoint}.
    Resuming truncates the stream to the checkpoint and re-executes the
    rest, so a kill anywhere costs at most [reopt_every] epochs of
    re-execution.

    Fault schedules reuse {!Apple_chaos.Fault} and its interpreter
    {!Apple_chaos.Fault.inject}, with [at] valued in {e epochs}
    (integral); [poller-blackout]'s duration is likewise a number of
    epochs.  Kill faults heal after [heal_after] epochs via
    the orchestrator respawn + {!Apple_core.Controller.heal_instance}
    path; TCAM loss reinstalls and re-verifies within its epoch;
    link/switch faults stay open (and survive re-optimizations) until
    their paired up/restart event.

    {b Invariants} checked while running, collected into
    {!outcome.violations}:
    + the verifier gate passes every re-optimization and every healed
      epoch (post-heal and post-TCAM-reinstall rechecks);
    + {!Apple_core.Netstate.weights_valid} holds every epoch;
    + fault-free epochs lose at most [loss_band] of offered traffic;
    + per window, the fault-free mean loss stays under [window_band];
    + (perf, reported separately) live words at window boundaries stay
      under [mem_slack] x the first boundary's sample. *)

type load_source = Oracle | Polled

type config = {
  topo : Apple_topology.Builders.named;
  seed : int;
  epochs : int;  (** total epochs to run *)
  reopt_every : int;
      (** re-optimization period (epochs); also the checkpoint period *)
  cycle : int;  (** traffic snapshots before the sequence repeats *)
  total_rate : float;  (** network-wide offered load (Mbps, diurnal mean) *)
  max_classes : int;
  heal_after : int;  (** epochs between a kill and its respawn heal *)
  loss_band : float;  (** per-epoch fault-free loss bound *)
  window_band : float;  (** per-window fault-free mean loss bound *)
  mem_slack : float;  (** live-words growth factor tolerated (perf) *)
  engine : Apple_core.Controller.engine;
  jobs : int option;
  load_source : load_source;
  schedule : Apple_chaos.Fault.schedule;  (** [at] in epochs *)
  gate : bool;  (** verify every configuration before install *)
}

val default_config : Apple_topology.Builders.named -> config
(** 2000 epochs, re-opt (and checkpoint) every 96 (one diurnal day),
    672-snapshot cycle, oracle load source, gate on. *)

val validate_config : config -> (unit, string) result

val config_fingerprint : config -> string
(** Digest of every determinism-relevant config field; stored in
    checkpoints so a resume with a different config is refused. *)

type session

type outcome = {
  completed : bool;  (** false when halted early ([halt_at]) *)
  epochs_run : int;  (** absolute epoch reached *)
  violations : string list;  (** deterministic invariant violations *)
  mem_flat : bool;  (** live-words bound held (perf verdict) *)
  peak_live_words : int;
  epochs_per_sec : float;  (** this process's epochs / wall seconds *)
  summary : string;  (** deterministic; byte-comparable across resumes *)
  perf : string;  (** wall clock + GC report; not byte-comparable *)
  stream : string;  (** full deterministic stream, from epoch 0 *)
}

val create : ?stream_path:string -> config -> (session, string) result
(** Fresh run.  [stream_path] additionally streams every line to a file
    (truncated), so a killed process leaves a resumable prefix. *)

val restore :
  ?stream_path:string ->
  ?stream_prefix:string ->
  config ->
  Checkpoint.t ->
  (session, string) result
(** Resume from a checkpoint.  The config must fingerprint-match.
    [stream_prefix] is the interrupted run's stream content; it is
    truncated to the checkpoint's [stream_bytes] (refused if shorter)
    and re-written to [stream_path].  The checkpoint's epoch must be a
    re-optimization boundary: the first resumed step re-optimizes and so
    rebuilds the controller from the scenario, re-executing at most
    [reopt_every] epochs of the interrupted run. *)

val resume_dir :
  ?stream_path:string -> config -> dir:string -> (session, string) result
(** {!restore} from [dir]/checkpoint.apple, reading the stream prefix
    from [stream_path] (or [dir]/stream.log) when present. *)

val run : ?halt_at:int -> ?state_dir:string -> session -> outcome
(** Execute epochs until [config.epochs] (or [halt_at]).  With
    [state_dir], write [checkpoint.apple] there at every re-optimization
    boundary that is {!checkpointable}; a boundary that is not counts as
    [deferred] in the totals.  Raises nothing: even a first-epoch gate
    rejection is reported as a violation with [completed = false]. *)

val bench_json : session -> outcome -> string
(** Render the [BENCH_soak.json] trajectory snapshot for a finished
    [run]: schema [apple-bench-soak/1], per-window trajectory and
    deterministic totals, plus a machine-dependent ["perf"] object
    (documented in EXPERIMENTS.md). *)

(** {2 Introspection (tests)} *)

val epoch : session -> int
val checkpoint_epochs : session -> int list
(** Epochs at which a checkpoint was taken, oldest first. *)

val checkpointable : session -> bool
(** The next epoch re-optimizes, the run has not aborted, and no
    re-optimization has been rejected (a rejected window keeps serving a
    placement a restore could not rebuild). *)

val checkpoint_now : session -> (Checkpoint.t, string) result
(** Serialize the current state; [Error] when not {!checkpointable}. *)

val state_fingerprint : session -> string
(** Digest of the live controller state (assignment dump, rule tables,
    failure mask, handler counters, class rates) — equal across a
    checkpoint/restore round-trip once both sessions have re-optimized. *)
