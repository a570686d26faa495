(** The APPLE controller: the top-level façade gluing the Optimization
    Engine, Resource Orchestrator, Rule Generator and Dynamic Handler
    together (Fig. 1 of the paper).

    Typical use:
    {[
      let controller = Controller.create scenario in
      let report = Controller.run_epoch controller in
      (* ... traffic arrives ... *)
      Controller.handle_snapshot controller tm;  (* per snapshot *)
    ]}

    [run_epoch] is the large-time-scale loop (periodic global
    re-optimization); [handle_snapshot] is the small-time-scale loop
    (rate refresh + fast failover). *)

type t

type epoch_report = {
  placement : Optimization_engine.placement;
  rules : Rule_generator.built;
  instances : int;
  cores : int;
  tcam_entries : int;
  solve_seconds : float;
}

type engine = [ `Best | `Lp | `Greedy ]
(** Placement engine for the epoch: the selector (default), which races
    {!Optimization_engine.solve}'s shortest-path placement against the
    greedy ({!Engine_select.solve}); the monolithic LP pipeline
    ({!Optimization_engine.Lp_round}); or the greedy heuristic alone.  A
    controller created with [?shape] races the LP pipeline in [`Best]
    instead (see {!create}). *)

type gate =
  ?changed:int list ->
  Types.scenario ->
  Subclass.assignment ->
  Rule_generator.built ->
  (unit, string) result
(** Admission check run on every generated configuration before it is
    installed.  [Apple_verify.Verify.gate] is the intended instance (the
    dependency points the other way, so the verifier is injected rather
    than imported).  [changed], when given, lists the switches whose
    tables are all that changed since the gate's last [Ok] (see
    {!recheck_gate}); the gate may then check only what they can
    reach. *)

type shape = Types.scenario -> Subclass.assignment -> Subclass.assignment
(** Post-placement assignment rewrite applied between {!Subclass.assign}
    and rule generation — the slicing layer's tenant-isolation pass
    re-homes isolated slices onto dedicated instance clones here, so the
    generated tables (and the gate's proofs) see the final pinning. *)

exception Rejected of string
(** Raised by {!run_epoch} when the gate refuses the configuration; the
    previously installed epoch (if any) stays live. *)

val create :
  ?objective:Optimization_engine.objective ->
  ?engine:engine ->
  ?jobs:int ->
  ?failover:Dynamic_handler.config ->
  ?load_source:Dynamic_handler.load_source ->
  ?gate:gate ->
  ?shape:shape ->
  Types.scenario ->
  t
(** [jobs] bounds the domains used by the greedy's parallel section, in
    [`Greedy] and in [`Best]'s greedy half (default
    {!Apple_parallel.Pool.default_jobs}); placements are identical for
    every value.  [load_source] (default [Oracle]) is forwarded to the
    Dynamic Handler built on each epoch.  [gate] (none by default) vets
    each epoch's rule tables before installation; [shape] (none by
    default) rewrites the assignment before rules are generated.  With a
    [shape], [`Best] races {!Optimization_engine.Lp_round} against the
    greedy instead of the default shortest paths: the slicing layer's
    isolation pass clones each isolated slice's shared instances, and
    the more a placement consolidates, the more clones overflow host
    budgets. *)

val run_epoch : t -> epoch_report
(** Global optimization for the scenario's current rates: solve, pin
    sub-classes, generate rules, gate-check them (when a gate was given),
    and (re)build the network state.  Raises
    {!Optimization_engine.Infeasible} if the hosts cannot carry the load
    and {!Rejected} if the gate refuses the configuration. *)

val handle_snapshot : t -> Apple_traffic.Matrix.t -> float
(** Update class rates from a snapshot, run one Dynamic-Handler round, and
    return the network loss rate for this snapshot.  Requires a prior
    {!run_epoch}. *)

val scenario : t -> Types.scenario
val netstate : t -> Netstate.t option
val last_report : t -> epoch_report option

val assignment : t -> Subclass.assignment option
(** Sub-class assignment of the last installed epoch, if any — the
    ground truth [apple top] and [apple trace] need to synthesize
    representative flows per sub-class. *)

val handler : t -> Dynamic_handler.t option
(** The Dynamic Handler of the current epoch — the chaos engine drives
    its repair path directly. *)

val reinstall_rules : t -> Rule_generator.built
(** Regenerate and install the rule tables from the current scenario and
    assignment — the recovery action after TCAM rule loss.  The epoch
    report is updated in place; previously obtained
    {!epoch_report.rules} values are stale afterwards, and the next
    {!recheck_gate} runs in full.  Requires a prior {!run_epoch}. *)

val recheck_gate : t -> (unit, string) result
(** Re-run the admission gate against the currently installed tables
    (trivially [Ok] when no gate was configured) — every healed epoch
    must pass before the chaos engine calls recovery complete.

    The gate gets [?changed] (the switches one-table heals rewrote)
    only when its last verdict was [Ok] and no table has been written
    since except by such heals: every table's {!Apple_dataplane.Tcam.writes}
    still equals what the controller recorded after its own last write.
    An epoch, {!reinstall_rules}, a heal that regenerated, a failed
    verdict or any outside write makes the next re-check full. *)

val heal_instance :
  t ->
  dead:Apple_vnf.Instance.t ->
  replacement:Apple_vnf.Instance.t ->
  unit
(** Complete recovery from a VM death once the respawned [replacement]
    is ready: heal the Dynamic Handler (swap pinnings, restore repaired
    weights), update the assignment records, clear [dead] from the
    failure mask and bring the tables up to date.

    When every table is exactly as the controller last wrote it, the
    tables equal the rule generator's output, so renaming [dead] to
    [replacement] in the vSwitch tables of the switches serving its
    stages (its host's) gives what {!reinstall_rules} would; only those
    tables are written, and {!epoch_report.rules} keeps its network.
    Otherwise — a TCAM loss or another write since — every table is
    regenerated as {!reinstall_rules} does.  Requires a prior
    {!run_epoch}. *)

val set_load_source : t -> Dynamic_handler.load_source -> unit
(** Change where the {e next} epoch's Dynamic Handler reads loads from —
    the soak harness resets the measurement plane (counters + a fresh
    poller) at every re-optimization so polled state never straddles a
    window boundary. *)

val verify : t -> (unit, string) result
(** End-to-end self-check of the current epoch: distribution constraints
    (Eq. 2–6), sub-class weight consistency, instance-capacity respect,
    and packet walks proving policy enforcement and interference freedom
    for every sub-class. *)
