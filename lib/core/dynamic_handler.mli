(** The Dynamic Handler (paper Sec. III and VI): fast failover for
    small-time-scale traffic dynamics.

    On an overload notification from a VNF instance it (1) halves the
    weight of every sub-class traversing that instance, (2) spreads the
    freed share onto the least-loaded sibling sub-classes of the same
    class, and (3) if that would overload the siblings, spawns new
    lightweight ClickOS instances and creates new sub-classes to absorb
    the excess.  When the instance's rate falls back under the low
    watermark, the distribution rolls back and the spawned instances are
    cancelled.  Only TCAM rule updates (~70 ms) and ClickOS boots
    (~30 ms) are involved, which is what makes the reaction fast. *)

type config = {
  high_watermark : float;  (** overload when utilization exceeds this *)
  low_watermark : float;  (** roll back when utilization falls below *)
  spawn_allowed : bool;  (** disallow to study pure rebalancing *)
}

val default_config : config
(** high 0.95, low 0.45 — the 8.5/4 Kpps thresholds of Sec. VIII-E scaled
    to the monitor's ~9 Kpps capacity. *)

type load_source =
  | Oracle
      (** read {!Apple_vnf.Instance.offered} directly — simulator ground
          truth, the seed behaviour *)
  | Polled of Apple_obs.Poller.t
      (** read the poller's counter-derived rate estimates, delayed and
          EWMA-smoothed exactly as a real controller's measurement plane
          would be *)

type t

val create : ?config:config -> ?load_source:load_source -> Netstate.t -> t
(** [load_source] (default [Oracle]) selects where overload {e detection}
    reads instance load from.  Rollback bookkeeping always uses the
    controller's own weights and baselines — that is control-plane
    state, not a measurement. *)

val step : t -> unit
(** One control round against current instance loads: detect overloads,
    fail over, and roll back recovered instances.  Loads are recomputed
    before and after.  Call once per traffic snapshot. *)

(** {2 Crash repair}

    The chaos engine's VM-death fault is handled by a separate repair
    path, not by fast failover: a dead instance is a blackhole, not an
    overload. *)

val repair : t -> dead:Apple_vnf.Instance.t -> float
(** Re-run admission for only the sub-classes pinned to [dead], warm
    started from current weights: shift as much of each victim's share
    as live sibling sub-classes absorb under the high watermark.  The
    unabsorbable remainder stays on the victim — visibly blackholed (see
    {!Netstate.blackholed}) — until {!heal}.  Returns the stranded
    weight fraction summed over classes.  Idempotent per dead instance:
    repeated calls extend the same repair episode. *)

val heal : t -> dead:Apple_vnf.Instance.t -> replacement:Apple_vnf.Instance.t -> unit
(** The respawned replacement is ready: swap it into every sub-class
    stage still pinned to [dead], restore the repair episode's touched
    weights to their baselines and close the episode.  The caller must
    clear [dead] from the failure mask and reinstall rules (the
    replacement has a new instance id). *)

val pending_repairs : t -> Apple_vnf.Instance.t list
(** Dead instances with an open repair episode. *)

val overloaded_instances : t -> Apple_vnf.Instance.t list
(** Instances currently in the overloaded state (for inspection). *)

val spawned_cores : t -> int
(** Cores held by failover-spawned instances right now. *)

val events : t -> (string * int) list
(** Counters: [("overloads", n); ("spawns", n); ("rollbacks", n);
    ("rebalances", n); ("repairs", n); ("heals", n)]. *)
