(** Online VNF placement for newly-arriving flows (the future-work
    extension sketched in Sec. IV: the Optimization Engine handles the
    global problem; new classes between optimization epochs are placed
    greedily without disturbing existing assignments).

    For each arriving class the engine walks its path once per chain
    stage, preferring (in order):

    + an existing instance of the right kind on the path with spare
      capacity at or after the previous stage's hop;
    + a new instance at a switch that already runs instances (consolidate
      hardware);
    + a new instance at any switch on the path with spare cores.

    The result extends a {!Netstate.t} in place — the same state the
    Dynamic Handler operates on — so online arrivals and fast failover
    compose. *)

type outcome = {
  accepted : bool;
  new_instances : Apple_vnf.Instance.t list;  (** spawned for this class *)
  subclass : Netstate.pinned option;  (** the class's single sub-class *)
}

val admit : Netstate.t -> Types.flow_class -> outcome
(** Place one new class.  On success the class's sub-class (full weight)
    is appended to the state and instance loads are updated.  On failure
    (no feasible placement without violating capacity or core budgets)
    the state is unchanged and [accepted = false].

    The class must already carry its routing path and must use a class id
    that does not collide with existing entries of the state's scenario
    (the caller extends [scenario.classes] first — see {!extend_scenario}). *)

val admit_batch : ?jobs:int -> Netstate.t -> Types.flow_class array -> outcome array
(** Admit a burst of arrivals.  Placements are {e planned} in parallel
    across [jobs] domains (default {!Apple_parallel.Pool.default_jobs})
    against a snapshot of the state, then validated and committed
    serially in arrival order; a plan invalidated by an earlier arrival
    in the batch is re-planned against the live state.  The outcomes —
    acceptances, launched instances, sub-classes — are identical for
    every [jobs] value.  Classes must carry consecutive ids continuing
    the state's scenario, exactly as a sequential [admit] fold would
    require. *)

val extend_scenario : Types.scenario -> Types.flow_class -> Types.scenario
(** Functional append of a class (fresh arrays; shared topology). *)

val total_instances : Netstate.t -> int
(** Instances currently provisioned in the state's orchestrator. *)

val total_cores : Netstate.t -> int
