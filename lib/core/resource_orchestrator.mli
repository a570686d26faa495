(** The Resource Orchestrator (paper Sec. III): allocates host resources,
    launches and cancels VNF instances, and reports availability to the
    Optimization Engine.

    In the prototype this is OpenStack + libvirt; here it is an exact
    accountant of per-host CPU cores with the measured launch latencies
    attached when a simulation world is provided. *)

type t

val create : host_cores:int array -> t
(** One APPLE host per switch with the given core budgets. *)

val total_cores : t -> int
val used_cores : t -> int -> int
val available_cores : t -> int -> int
(** [A_v] of Eq. (6): free cores at switch [v]'s host. *)

val instances : t -> Apple_vnf.Instance.t list
(** All running instances, launch order. *)

exception Out_of_resources of { host : int; wanted : int; available : int }

val launch :
  t ->
  ?world:Apple_sim.Engine.t ->
  ?rng:Apple_prelude.Rng.t ->
  ?boot:Apple_vnf.Lifecycle.boot_path ->
  ?on_ready:(Apple_vnf.Instance.t -> unit) ->
  Apple_vnf.Nf.kind ->
  host:int ->
  Apple_vnf.Instance.t
(** Reserve cores immediately and return the instance.  When [world] is
    given, the instance is only marked ready (see {!is_ready}) after the
    boot latency of [boot] (default: [Raw_clickos] for ClickOS-able kinds,
    [Normal_vm] otherwise) has elapsed on the simulation clock; [on_ready]
    fires at that moment (immediately without a world).  Raises
    {!Out_of_resources} when the host lacks cores. *)

val is_ready : t -> Apple_vnf.Instance.t -> bool
(** Instances launched without a world are ready at once. *)

val destroy : t -> Apple_vnf.Instance.t -> unit
(** Release the instance's cores.  Idempotent. *)

(** {2 Crash recovery}

    When the chaos engine kills a VNF instance's VM, the orchestrator
    respawns a replacement of the same kind on the same host.  Repeated
    crashes of the same slot back off exponentially (capped), modelling a
    supervisor that avoids hammering a sick hypervisor. *)

type backoff = {
  base : float;  (** delay before the first respawn attempt, seconds *)
  factor : float;  (** multiplier per subsequent attempt *)
  cap : float;  (** upper bound on the delay, seconds *)
}

val default_backoff : backoff
(** base 0.5 s, factor 2, cap 8 s. *)

val backoff_delay : ?policy:backoff -> attempt:int -> unit -> float
(** Pure: [min cap (base *. factor ** attempt)].  Attempt 0 is the first
    respawn.  Raises [Invalid_argument] on a negative attempt. *)

val respawn :
  t ->
  ?world:Apple_sim.Engine.t ->
  ?rng:Apple_prelude.Rng.t ->
  ?boot:Apple_vnf.Lifecycle.boot_path ->
  ?policy:backoff ->
  ?attempt:int ->
  ?on_ready:(Apple_vnf.Instance.t -> unit) ->
  Apple_vnf.Instance.t ->
  Apple_vnf.Instance.t
(** Destroy the dead instance and launch a same-kind replacement on the
    same host.  With a [world], the boot only {e starts} after
    {!backoff_delay} for [attempt] (default 0) has elapsed on the sim
    clock, then takes the usual boot latency; [on_ready] fires when the
    replacement is up.  Without a world the replacement is ready at
    once.  Raises {!Out_of_resources} only if the host cannot even hold
    the replacement after the corpse's cores are released. *)

val adopt : t -> Apple_vnf.Instance.t list -> unit
(** Register instances created elsewhere (e.g. {!Subclass.assign}) so
    their cores are accounted.  Raises {!Out_of_resources} if they do not
    fit. *)

val snapshot_available : t -> int array
(** Available cores per switch — what the Optimization Engine polls. *)
