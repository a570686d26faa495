(** Packet-walk verification of the installed data plane.

    Replays the flow chart of Fig. 2 against actual switch tables: a
    packet enters at the ingress switch, gets its sub-class tag, is
    delivered to APPLE hosts named by its host-ID field, traverses VNF
    instances by vSwitch rules, and is retagged on exit.  The walk
    produces the ground truth for the two key properties:

    - {b policy enforcement}: the recorded instance sequence matches the
      class's policy chain in kind and order;
    - {b interference freedom}: the switch sequence equals the routing
      path — APPLE never changed a forwarding decision. *)

type trace = {
  visited : int list;  (** switches traversed, in order *)
  instances : int list;  (** VNF instance ids applied, in order *)
  rule_path : (int * int) list;
      (** (switch, rule uid) of every TCAM match, in order — the flow's
          provenance, and the rules a packet-level simulator should
          credit for each of the flow's packets *)
  final_host_tag : Tag.host_field;
  subclass_tag : int option;
}

val host_lookup_limit : int
(** vSwitch lookups one visit to an APPLE host may make (63): a
    pipeline through at most 62 instances.  The walk fails with
    {!Host_loop} on the next lookup, and the static verifier reports a
    forwarding loop at the same point. *)

type error =
  | No_matching_rule of int  (** switch where the lookup failed *)
  | Vswitch_miss of int
  | Host_loop of int
      (** vSwitch rules cycled inside a host, or ran past
          {!host_lookup_limit} *)
  | Wrong_host of { switch : int; wanted : int }
  | Link_dead of { from : int; to_ : int }
      (** blackhole: the next path link is failed in the {!Failmask} *)
  | Switch_dead of int  (** blackhole: the hop switch is failed *)
  | Instance_dead of { switch : int; instance : int }
      (** blackhole: a vSwitch rule steered into a dead VNF instance *)

val run :
  Tcam.network ->
  path:int list ->
  cls:int ->
  src_ip:int ->
  ?start_in_host:bool ->
  ?rewriters:(int -> bool) ->
  ?flow:int ->
  ?mask:Failmask.t ->
  unit ->
  (trace, error) result
(** Walk one packet of class [cls] with the given source address along the
    routing [path].  [start_in_host] models traffic originating in a
    production VM inside the first hop's APPLE host (the ip3 -> ip4
    scenario of Fig. 3).  [rewriters] flags instances that rewrite packet
    headers (e.g. NAT); after traversing one, header-derived class
    matching becomes impossible, so only globally-tagged vSwitch rules
    keep working (Sec. X).  [flow] (default -1) labels the walk's
    {!Apple_obs.Flight} events when observability is enabled, so
    [apple trace] can reconstruct the causal chain per flow.  [mask]
    (default: none) injects the current {!Failmask}: a walk reaching a
    dead link, switch or instance fails with the corresponding blackhole
    error and, when observability is on, additionally records a
    structured {!Apple_obs.Flight.Blackhole} event naming the dead
    element. *)

type request = {
  rq_path : int list;
  rq_cls : int;
  rq_src_ip : int;
  rq_start_in_host : bool;
  rq_flow : int;
}
(** One walk of a batch; fields mirror {!run}'s arguments. *)

val run_batch :
  Tcam.network ->
  requests:request array ->
  ?rewriters:(int -> bool) ->
  ?mask:Failmask.t ->
  unit ->
  (trace, error) result array
(** Walk a whole batch against one (network, epoch) snapshot.
    Equivalent to mapping {!run} over [requests] — same results, same
    spans, same Flight/Counter side effects, in the same order — but
    the failmask predicates are built once for the whole batch.
    {!Packet_sim} routes all its flows through this. *)

val policy_enforced :
  trace -> instance_kind:(int -> Apple_vnf.Nf.kind) -> chain:Apple_vnf.Nf.kind list -> bool
(** The instance kinds along the trace equal the chain. *)

val interference_free : trace -> path:int list -> bool
(** The visited switches are exactly the routing path. *)

val pp_error : Format.formatter -> error -> unit

val error_code : error -> int
(** The integer encoding shared with the flight recorder's [Walk_end]
    events (1 no-matching-rule ... 7 instance-dead); see
    {!Apple_obs.Flight}. *)
