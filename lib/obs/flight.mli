(** Flight recorder: a bounded binary ring of dataplane and controller
    events, dumped to disk on a verifier violation or an uncaught CLI
    exception so the causal chain leading to a fault survives the crash
    (same idea as an avionics flight recorder, or Envoy's crash-dump
    trace ring).

    Recording is gated on {!Counters.enabled} (one boolean per event)
    and each event is a fixed 56-byte slot — sequence number, timestamp,
    kind, four integer operands — written into a preallocated ring, so
    the enabled path allocates nothing and the disabled path is a
    load-and-branch.  Timestamps come from the simulation clock when one
    is installed ({!Apple_trace.Trace.set_sim_clock}), else from
    [Unix.gettimeofday].

    The operand meaning per kind (decoded by {!Provenance}):
    - [Walk_start]: a=flow, b=class, c=src_ip, d=ingress switch
    - [Rule_match]: a=flow, b=switch, c=rule uid, d=action code
      (0 deliver-to-host, 1 tag-and-deliver, 2 tag-and-forward,
      3 set-host-and-forward, 4 pass-by)
    - [Tag_set]: a=flow, b=sub-class tag, c=host code
      (>= 0 host id, -1 Empty, -2 Fin)
    - [Inst_enter]: a=flow, b=switch, c=instance id
    - [Walk_end]: a=flow, b=error code (0 ok, 1 no-matching-rule,
      2 vswitch-miss, 3 host-loop, 4 wrong-host), c=faulting switch
    - [Pkt_drop]: a=flow, b=instance id
    - [Poll]: a=poll ordinal, b=instances sampled
    - [Overload]: a=instance id, b=utilization in 0.1%% units
    - [Recover]: a=instance id
    - [Epoch]: a=classes, b=instances, c=cores
    - [Rules]: a=TCAM entries, b=vSwitch rules, c=global tags
    - [Violation]: a=verifier code ordinal, b=class, c=sub-class,
      d=switch
    - [Blackhole]: a=flow, b=switch, c=detail (peer switch for a dead
      link, instance id for a dead instance, -1 otherwise), d=reason
      (0 link down, 1 switch down, 2 instance dead)
    - [Note]: free-form (also the decode fallback for unknown codes) *)

type kind =
  | Walk_start
  | Rule_match
  | Tag_set
  | Inst_enter
  | Walk_end
  | Pkt_drop
  | Poll
  | Overload
  | Recover
  | Epoch
  | Rules
  | Violation
  | Note
  | Blackhole

val kind_name : kind -> string

type event = {
  seq : int;  (** 0-based global sequence number *)
  time : float;  (** sim time when a sim clock is installed, else wall *)
  kind : kind;
  a : int;
  b : int;
  c : int;
  d : int;
}

val record : ?a:int -> ?b:int -> ?c:int -> ?d:int -> kind -> unit -> unit
(** Append one event when {!Counters.enabled}; otherwise a no-op.
    Omitted operands are 0. *)

val set_capacity : int -> unit
(** Resize (and clear) the ring.  Default capacity: 4096 events. *)

val capacity : unit -> int

val events : unit -> event list
(** Surviving events, oldest first. *)

val length : unit -> int
val total : unit -> int
(** Events ever recorded (>= [length]; the excess was overwritten). *)

val clear : unit -> unit

(** {2 Disk round-trip} *)

val dump : path:string -> unit
(** Write the surviving events to [path] ("APPLFR1\n" magic, little-
    endian 64-bit count, then 56-byte slots oldest first). *)

val load : path:string -> (event list, string) result
(** Read a dump back; [Error] on a missing file or bad magic. *)
