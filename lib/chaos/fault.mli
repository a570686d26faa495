(** Declarative fault schedules for the chaos engine.

    A schedule is a time-ordered list of fault events on the simulation
    clock.  Targets are either explicit element ids or the symbolic
    selectors [hottest] (the VNF instance carrying the most offered
    load) and [busiest] (the link/switch carrying the most rate-weighted
    class paths), resolved deterministically at injection time.

    Schedules can be built programmatically ({!empty}/{!add}) or loaded
    from a small line-based text format:

    {v
    # comment; blank lines ignored; times in sim seconds
    at 0.5 kill-instance hottest
    at 0.5 link-down busiest
    at 1.5 link-up busiest
    at 0.9 switch-crash 3
    at 1.9 switch-restart 3
    at 0.7 tcam-loss busiest 0.5
    at 1.1 poller-blackout 0.25
    v}

    [link-down]/[link-up] and [switch-crash]/[switch-restart] come in
    pairs: the up event heals the element the matching down event
    failed (a symbolic up heals the most recent symbolic down).  Kill,
    TCAM-loss and poller-blackout events heal themselves (respawn,
    reinstall, window end). *)

type target =
  | Hottest  (** instance with the most offered load at injection time *)
  | Busiest  (** link/switch with the most rate-weighted paths *)
  | Id of int  (** explicit switch or instance id *)
  | Pair of int * int  (** explicit undirected link *)

type fault =
  | Kill_instance of target  (** VM death; target [Hottest] or [Id] *)
  | Link_down of target  (** target [Busiest] or [Pair] *)
  | Link_up of target
  | Switch_crash of target  (** target [Busiest] or [Id] *)
  | Switch_restart of target
  | Tcam_loss of target * float
      (** lose each APPLE-table entry of the switch with the given
          probability (0 < p <= 1); target [Busiest] or [Id] *)
  | Poller_blackout of float
      (** the counter poller goes blind for this many seconds: control
          rounds are skipped, detection is delayed *)

type event = { at : float; fault : fault }

type schedule = event list
(** Kept sorted by time (stable: same-time events keep insertion
    order). *)

val empty : schedule

val add : schedule -> at:float -> fault -> schedule
(** Insert keeping the time order; same-time events stay in insertion
    order. *)

val validate : schedule -> (unit, string) result
(** Errors name the event by its position in time order
    ([event N (at T): ...]).  Checks: finite, non-negative times; TCAM-loss probability in
    (0, 1]; positive, finite blackout durations; targets legal for their fault kind
    (e.g. [Hottest] only kills instances); and pairing — at every prefix
    of the schedule, up/restart events never outnumber the matching
    down/crash events (per explicit element, and in aggregate for the
    symbolic [Busiest]). *)

val parse : string -> (schedule, string) result
(** Parse the text format above.  The result is validated as by
    {!validate}, and every error, a failed check included, names the
    offending line ([line N: ...]). *)

val to_string : schedule -> string
(** Render back to the text format ([parse]-roundtrippable). *)

val fault_name : fault -> string
(** Short kind name: ["kill-instance"], ["link-down"], ... *)

val pp_fault : Format.formatter -> fault -> unit
val pp_event : Format.formatter -> event -> unit

val norm_pair : int * int -> int * int
(** The undirected link key: the smaller endpoint first. *)

(** {1 Symbolic target resolution}

    Each selector reads the live network at injection time and breaks
    ties by the smallest id, so a schedule resolves identically on every
    run. *)

val hottest_instance : Apple_core.Netstate.t -> Apple_vnf.Instance.t option
(** [Hottest]: after recomputing loads, the in-use instance that is not
    failed in the state's mask and carries the most offered load. *)

val busiest_link :
  Apple_core.Types.scenario -> Apple_dataplane.Failmask.t -> (int * int) option
(** [Busiest] for link faults: the live link ({!norm_pair} key) summing
    the most class rate over the positive-rate classes whose path
    crosses it. *)

val busiest_switch :
  Apple_core.Types.scenario -> Apple_dataplane.Failmask.t -> int option
(** [Busiest] for switch and TCAM faults: the live switch summing the
    most class rate over the positive-rate classes whose path visits
    it. *)
