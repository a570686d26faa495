(** Declarative fault schedules, and their one interpreter, for the
    chaos engine and the soak harness.

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
    pairs, by the rule {!inject} documents.  Kill, TCAM-loss and
    poller-blackout events heal themselves (respawn, reinstall, window
    end), on the clock of the harness that runs the schedule. *)

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

(** {1 Interpreting events}

    {!inject} is what an event means.  Both harnesses call it, so they
    agree on every schedule; each keeps only its own clock, heal timing,
    loss accounting and rendering. *)

type element = Link of (int * int)  (** {!norm_pair} key *) | Switch of int

type open_fault = {
  elem : element;
  since : float;  (** [at] of the event that failed it *)
  sym : bool;  (** named by the symbolic [busiest] target *)
}
(** A failed link or switch whose up/restart has not come yet. *)

type injected =
  | Ignored of string
      (** nothing eligible, or nothing to heal; says which *)
  | Killed of { dead : Apple_vnf.Instance.t; stranded : float }
      (** marked dead in the mask and repaired by the Dynamic Handler,
          which left [stranded] weight blackholed until a respawn *)
  | Failed of open_fault  (** failed in the mask, now open *)
  | Restored of { elem : element; healed : open_fault list; held : bool }
      (** an up or restart for [elem]; [healed] are the open faults it
          closed, newest first (none when they were closed already).
          Restored in the mask unless [held]: a fault still open names
          [elem], so it stays failed. *)
  | Rules_lost of { sw : int; lost : int; p : float }
      (** [lost] APPLE-table entries of switch [sw] dropped, each with
          probability [p] *)
  | Blackout of float  (** the poller is blind for this long *)

val inject :
  Apple_core.Controller.t ->
  rng:(int -> Apple_prelude.Rng.t) ->
  open_fault list ->
  event ->
  injected * open_fault list
(** [inject ctrl ~rng open_faults ev] applies [ev] to the installed
    epoch of [ctrl] and returns what it did with the open faults after
    it (newest first).  Raises [Invalid_argument] before the first
    [run_epoch].

    Symbolic targets are resolved on the live network, ties broken by
    the smallest id, so a schedule resolves identically on every run:
    [hottest] is the in-use, live instance carrying the most offered
    load (loads recomputed first); [busiest] is the live link or switch
    summing the most class rate over the positive-rate classes whose
    path crosses it.

    Pairing: an explicit [link-up]/[switch-restart] closes every open
    fault on its element; a symbolic one closes the newest open
    symbolic fault of its kind, or is [Ignored] when none is open.
    Either restores the element in the mask only when no open fault
    names it any more: an element stays down while any open fault
    holds it, so a symbolic up cannot lift a fault named explicitly on
    the same element.

    A TCAM loss draws one float per entry of the switch's table from
    [rng sw], so each harness keeps its own stream.  A kill is not
    respawned and lost rules are not reinstalled here: heal timing is
    the caller's. *)

val reapply : Apple_core.Controller.t -> open_fault list -> unit
(** Fail every open fault's element in [ctrl]'s current mask: a
    re-optimization starts from a clear one. *)

val element_equal : element -> element -> bool

val element_to_string : element -> string
(** ["u-v"] for a link, the id for a switch, as the text format names
    them. *)
