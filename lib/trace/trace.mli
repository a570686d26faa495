(** Causal epoch tracing and continuous profiling — the one span API.

    Every pipeline unit of work — controller epoch, optimization phase,
    rule generation, verifier gate, dataplane walk, heal — runs inside
    a {!with_} region that records one event into a single ring shared
    by all domains: trace/span/parent ids, the executing domain,
    wall-clock and sim-clock begin/end stamps, and [Gc] minor/major
    allocation deltas.  Causality crosses the
    [lib/parallel] domain pool via {!capture}/{!branch}: the submitter
    captures its span context once per map and every item runs as a
    [pool.item] child span on whichever domain claimed it.  The
    telemetry report's span block is rendered from {!rows}.

    The subsystem is {b off by default} and every entry point first
    reads one boolean, so instrumented hot paths cost a load-and-branch
    when tracing is disabled.  The ring is allocated by
    [set_enabled true], never at module initialisation.  Nothing
    recorded here feeds back into engine decisions.

    {b Determinism.}  Span ids are deterministic mixes of
    [(trace, parent, seq)], sequence numbers are allocated on the
    submitting side, and {!events} sorts on those ids — so the event
    set and its order are independent of [--jobs] and of which domain
    ran which item.  Rendering with {!Sim} additionally zeroes every
    host-dependent field (wall stamps, domain ids, allocation counts,
    which vary across GC timing and compiler versions), making the
    Chrome export byte-identical across [--jobs]
    (see [test/test_trace.ml]). *)

val enabled : unit -> bool
(** Current state of the global switch (default [false]). *)

val set_enabled : bool -> unit
(** [set_enabled true] allocates the ring at {!ring_capacity} slots if
    it is not allocated at that size yet; recorded events survive
    switching tracing off and on. *)

val reset : unit -> unit
(** Drop every recorded event and restart trace-id allocation.  Span
    descriptors stay valid.  Call only while no traced work is in
    flight on other domains. *)

val set_ring_capacity : int -> unit
(** Set the ring's capacity in events, clamped below at 1, and
    re-allocate the ring (at once while tracing is on, else when it is
    next switched on); implies {!reset}.  Default: 65536. *)

val ring_capacity : unit -> int

val dropped : unit -> int
(** Events lost to ring overflow since the last {!reset}.  A full ring
    keeps its first events and drops later ones. *)

(** {1 Sim clock} *)

val set_sim_clock : (unit -> float) option -> unit
(** Install (or remove) a virtual-time source.  While installed, spans
    also record sim-time stamps.  [Apple_sim.Engine.run] installs its
    own clock for the duration of a run. *)

val sim_now : unit -> float option
(** Current virtual time, when a sim clock is installed. *)

val current_sim_clock : unit -> (unit -> float) option
(** The installed clock itself, for save/restore around nested runs. *)

(** {1 Spans} *)

type span
(** An interned span descriptor (name + phase category).  Create once at
    module initialisation, not per use. *)

val span : ?cat:string -> string -> span
(** [span ~cat name] interns a descriptor.  [cat] is the pipeline phase
    used for profile attribution (["epoch"], ["solve"], ["rulegen"],
    ["verify"], ["dataplane"], ["heal"], ...); default ["misc"].
    Registry-idempotent on [name]; the first [cat] wins. *)

val with_ : ?cls:int -> span -> (unit -> 'a) -> 'a
(** Run [f] as a span: a child of the innermost enclosing span on this
    domain, or the root of a fresh trace.  Records one event when [f]
    returns or raises.  [cls] tags the event with a class/tenant/epoch
    index ([-1] when absent).  When tracing is disabled this is [f ()]
    with no clock reads. *)

(** {1 Pool propagation} *)

type context
(** A captured parent-span identity, safe to share across domains. *)

val capture : unit -> context option
(** Capture the current span context (allocating one deterministic
    branch token from the enclosing span), or [None] when tracing is
    disabled.  With no enclosing span, a fresh orphan trace id is
    allocated so branched items still trace deterministically. *)

val branch : context -> index:int -> (unit -> 'a) -> 'a
(** Run one fanned-out item as a [pool.item] span whose parent is the
    captured context, on whatever domain is executing.  [index] is the
    item's position in the map; together with the capture token it
    determines the span id, so ids are identical however items are
    scheduled. *)

val wrap_items : (int -> 'a) -> int -> 'a
(** [wrap_items f] captures the current context once and returns [f]
    with every item wrapped in {!branch}; the identity when tracing is
    disabled.  This is the pool's hook: [map_range] instruments its
    item function with it. *)

(** {1 Export} *)

type event = {
  ev_trace : int;  (** trace (root-span) id, allocation order *)
  ev_id : int;  (** span id, deterministic mix of (trace, parent, seq) *)
  ev_parent : int;  (** parent span id; 0 for roots *)
  ev_seq : int;  (** child index under the parent *)
  ev_name : string;
  ev_cat : string;
  ev_cls : int;  (** class/tenant/epoch tag; -1 when absent *)
  ev_domain : int;  (** domain that executed the span *)
  ev_wall0 : float;  (** [Unix.gettimeofday] at begin *)
  ev_wall1 : float;  (** ... and at end *)
  ev_sim0 : float;  (** sim clock at begin; [nan] when uninstalled *)
  ev_sim1 : float;  (** ... and at end *)
  ev_minor : float;  (** minor words allocated during the span *)
  ev_major : float;  (** major words allocated during the span *)
}

val events : unit -> event list
(** Every completed span, in the deterministic
    [(trace, parent, seq, ...)] order.  Collect only after traced work
    has drained (e.g. after the pool map returned). *)

type mode =
  | Wall  (** host profiling view: wall stamps, domains, allocations *)
  | Sim  (** deterministic view: sim stamps only, host fields zeroed *)

val mode_of_string : string -> (mode, string) result
val mode_to_string : mode -> string

val render_chrome : ?mode:mode -> unit -> string
(** Chrome trace-event JSON (schema [apple-trace/1]): one complete
    ["ph":"X"] event per span, loadable in Perfetto / speedscope /
    [chrome://tracing].  Timestamps and durations are microseconds:
    wall time rebased to the earliest event ({!Wall}) or sim time
    ({!Sim}, default).  In {!Sim} mode [tid] is 0 and the wall and
    allocation args are zeroed — the render is byte-identical across
    [--jobs]. *)

type row = {
  r_name : string;
  r_cat : string;
  r_count : int;
  r_total : float;  (** summed span duration, seconds *)
  r_self : float;  (** total minus direct children, clamped at 0 *)
  r_minor : float;  (** minor words allocated (0 in {!Sim} mode) *)
}

val rows : ?mode:mode -> unit -> row list
(** Self-time attribution per span name, sorted by self time
    descending (ties by name). *)

type phase = {
  ph_cat : string;
  ph_count : int;
  ph_self : float;  (** summed self time of the phase's spans, seconds *)
  ph_share : float;  (** fraction of all self time, in [0, 1] *)
}

val phases : ?mode:mode -> unit -> phase list
(** {!rows} aggregated by category, sorted by share descending (ties by
    category name). *)

val render_table : ?mode:mode -> unit -> string
(** Aligned text table of {!rows} with a phase-share summary — the
    [apple profile] report. *)
