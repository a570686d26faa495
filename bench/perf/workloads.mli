(** The four benchmark workloads.

    Each builds every input from its seed and runs operations in a
    closed loop with one client: the next operation starts when the
    previous one has returned.  An operation reports its own duration, so
    input generation and output checks stay outside the timed region. *)

type installed = { instances : int; cores : int; tcam : int }
(** Size of the configuration an operation left installed. *)

type outcome = {
  line : string;
      (** deterministic rendering of the operation's outputs, hashed into
          the run digest *)
  installed : installed option;
  loss : float list;  (** network loss samples observed by the operation *)
}

type session = {
  describe : string;
  op : Probe.t -> float * (outcome, string) result;
}
(** A set-up workload.  [op] runs the next operation of the stream and
    returns its duration in seconds with its checked outcome: [Error]
    names a failed check.  [describe] renders the set-up deterministically
    for the digest. *)

type t = {
  name : string;
  min_ops : int;
      (** operations every run performs, however long they take; the
          digest and the installed-size means cover exactly these *)
  chunk : int;
      (** operations per chunk of {!Measure.summarize}: one cycle of the
          workload *)
  setup : jobs:int -> seed:int -> session;
}

val cold_reopt : ?classes:int -> ?rungs:int -> ?min_ops:int -> unit -> t
(** Fresh gated epochs round-robin over the topology ladder Internet2,
    GEANT, AS-3679, fat-tree k=8, fat-tree k=16 ([rungs] takes a prefix),
    each on a new seeded gravity matrix capped at [classes] classes. *)

val diurnal_soak :
  ?classes:int -> ?reopt_every:int -> ?min_ops:int -> unit -> t
(** Internet2 at soak settings; every snapshot of an endless diurnal
    sequence runs [handle_snapshot], and every [reopt_every]-th is
    preceded by a rate refresh and a gated re-optimization. *)

val slice_churn :
  ?substrates:int -> ?low:int -> ?high:int -> ?min_ops:int -> unit -> t
(** Slice arrivals and departures on [substrates] independent Internet2
    substrates with the admission gate on, over a fixed catalog of
    [3 * high] tenant slices.  Set-up admits the first [low] on each;
    operations then take the substrates in turn, each the next admit or
    depart of that substrate's endless seeded stream, which swings its
    resident count between [low] and [high]. *)

val failover_heal : ?classes:int -> ?min_ops:int -> unit -> t
(** One gated GEANT install, then seeded VM kills, each repaired,
    respawned, healed, re-gated and walked end to end.  Rates stay at the
    planned matrix: the gate re-checks instance capacity against current
    rates, which diurnal peaks above the plan would fail. *)

val all : t list
(** The four workloads at their benchmark sizes, in that order. *)

(** Slice-stream replay, as {!Apple_slice.Trace.run} plays a trace but
    one decision at a time. *)
module Churn : sig
  type t

  val create :
    jobs:int ->
    ?host_cores:int ->
    Apple_topology.Builders.named ->
    (Apple_slice.Slice.t -> Apple_slice.Trace.entry option) ->
    t
  (** A fresh manager fed by an entry source, which may look at the
      manager's state ([None] ends the stream). *)

  val of_trace :
    jobs:int -> Apple_topology.Builders.named -> Apple_slice.Trace.t -> t
  (** Fed by a trace's entries, with its [cores] directive. *)

  val step : t -> Probe.t -> (float * (outcome, string) result) option
  (** Play entries up to and including the next admit or depart the
      manager must decide; duplicate arrivals and departures of
      non-residents are skipped as [Trace.run] skips them.  [None] once
      the stream is exhausted. *)

  val admitted : t -> int
  val rejected : t -> int
  val manager : t -> Apple_slice.Slice.t
end
