(** Process-wide observability: a metrics registry (counters, gauges,
    histograms) with text / JSON-lines / Prometheus exporters.  Timed
    regions are {!Apple_trace.Trace} spans; the exporters render their
    per-name summary from [Trace.rows].  This module reads no clock.

    The subsystem is {b off by default} and every update site first reads
    one boolean, so instrumented hot paths (simplex pivots, pool chunk
    claims, sim events) cost a load-and-branch when telemetry is
    disabled — the engines' [--jobs] determinism contract and the
    Table-V timings are unaffected.  When enabled, counters use
    [Atomic] and the remaining structures take a short per-metric lock,
    so updates are safe from any domain of the worker pool.

    Telemetry is a side channel: nothing in here feeds back into engine
    decisions, so enabling it never changes placements, rule tables or
    simulation results (enforced by [test/test_parallel.ml]). *)

val enabled : unit -> bool
(** Current state of the global switch (default [false]). *)

val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero every registered metric.  Registered metric handles stay valid
    (the registry itself is kept). *)

(** Monotone integer counters (events, pivots, rules, chunks...). *)
module Counter : sig
  type t

  val create : string -> t
  (** Registry-idempotent: [create name] twice returns the same counter.
      Raises [Invalid_argument] if [name] is registered as another
      metric type. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
end

(** Last-value gauges with an optional high-watermark update. *)
module Gauge : sig
  type t

  val create : string -> t
  val set : t -> float -> unit

  val set_max : t -> float -> unit
  (** Keep the maximum of the current and the given value. *)

  val value : t -> float
  val name : t -> string
end

(** Log-spaced-bucket histograms.

    Bucket [i] holds values [v] with [upper (i-1) < v <= upper i] where
    [upper i = lo * 10^((i+1) / buckets_per_decade)]; values at or below
    [lo] land in bucket 0 and the last bucket is an overflow catching
    everything above the covered decades.  Boundaries are precomputed,
    so membership is exact (no per-observation [log]). *)
module Histogram : sig
  type t

  val create : ?lo:float -> ?buckets_per_decade:int -> ?decades:int -> string -> t
  (** Defaults: [lo = 1e-6], [buckets_per_decade = 4], [decades = 12] —
      1 us to 1 Ms when observing seconds.  Registry-idempotent; the
      shape parameters of the first creation win. *)

  val observe : t -> float -> unit
  (** Count one observation.  NaN is dropped (it would poison the sum and
      misbucket into the overflow bucket); zero and negative values land
      in the smallest bucket; a value exactly on a bucket's upper bound
      lands in that bucket (bounds are inclusive). *)

  val count : t -> int
  val sum : t -> float
  val max_value : t -> float
  (** Largest observed value; [neg_infinity] when empty. *)

  val num_buckets : t -> int

  val bucket_index : t -> float -> int
  (** Bucket an observation of [v] would land in. *)

  val bucket_upper : t -> int -> float
  (** Inclusive upper bound of bucket [i]; [infinity] for the last. *)

  val bucket_count : t -> int -> int

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [0,100]: the upper bound of the first
      bucket whose cumulative count reaches the rank (an upper
      estimate); [nan] when empty. *)

  val name : t -> string
end

(** Snapshot accessors (all sorted by metric name). *)

val counters : unit -> (string * int) list
val gauges : unit -> (string * float) list

type histogram_summary = {
  h_count : int;
  h_sum : float;
  h_max : float;
  h_p50 : float;
  h_p95 : float;
}

val histograms : unit -> (string * histogram_summary) list

(** Exporters. *)

type format = Text | Json | Prom

val format_of_string : string -> (format, string) result
val format_to_string : format -> string

val render : format -> string
(** {!render Text}: aligned tables (counters, gauges, histograms, spans)
    via [Apple_prelude.Text_table]; the span block has one row per
    traced span name (count, total and self wall seconds) and its
    header states [Trace.dropped ()].  {!render Json}: one JSON object
    per line — counters, gauges, histograms, then spans.
    {!render Prom}: Prometheus text exposition format (names sanitized
    to [[a-zA-Z0-9_]], histograms as cumulative [_bucket{le=...}]
    series, each span as [<name>_seconds_total] and [<name>_count]
    families), in one global name order. *)
