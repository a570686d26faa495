(** Clock and statistics shared by the benchmark runner.

    Percentiles come from {!Apple_prelude.Stats.percentile}; this module
    adds only what the benchmark needs on top: the monotonic clock, the
    rule that picks which tail percentile a sample supports, a power-law
    fit for scaling exponents and the closure arithmetic of the traced
    run. *)

val now_ns : unit -> int64
(** Bechamel's monotonic clock, in nanoseconds.  The only clock read in
    the benchmark. *)

val since : int64 -> float
(** Seconds elapsed since a {!now_ns} reading. *)

val time : (unit -> 'a) -> 'a * float
(** Run [f] and return its result with its duration in seconds. *)

val tail_percentile : int -> float option
(** The highest of p90, p95, p99 and p99.9 that has at least ten of [n]
    samples beyond it, or [None] when only the median is supported
    (n = 20 gives [None], n = 120 gives [Some 90.], n = 1200 gives
    [Some 99.]). *)

type summary = {
  n : int;
  p50 : float;
  tail : (float * float) option;  (** the {!tail_percentile} and its value *)
  chunk_mean : float;
      (** median, over consecutive chunks of the sample, of each chunk's
          mean: the mean cost of an operation with slow stretches of a
          shared host voted out *)
}

val summarize : chunk:int -> float array -> summary
(** Percentiles by {!Apple_prelude.Stats.percentile}, means by
    {!Apple_prelude.Stats.mean}.  Only complete chunks of [chunk]
    samples count; a sample shorter than one chunk is one chunk.  Raises
    [Invalid_argument] on an empty sample. *)

val scaling_exponent : (float * float) list -> float option
(** Least-squares slope of [ln y] against [ln x]: the exponent [b] of
    [y = a * x^b].  [None] when fewer than two points are positive or
    the positive [x] values span less than a factor of 1.5. *)

val unattributed : stages:float -> total:float -> float
(** [1 - stages / total]: the share of an operation that none of its
    timed stages accounts for. *)
