(** Runs one workload for a time budget and reports its metrics.

    An untraced run reports the end-to-end metrics; a traced run replays
    the same seed with every operation split into timed public calls and
    Telemetry counters on, and reports the per-layer metrics instead. *)

type metric = { name : string; value : float; unit_ : string }

type report = {
  workload : string;
  attempted : int;  (** operations run, the warm-up included *)
  failed : int;  (** operations that raised, were refused or failed a check *)
  errors : string list;
      (** one message per failed operation, in order, then any failed
          run-level check; the run is correct when this is empty *)
  latency : Measure.summary;
      (** operation latencies in ms, the warm-up left out; its tail is
          printed, not a metric *)
  digest : string;
      (** MD5 of the set-up and of the outputs of the first
          [min_ops] operations *)
  metrics : metric list;
}

val run :
  ?jobs:int -> Workloads.t -> seed:int -> seconds:float -> traced:bool -> report
(** Set up (untraced: three to nine times, [setup_s] is their median),
    run one untimed warm-up operation, then operations back to back
    until at least [min_ops] (and two) have run and [seconds] have
    passed.  [jobs] (default [min 2] the domain count) bounds the worker
    domains the pipeline uses. *)

val main : string array -> int
(** [apple_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]]:
    run, print each metric as [name value unit], the digest and, as the
    last line, one JSON object with [correct], [attempted], [failed] and
    [metrics].  Returns the exit code: 0 when every check passed, 1 when
    one failed, 2 on a bad command line. *)
