(** Differential regression goldens.

    Each entry renders one canonical artifact (experiment tables, a
    chaos drill, the LP kernel's solve corpus, and the verifier reports
    and atoms read off BDDs) deterministically at fixed seeds.
    [tools/make_goldens.exe] records them under [test/goldens/]; the
    tier-1 suite re-renders each entry and fails with a readable unified
    diff when the output drifts.  Refresh intentionally with
    [make goldens] and review the diff like any other code change. *)

val entries : (string * (unit -> string)) list
(** [(name, render)] pairs; the golden file is [test/goldens/NAME.txt]. *)

val drill_schedule : Fault.schedule
(** The all-fault-kinds drill behind the [chaos_internet2] entry —
    the programmatic twin of [examples/chaos_internet2.sched]. *)

val diff : expected:string -> actual:string -> string
(** [""] when equal; otherwise a line-by-line unified diff
    ([- expected] / [+ actual], common lines indented). *)

val check : path:string -> actual:string -> (unit, string) result
(** Compare [actual] against the golden recorded at [path].  [Error]
    carries either a missing-golden message or the drift diff; both
    name [make goldens] as the refresh path. *)
