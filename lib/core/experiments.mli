(** Experiment drivers: one per table/figure of the paper's evaluation.

    Each function runs the corresponding workload and returns the rendered
    rows (plus raw numbers where tests need them).  The bench executable
    and the CLI both print these, so the reproduction is a single command
    per artifact. *)

type rendered = { title : string; body : string }

val print : rendered -> unit

(** Global knobs, kept deliberately small.  [scale] < 1 shrinks snapshot
    counts/runs for quick smoke runs. *)
type opts = { seed : int; scale : float }

val default_opts : opts

val table1 : opts -> rendered
(** Framework property comparison, APPLE's column verified mechanically. *)

val table3 : opts -> rendered
(** TCAM layout of a representative ingress switch (Table III shape). *)

val table4 : opts -> rendered
(** VNF data sheets. *)

val table5 : opts -> rendered * (string * float) list
(** Placement computation time per topology: the default race
    ({!Engine_select.solve}), both engines' time summed; also returns
    the raw [(topology, seconds)] pairs. *)

val fig6 : opts -> rendered
val fig7 : opts -> rendered
val fig8 : opts -> rendered
val fig9 : opts -> rendered

val fig9_polled : opts -> rendered
(** The Fig. 9 experiment with detection driven by polled dataplane
    counters ({!Apple_obs.Poller}) instead of the oracle rate: event
    timelines for both modes side by side, plus detection latency as a
    function of the poll period (10–200 ms).  The oracle run stays the
    ground truth; the gap is the measurement plane's delay. *)

val fig10 : opts -> rendered * (string * Apple_prelude.Stats.boxplot) list
(** TCAM reduction ratio boxplots per topology. *)

val fig11 : opts -> rendered * (string * int * int) list
(** Average CPU cores: [(topology, apple_cores, ingress_cores)]. *)

val fig12 : opts -> rendered * (string * float * float * float) list
(** Loss over time: [(topology, mean loss with failover, mean loss
    without, mean extra cores)]. *)

val all : opts -> rendered list
(** Every artifact in paper order. *)

(** {2 Ablations — design-choice studies beyond the paper's figures} *)

val ablation_engines : opts -> rendered
(** LP pipeline vs greedy heuristic vs selector, per topology:
    instances, cores, solve time. *)

val ablation_passes : opts -> rendered
(** Contribution of the reweighted second LP and the consolidation pass
    to the rounded objective. *)

val ablation_split_depth : opts -> rendered
(** Prefix-split quantization depth vs TCAM entries and weight error,
    compared against the consistent-hashing realization (one rule per
    sub-class, sampled weight error). *)

val ablation_tag_mode : opts -> rendered
(** Local vs global sub-class tags on a NAT-heavy scenario: table sizes,
    tag-space consumption, and how many packet walks survive header
    rewriting under each mode. *)

val ablation_packet_level : opts -> rendered
(** Validate the analytic Fig-6 loss model against the packet-level
    simulator (single-server queue, drop-tail), including the queueing
    latency the analytic model cannot show. *)

val ablation_failure_recovery : opts -> rendered
(** Fail the most-loaded link, let routing recompute paths, and re-run a
    global epoch: APPLE follows the new routing (never reroutes on its
    own) and re-verifies every class end-to-end.  Reports re-routed
    classes, placement delta and recovery solve time. *)

val ablation_scale : opts -> rendered
(** Rocketfuel-scale ISPs (79-161 routers): LP pipeline time/quality vs
    the greedy heuristic — the "gigantic networks" future work of
    Sec. IV-D quantified. *)

val ablation_path_stretch : opts -> rendered
(** The interference APPLE avoids, quantified: path stretch and added
    latency of SIMPLE/StEERING-style steering vs zero detour on-path. *)

val ablations : opts -> rendered list
(** All eight, in the order above. *)
