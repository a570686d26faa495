(** What the traced run records: time spent in each layer's public calls,
    timed from outside, plus named sums and sample series.

    An untraced probe records nothing and {!call} is a plain
    application, so the same operation code serves both runs. *)

type layer =
  | Optimization_engine  (** [Optimization_engine.solve], the LP pipeline *)
  | Heuristic_engine  (** [Heuristic_engine.solve] + [check_distribution] *)
  | Subclass  (** [Subclass.assign] *)
  | Rule_generator  (** [Rule_generator.build] *)
  | Verify  (** [Verify.check], [Controller.recheck_gate] *)
  | Netstate
      (** install ([of_assignment] + [recompute_loads]), [network_loss] *)
  | Scenario  (** [Scenario.update_rates] *)
  | Dynamic_handler  (** [Dynamic_handler.step], [repair] *)
  | Resource_orchestrator  (** [Resource_orchestrator.respawn] *)
  | Controller  (** [Controller.heal_instance] *)
  | Dataplane  (** [Failmask.fail_instance], [Walk.run_batch] *)
  | Slice  (** [Slice.admit], [Slice.depart] *)

val layers : layer list
val layer_name : layer -> string

type t

val create : traced:bool -> t
val traced : t -> bool

val call : t -> layer -> (unit -> 'a) -> 'a
(** Time [f] into [layer] when traced; otherwise just [f ()]. *)

val busy : t -> layer -> float
(** Seconds recorded in [layer] so far. *)

val busy_total : t -> float
(** Seconds recorded across all layers so far. *)

val add : t -> string -> float -> unit
(** Add to a named sum (traced only). *)

val sample : t -> string -> float -> unit
(** Append to a named sample series (traced only). *)

val point : t -> string -> x:float -> y:float -> unit
(** Append an [(x, y)] point to a named series for a scaling fit (traced
    only). *)

val sum : t -> string -> float
val samples : t -> string -> float array
val points : t -> string -> (float * float) list
