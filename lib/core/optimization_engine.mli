(** The Optimization Engine (paper Sec. IV): traffic-aware VNF placement.

    Builds the ILP of Eq. (1)–(8) over flow classes — decision variables
    [d.(h).(i).(j)] (portion of class [h] processed for chain stage [j] at
    path hop [i]) and [q.(v).(k)] (instances of NF kind [k] at switch [v])
    — and solves it either exactly (branch and bound, small instances) or
    with the paper's LP-relaxation + rounding, followed by a repair pass
    that restores per-host resource feasibility and a shrink pass that
    removes provably unneeded instances. *)

type objective =
  | Min_instances  (** Eq. (1): minimize the instance count *)
  | Min_cores  (** weight each instance by its core requirement (Fig. 11) *)

type method_ =
  | Lp_round  (** LP relaxation + round + repair (the paper's choice) *)
  | Ilp of int  (** exact branch and bound with the given node budget *)
  | Per_class
      (** price-directed decomposition: rounds of independent per-class
          LPs (order + completion constraints only, capacity priced into
          the objective) solved in parallel across domains, merged in
          class order and repriced between rounds.  Deterministic for
          any [jobs]. *)

type placement = {
  counts : int array array;
      (** [counts.(v).(k)] = instances of {!Apple_vnf.Nf.kind_of_index}[ k]
          at switch [v] *)
  distribution : float array array array;
      (** [distribution.(h).(i).(j)] = d^i_{h,j}; dimensions follow each
          class's path and chain lengths *)
  objective_value : float;  (** of the integral solution *)
  lp_objective : float;  (** relaxation bound *)
  solve_seconds : float;  (** wall-clock spent in the solver *)
  model_size : string;  (** vars/constraints summary for reporting *)
}

exception Infeasible of string
(** No placement satisfies capacity/resource constraints (e.g. the host
    budget cannot host the chains of the offered load). *)

val solve :
  ?objective:objective ->
  ?method_:method_ ->
  ?reweight:bool ->
  ?consolidate:bool ->
  ?jobs:int ->
  Types.scenario ->
  placement
(** Defaults: [Min_instances], [Lp_round], both post-passes on.
    [reweight] enables the second LP pass that prices under-utilized
    sites (for [Per_class] it gates the repricing rounds: three rounds,
    or a single one when [false]); [consolidate] enables the post-rounding
    instance-merging pass.  Both exist for the bench's ablation study —
    disable them only to measure their contribution.

    For [Lp_round] the second pass changes only the instance variables'
    objective coefficients, so it reprices them on the relaxation's own
    model ({!Apple_lp.Model.set_obj}) and re-solves from the
    relaxation's feasible start ({!Apple_lp.Model.solve_lp}[ ~start]).
    A solve therefore builds one model and runs one phase 1, and its
    placement is bit-identical to re-solving from scratch.

    [jobs] (default {!Apple_parallel.Pool.default_jobs}, i.e. the
    [APPLE_JOBS] environment variable or the machine's domain count)
    bounds the domains used by [Per_class]'s parallel class fan-out; the
    result is byte-identical for every [jobs] value. *)

val check_distribution : Types.scenario -> placement -> (unit, string) result
(** Verifies Eq. (2)–(4) (chain order and completion) and Eq. (5)–(6)
    (capacity and host resources) at 1e-6 tolerance. *)

val instance_count : placement -> int
val core_count : placement -> int
(** Total CPU cores consumed by the placement. *)

val load : Types.scenario -> placement -> v:int -> k:int -> float
(** Offered load (Mbps) on NF kind [k] at switch [v] under the placement's
    distribution: the left side of Eq. (5). *)

val loads : Types.scenario -> placement -> float array array
(** Every site's {!load} at once, in one pass over the classes' cells:
    [(loads s p).(v).(k)] equals [load s p ~v ~k] bit for bit, since each
    site adds the same terms in the same (class, hop) order. *)
