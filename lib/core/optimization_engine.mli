(** The Optimization Engine (paper Sec. IV): traffic-aware VNF placement.

    The ILP of Eq. (1)–(8) is over flow classes — decision variables
    [d.(h).(i).(j)] (portion of class [h] processed for chain stage [j] at
    path hop [i]) and [q.(v).(k)] (instances of NF kind [k] at switch [v]).
    By default every class takes its cheapest chain-ordered sequence of
    hops under site prices, a dynamic program per class; the paper's
    LP relaxation + rounding and exact branch and bound build the model
    itself.  Every method but branch and bound ends with a repair pass
    that restores per-host resource feasibility and a shrink pass that
    removes provably unneeded instances. *)

type objective =
  | Min_instances  (** Eq. (1): minimize the instance count *)
  | Min_cores  (** weight each instance by its core requirement (Fig. 11) *)

type method_ =
  | Shortest_paths
      (** each class on its cheapest chain-ordered sequence of hops under
          site prices (a shortest path in its hop x stage layered graph),
          then repair and consolidation; re-priced from the result's
          loads while the objective strictly falls.  Falls back to
          [Lp_round] when the first repair finds no feasible counts or
          the result fails {!check_distribution}. *)
  | Lp_round  (** LP relaxation + round + repair (the paper's choice) *)
  | Ilp of int  (** exact branch and bound with the given node budget *)

type placement = {
  counts : int array array;
      (** [counts.(v).(k)] = instances of {!Apple_vnf.Nf.kind_of_index}[ k]
          at switch [v] *)
  distribution : float array array array;
      (** [distribution.(h).(i).(j)] = d^i_{h,j}; dimensions follow each
          class's path and chain lengths *)
  objective_value : float;  (** of the integral solution *)
  lp_objective : float;
      (** relaxation bound: [Lp_round]'s relaxation optimum, which
          [Shortest_paths] states in closed form (every feasible point of
          the relaxation costs the same) *)
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
  Types.scenario ->
  placement
(** Defaults: [Min_instances], [Shortest_paths], both post-passes on.
    [reweight] enables the passes that price under-utilized sites: the
    re-pricing passes after [Shortest_paths]' first (hub-priced) one,
    and [Lp_round]'s second LP.  [consolidate] enables the post-rounding
    instance-merging pass.  [Ilp] reads neither.  Both exist for the
    bench's ablation study — disable them only to measure their
    contribution.

    [Shortest_paths] counts its passes in [apple.opt.pricing_passes] and
    its fallbacks to [Lp_round] in [apple.opt.lp_fallbacks].  Its
    [lp_objective] is the sum over classes of rate x the sum over the
    distinct kinds k of the chain of weight(k) / capacity(k): the
    relaxation's optimum, without solving it.

    For [Lp_round] the second pass changes only the instance variables'
    objective coefficients, so it reprices them on the relaxation's own
    model ({!Apple_lp.Model.set_obj}) and re-solves from the
    relaxation's feasible start ({!Apple_lp.Model.solve_lp}[ ~start]).
    A solve therefore builds one model and runs one phase 1, and its
    placement is bit-identical to re-solving from scratch. *)

val cheapest_sequence :
  objective:objective ->
  prices:float array array ->
  Types.flow_class ->
  float array array
(** One class's [Shortest_paths] placement under site prices
    [prices.(v).(k)]: a 0/1 distribution ([.(i).(j)], hops x stages)
    that puts each stage whole at one hop, in chain order, at least cost.
    Stage [j] of kind [k] at hop [i] costs
    [weight(k) * prices.(path.(i)).(k) * rate / capacity(k)] when [j] is
    the last stage of kind [k] in the chain, and nothing otherwise.  Ties
    go to the earliest hop.  O(hops x stages). *)

val solve_class_lp :
  objective:objective ->
  prices:float array array ->
  Types.flow_class ->
  float array array
(** The same class's placement as an LP over its order and completion
    rows (Eq. 3–4), with the capacity rows priced into the objective:
    the simplex reference for {!cheapest_sequence}.  Every stage's cell
    costs what {!cheapest_sequence} charges a site-loading one, plus a
    1e-7-per-hop tie bias.  For a chain that repeats no kind, as
    {!Policy.validate} requires, its optimum costs what
    {!cheapest_sequence}'s placement costs. *)

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
