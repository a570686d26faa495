(** Engine selection: run both approximations of the Eq. (1)–(8) ILP —
    the paper's LP-relaxation pipeline and the greedy hub-consolidating
    heuristic — and keep the better placement.

    Both are upper bounds on the same integer optimum, so taking the
    minimum is still a valid approximation and tracks CPLEX's
    branch-and-cut answer more closely than either alone (the LP wins on
    sparse WAN instances, the greedy on dense data-center instances with
    few consolidation points). *)

type choice = Lp_pipeline | Greedy

val solve :
  ?objective:Optimization_engine.objective ->
  ?jobs:int ->
  Types.scenario ->
  Optimization_engine.placement * choice
(** Raises {!Optimization_engine.Infeasible} only when both engines fail.
    [jobs] (default {!Apple_parallel.Pool.default_jobs}) is forwarded to
    the greedy half ({!Heuristic_engine.solve}); the LP half is serial.
    The result is identical for every [jobs]. *)

val solve_best :
  ?objective:Optimization_engine.objective ->
  ?jobs:int ->
  Types.scenario ->
  Optimization_engine.placement
(** {!solve} without the provenance tag. *)
