(** Engine selection: race the optimization engine's placement against
    the greedy hub-consolidating heuristic's, both approximations of the
    Eq. (1)–(8) ILP, and keep the better one.

    Both are upper bounds on the same integer optimum, so taking the
    minimum is still a valid approximation and tracks CPLEX's
    branch-and-cut answer more closely than either alone (the
    optimization engine wins on sparse WAN instances, the greedy on dense
    data-center instances with few consolidation points). *)

val solve :
  ?objective:Optimization_engine.objective ->
  ?method_:Optimization_engine.method_ ->
  ?jobs:int ->
  Types.scenario ->
  Optimization_engine.placement
(** Raises {!Optimization_engine.Infeasible} only when both engines fail.
    [method_] is the optimization engine's (its default when absent);
    [Lp_round] races the paper's LP pipeline, as the slicing layer's
    shaped controllers do.  The greedy is kept only when it validates and
    beats the other placement by more than 1e-9.  When both engines
    return a placement, its [solve_seconds] is the sum of their times.
    [jobs] (default {!Apple_parallel.Pool.default_jobs}) is forwarded to
    the greedy half ({!Heuristic_engine.solve}); the other half is
    serial.  The result is identical for every [jobs]. *)
