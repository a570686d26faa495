(** Linear / integer-linear program builder and solver front-end.

    This is the CPLEX-replacement surface the Optimization Engine talks to:
    declare variables with bounds and optional integrality, add linear
    constraints, then solve the LP relaxation, the exact ILP (branch and
    bound), or the paper's LP-relax-and-round heuristic. *)

type t
(** A model under construction.  Mutable; not thread-safe. *)

type var
(** Handle to a declared variable. *)

type sense = Le | Ge | Eq

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Limit  (** iteration or node budget exhausted; best effort returned *)

type start
(** The feasible start of one model's LP relaxation: the state after
    phase 1, which reads only the rows and bounds (see
    {!Apple_lp.Simplex.start}).  It stays valid while the model keeps its
    variables and rows; only objective coefficients may change. *)

type solution = {
  status : status;
  objective : float;
  values : float array;  (** indexed by {!var_index} *)
  duals : float array;
      (** shadow prices, indexed by constraint insertion order: the
          marginal change of the optimal objective per unit increase of a
          constraint's right-hand side.  Meaningful for [Optimal] LP
          solutions; zeros otherwise (including after branch and bound,
          where no single dual vector exists). *)
  start : start option;
      (** From {!solve_lp} and {!solve_round_up}: the relaxation's
          feasible start, [Some] whenever phase 1 proved the rows
          feasible.  Always [None] from {!solve_ilp}. *)
}

val create : ?maximize:bool -> unit -> t
(** Fresh model.  Default objective sense is minimization. *)

val add_var :
  t ->
  ?lb:float ->
  ?ub:float ->
  ?integer:bool ->
  ?obj:float ->
  unit ->
  var
(** Declare a variable.  Defaults: [lb = 0.], [ub = infinity],
    [integer = false], [obj = 0.].  [~lb:neg_infinity] with an infinite
    [ub] declares a free variable; the solver sees it as the difference
    of two non-negative columns. *)

val add_constraint : t -> (float * var) list -> sense -> float -> unit
(** [add_constraint t terms sense rhs] adds [sum terms (sense) rhs].
    Duplicate variables in [terms] are summed. *)

val set_obj : t -> var -> float -> unit
(** Overwrite a variable's objective coefficient, in O(1).  A
    {!solution}'s [start] survives it. *)

val var_index : var -> int
(** Stable dense index of a variable (order of declaration). *)

val num_vars : t -> int
val num_constraints : t -> int

val value : solution -> var -> float
(** Variable value in a solution. *)

val solve_lp : ?max_iters:int -> ?start:start -> t -> solution
(** Solve the LP relaxation (integrality dropped).

    With [~start] (the [start] of an earlier solution of this model) the
    solve re-lowers only the objective, O(variables), and runs phase 2
    from the start: the answer equals a fresh solve bit for bit, without
    repeating phase 1 or the lowering of rows and bounds.  This is how
    the Optimization Engine re-solves after repricing with {!set_obj}.

    @raise Invalid_argument if [start] was taken from another model, or
    before this model gained a variable or a constraint.  The check is
    O(1). *)

val solve_ilp : ?max_nodes:int -> ?max_iters:int -> t -> solution
(** Exact branch and bound over the integer variables.  [Limit] is
    returned with the incumbent when the node budget runs out; if no
    incumbent was found the relaxation answer is reported with [Limit]. *)

val solve_round_up : ?max_iters:int -> t -> solution
(** The paper's heuristic: solve the LP relaxation and round every integer
    variable up to the next integer.  Always integral and, for covering
    structures like Eq. (5)–(6) with upward-closed feasibility, feasible;
    callers with richer structure should repair with
    {!feasible_with}. *)

val feasible_with : t -> float array -> bool
(** [feasible_with t x] checks all constraints and bounds of [t] at the
    point [x] (1e-6 tolerance).  Integrality is also checked for integer
    variables. *)

val objective_at : t -> float array -> float
(** Objective value of an arbitrary point. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line size summary (vars / int vars / constraints / nonzeros). *)
