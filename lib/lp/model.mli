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
}

val create : ?maximize:bool -> unit -> t
(** Fresh model.  Default objective sense is minimization. *)

val add_var :
  t ->
  ?lb:float ->
  ?ub:float ->
  ?integer:bool ->
  ?obj:float ->
  ?name:string ->
  unit ->
  var
(** Declare a variable.  Defaults: [lb = 0.], [ub = infinity],
    [integer = false], [obj = 0.].  [~lb:neg_infinity] with an infinite
    [ub] declares a free variable; the solver sees it as the difference
    of two non-negative columns. *)

val add_constraint : t -> ?name:string -> (float * var) list -> sense -> float -> unit
(** [add_constraint t terms sense rhs] adds [sum terms (sense) rhs].
    Duplicate variables in [terms] are summed. *)

val set_obj : t -> var -> float -> unit
(** Overwrite a variable's objective coefficient. *)

val var_index : var -> int
(** Stable dense index of a variable (order of declaration). *)

val var_name : t -> var -> string
val num_vars : t -> int
val num_constraints : t -> int

val value : solution -> var -> float
(** Variable value in a solution. *)

val solve_lp : ?max_iters:int -> t -> solution
(** Solve the LP relaxation (integrality dropped). *)

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
