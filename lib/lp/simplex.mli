(** Bounded-variable two-phase revised simplex on computational standard
    form.

    The problem solved is

    {v minimize    c . x
       subject to  A x = b
                   l <= x <= u v}

    where [A] already contains one slack column per original row (the
    {!Model} layer performs that lowering).  Dantzig pricing with an
    automatic switch to Bland's rule guards against cycling.  This is the
    engine behind the paper's Optimization Engine (Sec. IV-D), replacing
    CPLEX.

    {b Basis inverse.}  [B^-1] is stored sparsely: each row keeps its
    nonzero entries with their columns, each column indexes the same
    entries by row, and an entry that is not listed is [+0.0].  The
    store takes O(nonzeros) memory instead of O(m²): about 7,000 entries
    for a 1137-row placement LP, where a dense inverse took 10 MB.  A
    pivot on row [r] scales row [r] and subtracts multiples of it from
    each row [i] with [d_i <> 0], column by column over row [r]'s
    nonzeros, so it costs O(m + nnz(row r) · nnz(d)) plus the lengths of
    those columns instead of O(m²); entries that appear or cancel to
    exactly zero are listed or dropped.  Dual prices [y = c_B B^-1]
    accumulate over each costed row's entries, ftran scatters each
    entry of [A_j] over one column's entries, and the periodic refresh
    of the basic values sums each row's entries in ascending column
    order.

    {b Kept prices.}  Each phase prices every column once, then keeps
    [y] and the reduced costs between pivots.  A pivot on row [r]
    rewrites [B^-1] only in the columns where row [r] holds an entry,
    and changes only row [r]'s basic cost, so it moves only those
    [y(k)]; each is summed again over its column's costed entries in
    ascending row order, the order the full product uses.  Only columns
    with a nonzero in one of those rows get a new reduced cost, found
    through a row-wise index of [A] built once per problem.  A bound
    flip moves no price.  So every kept value equals a full pricing bit
    for bit, and the entering column is the same: the largest score,
    the lowest index among equals (under Bland's rule, the first
    improving index).

    {b Bit-identical to the dense product.}  Every one of these sums adds
    the same nonzero terms in the same order as the dense loops, starting
    from [+0.0].  A skipped term is [±0], and adding [±0] to an
    accumulator that started at [+0.0] never changes it, so every
    multiplier, ftran column, dual and basic value — hence every pivot
    decision — equals the dense computation bit for bit.  Only the sign
    of a zero entry can differ (the store reads [+0.0] where the dense
    product may hold [-0.0]), and nothing depends on it: every reader
    adds into such an accumulator, multiplies and subtracts, or
    compares.

    {b Feasible start.}  A solve whose phase 1 proves the rows feasible
    (or finds the all-bound start feasible and skips it) also returns a
    {!start}: the state after phase 1 and the expulsion of zero-valued
    artificials.  It holds the standard-form [A], right-hand sides and
    bounds it was computed on with their row-wise index, the basis and
    the nonbasic positions, [B^-1]'s live entries with their row and
    column indexes, the basic values, the artificials' signs and the
    number of phase-1 iterations.  {!resolve} takes only new objective costs, so a start
    is never paired with another matrix.

    A re-solve from a start is bit-identical to a fresh solve with the
    same costs, because phase 1 reads only [A], the right-hand sides and
    the bounds: its costs are the artificials', never the objective's.
    So the fresh solve reaches this very state before phase 2 reads the
    objective.  One detail keeps phase 2 itself identical: the basic
    values are recomputed from scratch every 64 iterations of a counter
    that runs on from phase 1.  A re-solve continues that counter, and
    [max_iters], from the start's phase-1 count; its [iterations]
    reports only the iterations it performed.

    A start is immutable.  Each re-solve copies what it mutates (basis,
    positions, basic values, [B^-1], and the bounds, where phase 2 pins
    the artificials to 0), so one start serves any number of re-solves,
    from any domain. *)

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit  (** gave up after [max_iters] pivots *)

type problem = {
  num_vars : int;  (** total columns, slacks included *)
  num_rows : int;
  (* Sparse columns: [col_index.(j)] and [col_value.(j)] hold the nonzero
     pattern of column [j]. *)
  col_index : int array array;
  col_value : float array array;
  rhs : float array;
  obj : float array;
  lower : float array;  (** may be [neg_infinity] *)
  upper : float array;  (** may be [infinity], but not together with a
                            [neg_infinity] lower bound *)
}

type start
(** The feasible state phase 1 proved for one problem's rows. *)

type result = {
  status : status;
  objective : float;
  primal : float array;  (** length [num_vars]; meaningful when Optimal *)
  duals : float array;
      (** length [num_rows]; the simplex multipliers [y = c_B B^-1] at the
          final basis — the shadow price of each row's right-hand side in
          the (minimization) standard form.  Meaningful when Optimal. *)
  iterations : int;
      (** simplex iterations this solve performed; a {!resolve} does not
          count its start's phase 1 *)
  start : start option;
      (** [Some] once phase 1 proved the rows feasible, whatever phase 2
          then found; [None] when they are infeasible or phase 1 ran out
          of iterations *)
}

val solve : ?max_iters:int -> problem -> result
(** Solve the standard-form problem.  [max_iters] defaults to a generous
    multiple of the problem size.

    @raise Invalid_argument if a column is free (both bounds infinite):
    the nonbasic start needs a finite bound on every column.  Split a
    free variable into [x+ - x-] first, as {!Model} does. *)

val resolve : ?max_iters:int -> start -> float array -> result
(** [resolve start obj] solves the start's problem with objective [obj]
    (length [num_vars]) from the start, skipping phase 1.  The result
    equals [solve] of that problem bit for bit, except that [iterations]
    is smaller by {!phase1_iterations}[ start]; its [start] is [start].
    [max_iters] bounds the counter that runs on from phase 1, as in
    {!solve}.

    @raise Invalid_argument if [obj] has the wrong length. *)

val phase1_iterations : start -> int
(** Iterations the start's phase 1 performed. *)
