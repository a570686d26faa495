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

    {b Basis inverse.}  [B^-1] is stored sparsely, by columns, in one
    flat block: each column lists its nonzero entries (row and value)
    in ascending row order in a contiguous segment, and an entry that
    is not listed is [+0.0].  A bitmap of [m] rows by [m] bits marks
    which entries are listed, so a row's columns are read off its bits.
    The store takes O(nonzeros) memory plus the bitmap instead of the
    O(m²) floats of a dense inverse: about 5,000 entries and 250 KB for
    the 990-row GEANT placement LP, where a dense inverse took 8 MB.  A
    solve allocates a few flat arrays: the block, a spare block once
    the first runs full, the bitmap and the pricing scratch.  A frozen
    start and the re-solve thawed from it copy them, rather than one
    small array per row and column.

    {b One pivot.}  ftran records the rows of [d = B^-1 A_j] it writes,
    in ascending order: [d]'s pattern.  The ratio test, the move of the
    basic values, the list of rows to update and a bound flip walk only
    that pattern: about 12 rows of the slice manager's 100 to 160.  A
    pivot on row [r] rewrites only the columns where row [r] holds an
    entry, about 5: each is merged, in ascending row order, with the
    updated rows (those with [d_i <> 0] besides [r]) and written whole
    at the block's free end; an entry that appears or cancels to
    exactly zero is listed or dropped and its bit set or cleared.  When
    the free end runs out, the live columns are packed into the spare,
    which swaps with the block.  Apart from the [m/32] words of the
    pivot row's bits, only the choice of the entering column, a scan
    of the kept scores, reads every row or column.

    {b Walking only [d]'s pattern is exact.}  Every row off the pattern
    holds [d_i = +0.0]: ftran clears the previous pattern before
    scattering.  The ratio test skips such a row in a full scan too
    (its rate is zero), and the pattern keeps the ascending order in
    which a full scan breaks ties.  Moving a basic value by
    [-(sigma t d_i) = ±0] leaves it unchanged except possibly the sign
    of a zero value, which no comparison reads, and the periodic
    refresh recomputes every basic value from scratch.  A row with
    [d_i = 0] updates no entry of [B^-1], on or off the pattern.

    {b Kept prices.}  Each phase prices every column once, then keeps
    [y] and the reduced costs between pivots.  A pivot on row [r]
    rewrites [B^-1] only in the columns where row [r] holds an entry,
    and changes only row [r]'s basic cost, so it moves only those
    [y(k)]; each is summed again over its column's costed entries,
    already in ascending row order, the order the full product uses.
    Only columns with a nonzero in one of those rows get a new reduced
    cost, found through a row-wise index of [A] built once per problem.
    A bound flip moves no price.  So every kept value equals a full
    pricing bit for bit, and the entering column is the same: the
    largest score, the lowest index among equals (under Bland's rule,
    the first improving index).  Full pricing sums each [y(k)] the same
    way, column by column; the basic values' refresh sums each row's
    entries in ascending column order by walking the columns in
    order.

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
    the nonbasic positions, [B^-1]'s live columns packed into one block
    with its bitmap, the basic values, the artificials' signs and the
    number of phase-1 iterations.  {!resolve} takes only new objective
    costs, so a start is never paired with another matrix.

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
