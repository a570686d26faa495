let src = Logs.Src.create "apple.lp.simplex" ~doc:"APPLE revised simplex solver"

module Log = (val Logs.src_log src : Logs.LOG)
module T = Apple_telemetry.Telemetry

(* Counters mirror the [apple.lp.*] debug trace points so solver
   behaviour is visible without enabling debug logging.  All updates go
   through Atomics, so a solve on any domain counts safely. *)
let m_solves = T.Counter.create "apple.lp.solves"
let m_pivots = T.Counter.create "apple.lp.pivots"
let m_phase1_solves = T.Counter.create "apple.lp.phase1_solves"
let m_phase1_skipped = T.Counter.create "apple.lp.phase1_skipped"
let m_phase1_pivots = T.Counter.create "apple.lp.phase1_pivots"
let m_phase1_reused = T.Counter.create "apple.lp.phase1_reused"
let m_reduced_costs = T.Counter.create "apple.lp.reduced_costs"
let m_bland = T.Counter.create "apple.lp.bland_engagements"
let m_infeasible = T.Counter.create "apple.lp.infeasible"
let m_iter_limit = T.Counter.create "apple.lp.iteration_limit"
let m_pivots_per_solve = T.Histogram.create ~lo:1.0 "apple.lp.pivots_per_solve"

type status = Optimal | Infeasible | Unbounded | Iteration_limit

type problem = {
  num_vars : int;
  num_rows : int;
  col_index : int array array;
  col_value : float array array;
  rhs : float array;
  obj : float array;
  lower : float array;
  upper : float array;
}

let eps_reduced = 1e-9
let eps_pivot = 1e-8
let eps_bound = 1e-8

(* Position of a nonbasic variable. *)
type nb_pos = At_lower | At_upper

(* The basis inverse, stored sparsely.  Row i keeps its nonzero
   entries, unordered, as parallel arrays: column [r_col], value [r_val]
   and the entry's index in its column's list [r_cpos].  Column k lists
   the same entries by row [c_row] and index in that row [c_rpos].  An
   entry that is not listed is +0.0, and one that cancels to zero is
   dropped.  Both indexes make insertion and removal O(1); the arrays
   grow by doubling. *)
type inverse = {
  r_col : int array array;
  r_val : float array array;
  r_cpos : int array array;
  r_len : int array;
  c_row : int array array;
  c_rpos : int array array;
  c_len : int array;
  (* Pivot scratch: the rows it updates, and per row the stamp of the
     last column found holding an entry of that row. *)
  updated : int array;
  seen : int array;
  mutable stamp : int;
}

(* The identity pattern: entry (i, i) is the only one of row and column
   i, its value set by the caller. *)
let inverse_create m =
  let lists x = Array.init m (fun i -> Array.make 4 (x i)) in
  {
    r_col = lists Fun.id;
    r_val = Array.init m (fun _ -> Array.make 4 0.0);
    r_cpos = lists (fun _ -> 0);
    r_len = Array.make m 1;
    c_row = lists Fun.id;
    c_rpos = lists (fun _ -> 0);
    c_len = Array.make m 1;
    updated = Array.make m 0;
    seen = Array.make m 0;
    stamp = 0;
  }

let doubled a n fill =
  let b = Array.make (2 * n) fill in
  Array.blit a 0 b 0 n;
  b

let inverse_add inv i k v =
  let p = inv.r_len.(i) in
  if p = Array.length inv.r_col.(i) then begin
    inv.r_col.(i) <- doubled inv.r_col.(i) p 0;
    inv.r_val.(i) <- doubled inv.r_val.(i) p 0.0;
    inv.r_cpos.(i) <- doubled inv.r_cpos.(i) p 0
  end;
  let q = inv.c_len.(k) in
  if q = Array.length inv.c_row.(k) then begin
    inv.c_row.(k) <- doubled inv.c_row.(k) q 0;
    inv.c_rpos.(k) <- doubled inv.c_rpos.(k) q 0
  end;
  inv.r_col.(i).(p) <- k;
  inv.r_val.(i).(p) <- v;
  inv.r_cpos.(i).(p) <- q;
  inv.r_len.(i) <- p + 1;
  inv.c_row.(k).(q) <- i;
  inv.c_rpos.(k).(q) <- p;
  inv.c_len.(k) <- q + 1

(* Drop entry [p] of row [i].  Each list moves its last entry into the
   freed slot and repoints that entry's record in the other list. *)
let inverse_remove inv i p =
  let k = inv.r_col.(i).(p) and q = inv.r_cpos.(i).(p) in
  let last = inv.r_len.(i) - 1 in
  if p < last then begin
    let k' = inv.r_col.(i).(last) and q' = inv.r_cpos.(i).(last) in
    inv.r_col.(i).(p) <- k';
    inv.r_val.(i).(p) <- inv.r_val.(i).(last);
    inv.r_cpos.(i).(p) <- q';
    inv.c_rpos.(k').(q') <- p
  end;
  inv.r_len.(i) <- last;
  let last = inv.c_len.(k) - 1 in
  if q < last then begin
    let i' = inv.c_row.(k).(last) and p' = inv.c_rpos.(k).(last) in
    inv.c_row.(k).(q) <- i';
    inv.c_rpos.(k).(q) <- p';
    inv.r_cpos.(i').(p') <- q
  end;
  inv.c_len.(k) <- last

(* The columns of each row of [A], ascending, packed: row [k]'s are
   [a_col.(a_at.(k)) .. a_col.(a_at.(k+1) - 1)]. *)
type row_index = { a_at : int array; a_col : int array }

type state = {
  p : problem;
  (* total columns including artificials appended after p.num_vars *)
  total : int;
  m : int;
  lower : float array;
  upper : float array;
  cost : float array;  (* current-phase cost vector *)
  basis : int array;  (* length m: column index basic in each row *)
  in_basis : bool array;
  nb : nb_pos array;  (* meaningful for nonbasic columns *)
  inv : inverse;  (* basis inverse *)
  xb : float array;  (* values of basic variables, length m *)
  art_first : int;  (* first artificial column index *)
  art_sign : float array;  (* length m: +-1 sign of artificial of row i *)
  rows_a : row_index;  (* structural columns only *)
  (* Pricing, kept between pivots (see [reprice]), and its scratch. *)
  y : float array;  (* c_B Binv *)
  score : float array;  (* per column, see [rescore] *)
  d : float array;  (* ftran of the entering column *)
  touched : int array;  (* the pivot row's columns before the pivot *)
  mark : int array;  (* per column: stamp of the last reprice that saw it *)
  mutable marked : int;
}

(* The state phase 1 and [expel_artificials] leave behind, frozen.
   B^-1 keeps only its live entries, packed: row [i]'s list is
   [row_at.(i), row_at.(i+1)) of the [s_r_*] arrays and column [k]'s is
   [col_at.(k), col_at.(k+1)) of the [s_c_*] ones, each in the order the
   solve left it, so a restored inverse pivots exactly like the
   original. *)
type start = {
  problem : problem;  (* [obj] is never read *)
  s_basis : int array;
  s_nb : nb_pos array;
  s_xb : float array;
  s_art_sign : float array;
  row_at : int array;
  s_r_col : int array;
  s_r_val : float array;
  s_r_cpos : int array;
  col_at : int array;
  s_c_row : int array;
  s_c_rpos : int array;
  s_rows_a : row_index;  (* the problem's; never written *)
  phase1 : int;  (* iterations phase 1 performed *)
}

type result = {
  status : status;
  objective : float;
  primal : float array;
  duals : float array;
  iterations : int;
  start : start option;
}

let phase1_iterations s = s.phase1

let col_dot st j y =
  (* y . A_j for a structural/slack column, or the artificial pattern. *)
  if j < st.art_first then begin
    let idx = st.p.col_index.(j) and v = st.p.col_value.(j) in
    let acc = ref 0.0 in
    for k = 0 to Array.length idx - 1 do
      acc := !acc +. (y.(idx.(k)) *. v.(k))
    done;
    !acc
  end
  else
    let row = j - st.art_first in
    y.(row) *. st.art_sign.(row)

(* d := Binv * A_j  (ftran), scattering each entry of A_j over the
   nonzeros of the matching column of Binv.  Every d(i) still sums the
   same nonzero terms in the same order from +0.0, so it equals the
   dense product bit for bit. *)
let ftran st j d =
  Array.fill d 0 st.m 0.0;
  let inv = st.inv in
  if j < st.art_first then begin
    let idx = st.p.col_index.(j) and v = st.p.col_value.(j) in
    for k = 0 to Array.length idx - 1 do
      let row = idx.(k) and value = v.(k) in
      let rows = inv.c_row.(row) and pos = inv.c_rpos.(row) in
      for q = 0 to inv.c_len.(row) - 1 do
        let i = rows.(q) in
        d.(i) <- d.(i) +. (inv.r_val.(i).(pos.(q)) *. value)
      done
    done
  end
  else begin
    let row = j - st.art_first and s = st.art_sign.(j - st.art_first) in
    let rows = inv.c_row.(row) and pos = inv.c_rpos.(row) in
    for q = 0 to inv.c_len.(row) - 1 do
      let i = rows.(q) in
      d.(i) <- inv.r_val.(i).(pos.(q)) *. s
    done
  end

let nonbasic_value st j = match st.nb.(j) with
  | At_lower -> st.lower.(j)
  | At_upper -> st.upper.(j)

(* Recompute basic variable values from scratch: xb = Binv (b - N x_N). *)
let refresh_xb st =
  let r = Array.copy st.p.rhs in
  for j = 0 to st.total - 1 do
    if not st.in_basis.(j) then begin
      let x = nonbasic_value st j in
      if x <> 0.0 then
        if j < st.art_first then begin
          let idx = st.p.col_index.(j) and v = st.p.col_value.(j) in
          for k = 0 to Array.length idx - 1 do
            r.(idx.(k)) <- r.(idx.(k)) -. (v.(k) *. x)
          done
        end
        else begin
          let row = j - st.art_first in
          r.(row) <- r.(row) -. (st.art_sign.(row) *. x)
        end
    end
  done;
  let inv = st.inv in
  for i = 0 to st.m - 1 do
    (* Sum in ascending k, as the dense product does: insertion-sort the
       row's entries by column in place (rows are tiny and mostly
       sorted), then repoint their column records. *)
    let cols = inv.r_col.(i) and vals = inv.r_val.(i) and cpos = inv.r_cpos.(i) in
    let n = inv.r_len.(i) in
    for p = 1 to n - 1 do
      let k = cols.(p) and v = vals.(p) and c = cpos.(p) in
      let q = ref (p - 1) in
      while !q >= 0 && cols.(!q) > k do
        cols.(!q + 1) <- cols.(!q);
        vals.(!q + 1) <- vals.(!q);
        cpos.(!q + 1) <- cpos.(!q);
        decr q
      done;
      cols.(!q + 1) <- k;
      vals.(!q + 1) <- v;
      cpos.(!q + 1) <- c
    done;
    let acc = ref 0.0 in
    for p = 0 to n - 1 do
      inv.c_rpos.(cols.(p)).(cpos.(p)) <- p;
      acc := !acc +. (vals.(p) *. r.(cols.(p)))
    done;
    st.xb.(i) <- !acc
  done

(* y = c_B Binv (btran with basic costs): costed rows in ascending
   order, each over its nonzeros only. *)
let dual_prices st y =
  Array.fill y 0 st.m 0.0;
  let inv = st.inv in
  for i = 0 to st.m - 1 do
    let cb = st.cost.(st.basis.(i)) in
    if cb <> 0.0 then begin
      let cols = inv.r_col.(i) and vals = inv.r_val.(i) in
      for p = 0 to inv.r_len.(i) - 1 do
        let k = cols.(p) in
        y.(k) <- y.(k) +. (cb *. vals.(p))
      done
    end
  done

(* y(k) alone, as [dual_prices] sums it: column [k]'s costed entries in
   ascending row order.  Insertion-sorts the column's entries by row in
   place first (columns are short), repointing the row records of the
   entries it moves. *)
let column_price st k =
  let inv = st.inv in
  let rows = inv.c_row.(k) and rpos = inv.c_rpos.(k) in
  for q = 1 to inv.c_len.(k) - 1 do
    let i = rows.(q) in
    if rows.(q - 1) > i then begin
      let p = rpos.(q) in
      let q' = ref (q - 1) in
      while !q' >= 0 && rows.(!q') > i do
        let i' = rows.(!q') and p' = rpos.(!q') in
        rows.(!q' + 1) <- i';
        rpos.(!q' + 1) <- p';
        inv.r_cpos.(i').(p') <- !q' + 1;
        decr q'
      done;
      rows.(!q' + 1) <- i;
      rpos.(!q' + 1) <- p;
      inv.r_cpos.(i).(p) <- !q' + 1
    end
  done;
  let acc = ref 0.0 in
  for q = 0 to inv.c_len.(k) - 1 do
    let i = rows.(q) in
    let cb = st.cost.(st.basis.(i)) in
    if cb <> 0.0 then acc := !acc +. (cb *. inv.r_val.(i).(rpos.(q)))
  done;
  !acc

(* Columns that can enter: nonbasic with room to move.  Bounds change
   only between phases, so a column ineligible at a phase's start stays
   so until its end. *)
let eligible st j = (not st.in_basis.(j)) && st.lower.(j) < st.upper.(j)

(* Set column [j]'s score: its reduced cost [cost j - y . A_j], negated
   at the lower bound, so a positive score means entering improves; 0
   when it cannot enter.  Returns whether a reduced cost was computed. *)
let rescore st j =
  if eligible st j then begin
    let r = st.cost.(j) -. col_dot st j st.y in
    st.score.(j) <- (match st.nb.(j) with At_lower -> -.r | At_upper -> r);
    true
  end
  else begin
    st.score.(j) <- 0.0;
    false
  end

(* Full pricing, once at the start of each phase.  Returns the number of
   reduced costs computed. *)
let price_all st =
  dual_prices st st.y;
  let n = ref 0 in
  for j = 0 to st.total - 1 do
    if rescore st j then incr n
  done;
  !n

(* After a pivot on row r: a pivot rewrites Binv only in the columns
   where row r held an entry ([touched.(0..nt-1)], taken before the
   pivot), and the one basic cost it changes is row r's, so only those
   y(k) move, and only the scores of columns meeting those rows.  Each
   is recomputed by the very sum full pricing uses, so the kept scores
   equal a full pricing's bit for bit.  The columns that entered and
   left are among them, each gaining or losing its score: row r of Binv
   times either column is 1 (before the pivot for the leaving one,
   after it for the entering one), and row r's entries after the pivot
   are a subset of those before. *)
let reprice st nt =
  for t = 0 to nt - 1 do
    let k = st.touched.(t) in
    st.y.(k) <- column_price st k
  done;
  let stamp = st.marked + 1 in
  st.marked <- stamp;
  let n = ref 0 in
  for t = 0 to nt - 1 do
    let k = st.touched.(t) in
    for p = st.rows_a.a_at.(k) to st.rows_a.a_at.(k + 1) - 1 do
      let j = st.rows_a.a_col.(p) in
      if st.mark.(j) <> stamp then begin
        st.mark.(j) <- stamp;
        if rescore st j then incr n
      end
    done;
    (* Row k's artificial meets no other row. *)
    if rescore st (st.art_first + k) then incr n
  done;
  !n

(* Choose the entering column from the kept scores: the largest, the
   lowest index among equals.  [bland] forces smallest-index selection
   to break cycling. *)
let entering st ~bland =
  let score = st.score in
  if bland then begin
    let rec first j =
      if j >= st.total then None
      else if score.(j) > eps_reduced then Some j
      else first (j + 1)
    in
    first 0
  end
  else begin
    let best = ref (-1) and best_score = ref eps_reduced in
    for j = 0 to st.total - 1 do
      let sc = score.(j) in
      if sc > !best_score then begin
        best := j;
        best_score := sc
      end
    done;
    if !best >= 0 then Some !best else None
  end

type ratio_outcome =
  | Unbounded_dir
  | Bound_flip of float  (* step equals entering variable's own range *)
  | Pivot of int * float * nb_pos
      (* leaving row, step, bound the leaving variable settles at *)

(* Ratio test for entering column [j] moving with direction sign [sigma]
   (+1 when increasing from lower bound, -1 when decreasing from upper).
   Basic values move as xb - sigma * t * d. *)
let ratio_test st j sigma d =
  let t_best = ref infinity and row_best = ref (-1) in
  let pivot_best = ref 0.0 in
  let settle = ref At_lower in
  for i = 0 to st.m - 1 do
    let rate = sigma *. d.(i) in
    (* xb_i(t) = xb_i - rate * t *)
    if rate > eps_pivot then begin
      let lb = st.lower.(st.basis.(i)) in
      if lb > neg_infinity then begin
        let t = (st.xb.(i) -. lb) /. rate in
        let t = if t < 0.0 then 0.0 else t in
        if
          t < !t_best -. 1e-12
          || (t < !t_best +. 1e-12 && abs_float rate > abs_float !pivot_best)
        then begin
          t_best := t;
          row_best := i;
          pivot_best := rate;
          settle := At_lower
        end
      end
    end
    else if rate < -.eps_pivot then begin
      let ub = st.upper.(st.basis.(i)) in
      if ub < infinity then begin
        let t = (st.xb.(i) -. ub) /. rate in
        let t = if t < 0.0 then 0.0 else t in
        if
          t < !t_best -. 1e-12
          || (t < !t_best +. 1e-12 && abs_float rate > abs_float !pivot_best)
        then begin
          t_best := t;
          row_best := i;
          pivot_best := rate;
          settle := At_upper
        end
      end
    end
  done;
  let own_range = st.upper.(j) -. st.lower.(j) in
  if own_range < !t_best then Bound_flip own_range
  else if !row_best < 0 then Unbounded_dir
  else Pivot (!row_best, !t_best, !settle)

(* Apply a basis change: entering column j (direction d, sign sigma, step t)
   replaces the basic variable of row r. *)
let pivot st j sigma d r t ~leaving_pos =
  let entering_value =
    (match st.nb.(j) with At_lower -> st.lower.(j) | At_upper -> st.upper.(j))
    +. (sigma *. t)
  in
  (* Move the other basic variables. *)
  for i = 0 to st.m - 1 do
    if i <> r then st.xb.(i) <- st.xb.(i) -. (sigma *. t *. d.(i))
  done;
  let leaving = st.basis.(r) in
  st.in_basis.(leaving) <- false;
  st.nb.(leaving) <- leaving_pos;
  st.basis.(r) <- j;
  st.in_basis.(j) <- true;
  st.xb.(r) <- entering_value;
  (* Product-form update of the inverse: row r scaled by 1/d_r, other rows
     with d_i <> 0 get multiples of it subtracted — both only over row r's
     nonzeros, since a zero entry of row r leaves its column unchanged.
     Entries that appear or cancel to exactly 0.0 (common with 0/+-1
     coefficients) are listed or dropped. *)
  let inv = st.inv in
  let dr = d.(r) in
  let cols_r = inv.r_col.(r) and vals_r = inv.r_val.(r) in
  (* Descending, so a swap-remove only moves an already-scaled entry. *)
  for p = inv.r_len.(r) - 1 downto 0 do
    let v = vals_r.(p) /. dr in
    if v = 0.0 then inverse_remove inv r p else vals_r.(p) <- v
  done;
  let updated = inv.updated and n = ref 0 in
  for i = 0 to st.m - 1 do
    if i <> r && d.(i) <> 0.0 then begin
      updated.(!n) <- i;
      incr n
    end
  done;
  (* Column by column over row r: first the entries the column already
     has in updated rows, then one for each updated row it lacks. *)
  let seen = inv.seen in
  for p = 0 to inv.r_len.(r) - 1 do
    let k = cols_r.(p) and x = vals_r.(p) in
    inv.stamp <- inv.stamp + 1;
    let rows = inv.c_row.(k) and pos = inv.c_rpos.(k) in
    (* Descending, so a swap-remove only moves a visited entry. *)
    for q = inv.c_len.(k) - 1 downto 0 do
      let i = rows.(q) in
      if i <> r && d.(i) <> 0.0 then begin
        seen.(i) <- inv.stamp;
        let pi = pos.(q) in
        let v = inv.r_val.(i).(pi) -. (d.(i) *. x) in
        if v = 0.0 then inverse_remove inv i pi else inv.r_val.(i).(pi) <- v
      end
    done;
    for u = 0 to !n - 1 do
      let i = updated.(u) in
      if seen.(i) <> inv.stamp then begin
        let v = 0.0 -. (d.(i) *. x) in
        if v <> 0.0 then inverse_add inv i k v
      end
    done
  done

(* [d] is the ftran of [j] the ratio test just used; no pivot has
   happened since, so it is still current.  No price moves, since basis
   and Binv stay: the flip only negates [j]'s score. *)
let bound_flip st j range d =
  (match st.nb.(j) with
  | At_lower -> st.nb.(j) <- At_upper
  | At_upper -> st.nb.(j) <- At_lower);
  st.score.(j) <- -.st.score.(j);
  let sigma = match st.nb.(j) with At_upper -> 1.0 | At_lower -> -1.0 in
  for i = 0 to st.m - 1 do
    st.xb.(i) <- st.xb.(i) -. (sigma *. range *. d.(i))
  done

type phase_outcome = Phase_optimal | Phase_unbounded | Phase_iter_limit

(* Run simplex iterations with the current cost vector until optimal:
   full pricing once, then each pivot reprices what it changed. *)
let optimize st ~max_iters iter_count =
  let priced = ref (price_all st) in
  let d = st.d in
  let stall = ref 0 in
  let bland = ref false in
  let outcome = ref None in
  while !outcome = None do
    if !iter_count >= max_iters then outcome := Some Phase_iter_limit
    else begin
      incr iter_count;
      if !iter_count mod 64 = 0 then refresh_xb st;
      match entering st ~bland:!bland with
      | None -> outcome := Some Phase_optimal
      | Some j ->
          let sigma = match st.nb.(j) with At_lower -> 1.0 | At_upper -> -1.0 in
          ftran st j d;
          (match ratio_test st j sigma d with
          | Unbounded_dir -> outcome := Some Phase_unbounded
          | Bound_flip range ->
              bound_flip st j range d;
              stall := 0
          | Pivot (r, t, leaving_pos) ->
              if t <= 1e-12 then begin
                incr stall;
                if !stall > 2 * (st.m + 16) && not !bland then begin
                  Log.debug (fun m ->
                      m "anti-cycling: Bland's rule engaged after %d stalled pivots"
                        !stall);
                  T.Counter.incr m_bland;
                  bland := true
                end
              end
              else stall := 0;
              let nt = st.inv.r_len.(r) in
              Array.blit st.inv.r_col.(r) 0 st.touched 0 nt;
              pivot st j sigma d r t ~leaving_pos;
              priced := !priced + reprice st nt)
    end
  done;
  if T.enabled () then T.Counter.add m_reduced_costs !priced;
  match !outcome with Some o -> o | None -> assert false

let objective_value st cost =
  let acc = ref 0.0 in
  for j = 0 to st.total - 1 do
    if not st.in_basis.(j) then begin
      let x = nonbasic_value st j in
      if x <> 0.0 then acc := !acc +. (cost.(j) *. x)
    end
  done;
  for i = 0 to st.m - 1 do
    acc := !acc +. (cost.(st.basis.(i)) *. st.xb.(i))
  done;
  !acc

let extract_primal st =
  let x = Array.make st.p.num_vars 0.0 in
  for j = 0 to st.p.num_vars - 1 do
    if not st.in_basis.(j) then x.(j) <- nonbasic_value st j
  done;
  for i = 0 to st.m - 1 do
    if st.basis.(i) < st.p.num_vars then x.(st.basis.(i)) <- st.xb.(i)
  done;
  x

(* Try to pivot zero-valued artificial variables out of the basis so that
   phase 2 can fix their bounds to [0,0] without losing a basis.  Phase
   2 prices from scratch, so [y] serves as scratch here. *)
let expel_artificials st =
  let inv = st.inv and y = st.y in
  Array.fill y 0 st.m 0.0;
  for i = 0 to st.m - 1 do
    if st.basis.(i) >= st.art_first then begin
      (* Row i of Binv lets us probe pivot magnitudes in O(nnz) per column
         instead of a full ftran.  A column meeting none of the row's
         entries probes exactly 0, so only those meeting them are tried;
         the lowest index that passes wins, as in a scan from 0. *)
      let cols = inv.r_col.(i) and n = inv.r_len.(i) in
      for p = 0 to n - 1 do
        y.(cols.(p)) <- inv.r_val.(i).(p)
      done;
      st.marked <- st.marked + 1;
      let found = ref st.art_first in
      for p = 0 to n - 1 do
        let k = cols.(p) in
        for q = st.rows_a.a_at.(k) to st.rows_a.a_at.(k + 1) - 1 do
          let j = st.rows_a.a_col.(q) in
          if j < !found && st.mark.(j) <> st.marked then begin
            st.mark.(j) <- st.marked;
            if eligible st j && abs_float (col_dot st j y) > 1e-6 then
              found := j
          end
        done
      done;
      for p = 0 to n - 1 do
        y.(cols.(p)) <- 0.0
      done;
      if !found < st.art_first then begin
        ftran st !found st.d;
        (* Step-0 pivot: swap the basis without moving the solution. *)
        pivot st !found 1.0 st.d i 0.0 ~leaving_pos:At_lower
      end
      (* else the row is redundant; its artificial stays basic at 0 *)
    end
  done

(* Column bounds with the artificials appended at [0, inf), as phase 1
   sees them; phase 2 pins the artificials to 0. *)
let column_bounds p =
  let total = p.num_vars + p.num_rows in
  let lower = Array.make total 0.0 and upper = Array.make total infinity in
  Array.blit p.lower 0 lower 0 p.num_vars;
  Array.blit p.upper 0 upper 0 p.num_vars;
  (lower, upper)

let default_max_iters p = function
  | Some k -> k
  | None -> 200 * (p.num_rows + p.num_vars) + 2000

(* Offsets of lists of lengths [lens] packed end to end. *)
let offsets lens =
  let at = Array.make (Array.length lens + 1) 0 in
  Array.iteri (fun i n -> at.(i + 1) <- at.(i) + n) lens;
  at

let pack at lists zero =
  let flat = Array.make at.(Array.length at - 1) zero in
  Array.iteri (fun i l -> Array.blit l 0 flat at.(i) (at.(i + 1) - at.(i))) lists;
  flat

(* Unpack into lists with the capacities a fresh solve's lists reach:
   four, doubled as needed.  Exact lengths would spread the blocks over
   many more of the heap's size classes, which measurably raises the
   peak heap. *)
let unpack at flat zero =
  Array.init (Array.length at - 1) (fun i ->
      let n = at.(i + 1) - at.(i) in
      let cap = ref 4 in
      while !cap < n do
        cap := 2 * !cap
      done;
      let l = Array.make !cap zero in
      Array.blit flat at.(i) l 0 n;
      l)

let freeze st phase1 =
  let inv = st.inv in
  let row_at = offsets inv.r_len and col_at = offsets inv.c_len in
  {
    problem = st.p;
    s_basis = Array.copy st.basis;
    s_nb = Array.copy st.nb;
    s_xb = Array.copy st.xb;
    (* Nothing writes [art_sign] after set-up. *)
    s_art_sign = st.art_sign;
    row_at;
    s_r_col = pack row_at inv.r_col 0;
    s_r_val = pack row_at inv.r_val 0.0;
    s_r_cpos = pack row_at inv.r_cpos 0;
    col_at;
    s_c_row = pack col_at inv.c_row 0;
    s_c_rpos = pack col_at inv.c_rpos 0;
    s_rows_a = st.rows_a;
    phase1;
  }

(* [p]'s row index: what a pivot's reprice and the expulsion of
   artificials walk instead of every column.  Built once per problem,
   as two blocks rather than one per row. *)
let row_index p =
  let len = Array.make p.num_rows 0 in
  for j = 0 to p.num_vars - 1 do
    let idx = p.col_index.(j) in
    for q = 0 to Array.length idx - 1 do
      len.(idx.(q)) <- len.(idx.(q)) + 1
    done
  done;
  let a_at = offsets len in
  let a_col = Array.make a_at.(p.num_rows) 0 in
  Array.blit a_at 0 len 0 p.num_rows;
  for j = 0 to p.num_vars - 1 do
    let idx = p.col_index.(j) in
    for q = 0 to Array.length idx - 1 do
      let k = idx.(q) in
      a_col.(len.(k)) <- j;
      len.(k) <- len.(k) + 1
    done
  done;
  { a_at; a_col }

(* A state at [basis] for [p], with phase 1's bounds, zero costs, and
   the pricing arrays every phase of the solve reuses. *)
let create_state p ~rows_a ~basis ~nb ~inv ~xb ~art_sign =
  let m = p.num_rows and total = p.num_vars + p.num_rows in
  let lower, upper = column_bounds p in
  let in_basis = Array.make total false in
  Array.iter (fun j -> in_basis.(j) <- true) basis;
  {
    p;
    total;
    m;
    lower;
    upper;
    cost = Array.make total 0.0;
    basis;
    in_basis;
    nb;
    inv;
    xb;
    art_first = p.num_vars;
    art_sign;
    rows_a;
    y = Array.make m 0.0;
    score = Array.make total 0.0;
    d = Array.make m 0.0;
    touched = Array.make m 0;
    mark = Array.make total 0;
    marked = 0;
  }

(* A state of its own at [s], for [p]: the start's problem, repriced. *)
let thaw s p =
  let m = p.num_rows in
  let lengths at = Array.init m (fun i -> at.(i + 1) - at.(i)) in
  create_state p ~rows_a:s.s_rows_a ~basis:(Array.copy s.s_basis)
    ~nb:(Array.copy s.s_nb)
    ~inv:
      {
        r_col = unpack s.row_at s.s_r_col 0;
        r_val = unpack s.row_at s.s_r_val 0.0;
        r_cpos = unpack s.row_at s.s_r_cpos 0;
        r_len = lengths s.row_at;
        c_row = unpack s.col_at s.s_c_row 0;
        c_rpos = unpack s.col_at s.s_c_rpos 0;
        c_len = lengths s.col_at;
        updated = Array.make m 0;
        seen = Array.make m 0;
        stamp = 0;
      }
    ~xb:(Array.copy s.s_xb) ~art_sign:s.s_art_sign

(* Phase 2 from the feasible basis in [st] (when [status] is still
   [Optimal]), then the answer.  [iter_count] runs on from phase 1: the
   [xb] refresh cadence and [max_iters] both read it.  [iterations]
   reports what this solve performed, the count beyond [base]. *)
let finish st ~max_iters ~status ~start ~base iter_count =
  let p = st.p and m = st.m in
  let status = ref status in
  if !status = Optimal then begin
    (* Phase 2: real costs, artificials pinned to zero. *)
    Array.fill st.cost 0 st.total 0.0;
    Array.blit p.obj 0 st.cost 0 p.num_vars;
    for i = 0 to m - 1 do
      let a = p.num_vars + i in
      st.lower.(a) <- 0.0;
      st.upper.(a) <- 0.0
    done;
    let before = !iter_count in
    (match optimize st ~max_iters iter_count with
    | Phase_iter_limit -> status := Iteration_limit
    | Phase_unbounded -> status := Unbounded
    | Phase_optimal -> ());
    Log.debug (fun k ->
        k "phase2: %d pivots (%d total)" (!iter_count - before)
          (!iter_count - base))
  end;
  if !status = Iteration_limit then
    Log.warn (fun k ->
        k "iteration limit hit after %d pivots (%d rows x %d cols); returning \
           the incumbent basis"
          !iter_count m p.num_vars);
  refresh_xb st;
  let primal = extract_primal st in
  let duals = Array.make m 0.0 in
  if !status = Optimal then dual_prices st duals;
  let objective =
    match !status with
    | Optimal | Iteration_limit ->
        let acc = ref 0.0 in
        for j = 0 to p.num_vars - 1 do
          acc := !acc +. (p.obj.(j) *. primal.(j))
        done;
        !acc
    | Infeasible | Unbounded -> nan
  in
  let iterations = !iter_count - base in
  if T.enabled () then begin
    T.Counter.incr m_solves;
    T.Counter.add m_pivots iterations;
    T.Histogram.observe m_pivots_per_solve (float_of_int iterations);
    (match !status with
    | Infeasible -> T.Counter.incr m_infeasible
    | Iteration_limit -> T.Counter.incr m_iter_limit
    | Optimal | Unbounded -> ())
  end;
  { status = !status; objective; primal; duals; iterations; start }

let solve ?max_iters (p : problem) : result =
  let m = p.num_rows in
  let max_iters = default_max_iters p max_iters in
  let nb = Array.make (p.num_vars + m) At_lower in
  (* Nonbasic start: every column at a finite bound, the lower one when
     it has one.  A free column has none; {!Model} splits free variables
     before they get here. *)
  for j = 0 to p.num_vars - 1 do
    if p.lower.(j) > neg_infinity then nb.(j) <- At_lower
    else if p.upper.(j) < infinity then nb.(j) <- At_upper
    else
      invalid_arg
        (Printf.sprintf "Simplex.solve: column %d is free (no finite bound)" j)
  done;
  let st =
    create_state p ~rows_a:(row_index p)
      ~basis:(Array.init m (fun i -> p.num_vars + i))
      ~nb
      (* The diagonal's values are filled in below. *)
      ~inv:(inverse_create m)
      ~xb:(Array.make m 0.0) ~art_sign:(Array.make m 1.0)
  in
  let cost = st.cost in
  (* Residual with all structural columns at their nonbasic bounds decides
     each artificial's sign so the initial basis is feasible. *)
  let resid = Array.copy p.rhs in
  for j = 0 to p.num_vars - 1 do
    let x = nonbasic_value st j in
    if x <> 0.0 then begin
      let idx = p.col_index.(j) and v = p.col_value.(j) in
      for k = 0 to Array.length idx - 1 do
        resid.(idx.(k)) <- resid.(idx.(k)) -. (v.(k) *. x)
      done
    end
  done;
  for i = 0 to m - 1 do
    st.art_sign.(i) <- (if resid.(i) >= 0.0 then 1.0 else -1.0);
    st.xb.(i) <- abs_float resid.(i);
    (* The initial basis matrix is diag(art_sign); its inverse is itself,
       not the identity. *)
    st.inv.r_val.(i).(0) <- st.art_sign.(i)
  done;
  let iter_count = ref 0 in
  (* Phase 1: minimize the sum of artificials. *)
  let phase1_needed = Array.exists (fun v -> abs_float v > eps_bound) st.xb in
  let status = ref Optimal in
  if phase1_needed then begin
    T.Counter.incr m_phase1_solves;
    for i = 0 to m - 1 do
      cost.(p.num_vars + i) <- 1.0
    done;
    (match optimize st ~max_iters iter_count with
    | Phase_iter_limit -> status := Iteration_limit
    | Phase_unbounded ->
        (* Phase-1 objective is bounded below by 0; cannot happen unless
           numerics break down. *)
        status := Infeasible
    | Phase_optimal ->
        let inf = objective_value st cost in
        if inf > 1e-6 then status := Infeasible);
    T.Counter.add m_phase1_pivots !iter_count;
    Log.debug (fun k ->
        k "phase1: %d pivots over %d rows x %d cols, residual infeasibility %g"
          !iter_count m p.num_vars
          (objective_value st cost));
    if !status = Optimal then begin
      expel_artificials st;
      refresh_xb st
    end
  end
  else begin
    T.Counter.incr m_phase1_skipped;
    Log.debug (fun k ->
        k "phase1 skipped: all-bound start already feasible (%d rows x %d cols)"
          m p.num_vars)
  end;
  let start = if !status = Optimal then Some (freeze st !iter_count) else None in
  finish st ~max_iters ~status:!status ~start ~base:0 iter_count

let resolve ?max_iters s obj =
  let p = { s.problem with obj } in
  if Array.length obj <> p.num_vars then
    invalid_arg "Simplex.resolve: objective length differs from the start's columns";
  T.Counter.incr m_phase1_reused;
  Log.debug (fun k ->
      k "phase1 reused: %d pivots skipped (%d rows x %d cols)" s.phase1
        p.num_rows p.num_vars);
  finish (thaw s p)
    ~max_iters:(default_max_iters p max_iters)
    ~status:Optimal ~start:(Some s) ~base:s.phase1 (ref s.phase1)
