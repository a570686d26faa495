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

(* The basis inverse, stored sparsely in flat blocks.  Column [k]'s
   entries are [c_row.(q)] (row) and [c_val.(q)] (value) for [q] in
   [c_at.(k), c_at.(k) + c_len.(k)), in ascending row order.  An entry
   that is not listed is +0.0, and one that cancels to zero is dropped.
   A pivot writes each column it rewrites at the block's free end
   ([c_top]) and abandons the old copy; when the free end runs out,
   the columns are packed into the spare block, which then swaps with
   the block (see [make_room]).  Bit [k] of row [i]'s [words] ints of
   [bits] (32 bits each) is set when entry (i, k) is listed. *)
type inverse = {
  mutable c_row : int array;
  mutable c_val : float array;
  mutable c_top : int;
  c_at : int array;
  c_len : int array;
  mutable spare_row : int array;
  mutable spare_val : float array;
  words : int;
  bits : int array;
}

let set_bit inv i k =
  let w = (i * inv.words) + (k lsr 5) in
  inv.bits.(w) <- inv.bits.(w) lor (1 lsl (k land 31))

let clear_bit inv i k =
  let w = (i * inv.words) + (k lsr 5) in
  inv.bits.(w) <- inv.bits.(w) land lnot (1 lsl (k land 31))

(* The identity pattern, entry (i, i) the only one of row and column
   i, its value set by the caller; three times as much free room. *)
let inverse_create m =
  let words = (m + 31) / 32 in
  let bits = Array.make (m * words) 0 in
  for i = 0 to m - 1 do
    bits.((i * words) + (i lsr 5)) <- 1 lsl (i land 31)
  done;
  {
    c_row = Array.init (4 * m) (fun q -> if q < m then q else 0);
    c_val = Array.make (4 * m) 0.0;
    c_top = m;
    c_at = Array.init m Fun.id;
    c_len = Array.make m 1;
    spare_row = [||];
    spare_val = [||];
    words;
    bits;
  }

(* Move every column, in order, to the front of [rows] and [vals]. *)
let pack_columns inv rows vals =
  let top = ref 0 in
  for k = 0 to Array.length inv.c_at - 1 do
    let at = inv.c_at.(k) and n = inv.c_len.(k) in
    let t = !top in
    for q = 0 to n - 1 do
      rows.(t + q) <- inv.c_row.(at + q);
      vals.(t + q) <- inv.c_val.(at + q)
    done;
    inv.c_at.(k) <- t;
    top := t + n
  done;
  inv.c_row <- rows;
  inv.c_val <- vals;
  inv.c_top <- !top

(* Room for [n] more entries at the free end: the columns move into
   the spare block and the blocks swap.  A spare with room for fewer
   than twice the live entries plus [n] is first replaced by one with
   room for four times as many, and at least the block's. *)
let make_room inv n =
  if inv.c_top + n > Array.length inv.c_row then begin
    let live = ref n in
    for k = 0 to Array.length inv.c_len - 1 do
      live := !live + inv.c_len.(k)
    done;
    if Array.length inv.spare_row < 2 * !live then begin
      let size = 4 * !live in
      let size = if size > Array.length inv.c_row then size else Array.length inv.c_row in
      inv.spare_row <- Array.make size 0;
      inv.spare_val <- Array.make size 0.0
    end;
    let rows = inv.c_row and vals = inv.c_val in
    pack_columns inv inv.spare_row inv.spare_val;
    inv.spare_row <- rows;
    inv.spare_val <- vals
  end

(* [inv] with its columns packed into blocks [grow] times their
   entries, no spare: a frozen start's copy (1) or a thawed one (4). *)
let copy_inverse inv ~grow =
  let live = Array.fold_left ( + ) 0 inv.c_len in
  let copy =
    {
      inv with
      c_at = Array.copy inv.c_at;
      c_len = Array.copy inv.c_len;
      spare_row = [||];
      spare_val = [||];
      bits = Array.copy inv.bits;
    }
  in
  pack_columns copy (Array.make (grow * live) 0) (Array.make (grow * live) 0.0);
  copy

(* Offset in column [k] of its first entry at row [i] or below, by
   binary search; [c_len.(k)] when there is none. *)
let col_find inv k i =
  let at = inv.c_at.(k) in
  let lo = ref 0 and hi = ref inv.c_len.(k) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if inv.c_row.(at + mid) < i then lo := mid + 1 else hi := mid
  done;
  !lo

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
  d : float array;  (* ftran of the entering column; +0.0 off its pattern *)
  d_rows : int array;  (* [d]'s pattern, ascending: the rows ftran wrote *)
  mutable d_nnz : int;
  updated : int array;  (* a pivot's rows with d <> 0 besides its own *)
  touched : int array;  (* the pivot row's columns before the pivot *)
  touched_at : int array;  (* and its entries' offsets in them *)
  mark : int array;
      (* per column, or per row in ftran: the stamp of the last pass
         that saw it *)
  mutable marked : int;
}

(* The state phase 1 and [expel_artificials] leave behind, frozen, with
   B^-1's columns packed into a block of their exact size. *)
type start = {
  problem : problem;  (* [obj] is never read *)
  s_basis : int array;
  s_nb : nb_pos array;
  s_xb : float array;
  s_art_sign : float array;
  s_inv : inverse;  (* never written *)
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
   dense product bit for bit.  The rows written become [d]'s pattern,
   in ascending order; every other row holds +0.0, as the previous
   pattern is cleared first. *)
let ftran st j d =
  for t = 0 to st.d_nnz - 1 do
    d.(st.d_rows.(t)) <- 0.0
  done;
  let inv = st.inv and rows = st.d_rows in
  if j < st.art_first then begin
    let idx = st.p.col_index.(j) and v = st.p.col_value.(j) in
    let stamp = st.marked + 1 in
    st.marked <- stamp;
    let n = ref 0 in
    for k = 0 to Array.length idx - 1 do
      let row = idx.(k) and value = v.(k) in
      let at = inv.c_at.(row) in
      for q = at to at + inv.c_len.(row) - 1 do
        let i = inv.c_row.(q) in
        if st.mark.(i) <> stamp then begin
          st.mark.(i) <- stamp;
          rows.(!n) <- i;
          incr n
        end;
        d.(i) <- d.(i) +. (inv.c_val.(q) *. value)
      done
    done;
    let n = !n in
    st.d_nnz <- n;
    (* One column's rows come ascending; several are merged by an
       insertion sort while short, else by a scan of the marks. *)
    if Array.length idx > 1 then
      if n * n <= 4 * st.m then
        for t = 1 to n - 1 do
          let i = rows.(t) in
          let q = ref (t - 1) in
          while !q >= 0 && rows.(!q) > i do
            rows.(!q + 1) <- rows.(!q);
            decr q
          done;
          rows.(!q + 1) <- i
        done
      else begin
        let t = ref 0 in
        for i = 0 to st.m - 1 do
          if st.mark.(i) = stamp then begin
            rows.(!t) <- i;
            incr t
          end
        done
      end
  end
  else begin
    let row = j - st.art_first and s = st.art_sign.(j - st.art_first) in
    let at = inv.c_at.(row) in
    let n = inv.c_len.(row) in
    for q = 0 to n - 1 do
      let i = inv.c_row.(at + q) in
      rows.(q) <- i;
      d.(i) <- inv.c_val.(at + q) *. s
    done;
    st.d_nnz <- n
  end

let nonbasic_value st j = match st.nb.(j) with
  | At_lower -> st.lower.(j)
  | At_upper -> st.upper.(j)

(* Recompute basic variable values from scratch: xb = Binv (b - N x_N).
   Column by column in ascending order, so each xb(i) sums its row's
   entries in ascending column order from +0.0, as the dense product
   does. *)
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
  let inv = st.inv and xb = st.xb in
  Array.fill xb 0 st.m 0.0;
  for k = 0 to st.m - 1 do
    let rk = r.(k) and at = inv.c_at.(k) in
    for q = at to at + inv.c_len.(k) - 1 do
      let i = inv.c_row.(q) in
      xb.(i) <- xb.(i) +. (inv.c_val.(q) *. rk)
    done
  done

(* y(k) = (c_B Binv)(k): column [k]'s costed entries, in ascending row
   order from +0.0, as the dense product sums them. *)
let column_price st k =
  let inv = st.inv in
  let acc = ref 0.0 and at = inv.c_at.(k) in
  for q = at to at + inv.c_len.(k) - 1 do
    let cb = st.cost.(st.basis.(inv.c_row.(q))) in
    if cb <> 0.0 then acc := !acc +. (cb *. inv.c_val.(q))
  done;
  !acc

(* y = c_B Binv (btran with basic costs). *)
let dual_prices st y =
  for k = 0 to st.m - 1 do
    y.(k) <- column_price st k
  done

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
   Basic values move as xb - sigma * t * d.  Only [d]'s pattern can
   bound the step, in the ascending order a scan of every row meets
   it. *)
let ratio_test st j sigma d =
  let t_best = ref infinity and row_best = ref (-1) in
  let pivot_best = ref 0.0 in
  let settle = ref At_lower in
  for t = 0 to st.d_nnz - 1 do
    let i = st.d_rows.(t) in
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

(* Bit position of [b], a power of two below 2^32 (de Bruijn). *)
let bit_index =
  let table =
    [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
       31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]
  in
  fun b -> table.(((b * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Row [i]'s entries, read off its bits: their columns in [touched],
   ascending, and their offsets in those columns in [touched_at].
   Returns how many. *)
let row_entries st i =
  let inv = st.inv in
  let n = ref 0 in
  for t = 0 to inv.words - 1 do
    let word = ref inv.bits.((i * inv.words) + t) in
    while !word <> 0 do
      let b = !word land - !word in
      word := !word lxor b;
      let k = (32 * t) + bit_index b in
      st.touched.(!n) <- k;
      st.touched_at.(!n) <- col_find inv k i;
      incr n
    done
  done;
  !n

(* Column [k] of the pivot on row [r], whose entry sits at offset [o]:
   it becomes [x = v / d_r], and [nu] updated rows get multiples of it.
   One ascending merge of the column with the updated rows writes the
   new column at the free end: an entry of an updated row becomes
   [v - d_i x], an updated row it lacks gains [0 - d_i x], and a result
   of exactly 0.0 is dropped or never listed.  When [x] is 0.0 the
   entry is dropped and nothing else changes. *)
let pivot_column st k o r nu =
  let inv = st.inv and d = st.d and upd = st.updated in
  let len = inv.c_len.(k) in
  let x = inv.c_val.(inv.c_at.(k) + o) /. d.(r) in
  if x = 0.0 then begin
    let at = inv.c_at.(k) in
    for q = at + o to at + len - 2 do
      inv.c_row.(q) <- inv.c_row.(q + 1);
      inv.c_val.(q) <- inv.c_val.(q + 1)
    done;
    inv.c_len.(k) <- len - 1;
    clear_bit inv r k
  end
  else if nu = 0 then inv.c_val.(inv.c_at.(k) + o) <- x
  else begin
    make_room inv (len + nu);
    let at = inv.c_at.(k) and top = inv.c_top in
    let rows = inv.c_row and vals = inv.c_val in
    vals.(at + o) <- x;
    let last = at + len in
    let q = ref at and n = ref top in
    for u = 0 to nu - 1 do
      let iu = upd.(u) in
      while !q < last && rows.(!q) < iu do
        rows.(!n) <- rows.(!q);
        vals.(!n) <- vals.(!q);
        incr n;
        incr q
      done;
      if !q < last && rows.(!q) = iu then begin
        let v = vals.(!q) -. (d.(iu) *. x) in
        incr q;
        if v <> 0.0 then begin
          rows.(!n) <- iu;
          vals.(!n) <- v;
          incr n
        end
        else clear_bit inv iu k
      end
      else begin
        let v = 0.0 -. (d.(iu) *. x) in
        if v <> 0.0 then begin
          rows.(!n) <- iu;
          vals.(!n) <- v;
          incr n;
          set_bit inv iu k
        end
      end
    done;
    while !q < last do
      rows.(!n) <- rows.(!q);
      vals.(!n) <- vals.(!q);
      incr n;
      incr q
    done;
    inv.c_at.(k) <- top;
    inv.c_len.(k) <- !n - top;
    inv.c_top <- !n
  end

(* Apply a basis change: entering column j (direction d, sign sigma, step t)
   replaces the basic variable of row r.  Returns the number of columns
   row r of Binv held before, listed in [touched].  Basic values move
   only on [d]'s pattern: elsewhere d is +0.0, where the move could
   change only the sign of a zero value, which no comparison reads and
   [refresh_xb] recomputes. *)
let pivot st j sigma d r t ~leaving_pos =
  let entering_value =
    (match st.nb.(j) with At_lower -> st.lower.(j) | At_upper -> st.upper.(j))
    +. (sigma *. t)
  in
  (* Move the other basic variables; list the rows B^-1 updates. *)
  let nu = ref 0 in
  for p = 0 to st.d_nnz - 1 do
    let i = st.d_rows.(p) in
    if i <> r then begin
      st.xb.(i) <- st.xb.(i) -. (sigma *. t *. d.(i));
      if d.(i) <> 0.0 then begin
        st.updated.(!nu) <- i;
        incr nu
      end
    end
  done;
  let leaving = st.basis.(r) in
  st.in_basis.(leaving) <- false;
  st.nb.(leaving) <- leaving_pos;
  st.basis.(r) <- j;
  st.in_basis.(j) <- true;
  st.xb.(r) <- entering_value;
  (* Product-form update of the inverse: row r scaled by 1/d_r, other rows
     with d_i <> 0 get multiples of it subtracted — both only in the
     columns where row r holds an entry, since a zero entry of row r
     leaves its column unchanged.  Entries that appear or cancel to
     exactly 0.0 (common with 0/+-1 coefficients) are listed or
     dropped. *)
  let nt = row_entries st r in
  for p = 0 to nt - 1 do
    pivot_column st st.touched.(p) st.touched_at.(p) r !nu
  done;
  nt

(* [d] is the ftran of [j] the ratio test just used; no pivot has
   happened since, so it is still current.  No price moves, since basis
   and Binv stay: the flip only negates [j]'s score.  As in [pivot],
   only [d]'s pattern moves. *)
let bound_flip st j range d =
  (match st.nb.(j) with
  | At_lower -> st.nb.(j) <- At_upper
  | At_upper -> st.nb.(j) <- At_lower);
  st.score.(j) <- -.st.score.(j);
  let sigma = match st.nb.(j) with At_upper -> 1.0 | At_lower -> -1.0 in
  for p = 0 to st.d_nnz - 1 do
    let i = st.d_rows.(p) in
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
              let nt = pivot st j sigma d r t ~leaving_pos in
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
      let n = row_entries st i in
      for p = 0 to n - 1 do
        let k = st.touched.(p) in
        y.(k) <- inv.c_val.(inv.c_at.(k) + st.touched_at.(p))
      done;
      st.marked <- st.marked + 1;
      let found = ref st.art_first in
      for p = 0 to n - 1 do
        let k = st.touched.(p) in
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
        y.(st.touched.(p)) <- 0.0
      done;
      if !found < st.art_first then begin
        ftran st !found st.d;
        (* Step-0 pivot: swap the basis without moving the solution. *)
        ignore (pivot st !found 1.0 st.d i 0.0 ~leaving_pos:At_lower : int)
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

let freeze st phase1 =
  {
    problem = st.p;
    s_basis = Array.copy st.basis;
    s_nb = Array.copy st.nb;
    s_xb = Array.copy st.xb;
    (* Nothing writes [art_sign] after set-up. *)
    s_art_sign = st.art_sign;
    s_inv = copy_inverse st.inv ~grow:1;
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
    d_rows = Array.make m 0;
    d_nnz = 0;
    updated = Array.make m 0;
    touched = Array.make m 0;
    touched_at = Array.make m 0;
    mark = Array.make total 0;
    marked = 0;
  }

(* A state of its own at [s], for [p]: the start's problem, repriced.
   B^-1's block gets three times as much free room as it uses. *)
let thaw s p =
  create_state p ~rows_a:s.s_rows_a ~basis:(Array.copy s.s_basis)
    ~nb:(Array.copy s.s_nb)
    ~inv:(copy_inverse s.s_inv ~grow:4)
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
    st.inv.c_val.(i) <- st.art_sign.(i)
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
