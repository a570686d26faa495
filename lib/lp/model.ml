let src = Logs.Src.create "apple.lp.model" ~doc:"APPLE LP/ILP model layer"

module Log = (val Logs.src_log src : Logs.LOG)

type var = int

type sense = Le | Ge | Eq

type status = Optimal | Infeasible | Unbounded | Limit

type constr = {
  terms : (float * var) list;  (* duplicates already merged *)
  sense : sense;
  rhs : float;
}

type t = {
  maximize : bool;
  (* Per variable, in declaration order; the first [n] are live. *)
  mutable lbs : float array;
  mutable ubs : float array;
  mutable objs : float array;
  mutable ints : bool array;
  mutable n : int;
  mutable n_int : int;
  mutable constrs : constr list;  (* reversed *)
  mutable num_constrs : int;
  mutable nnz : int;  (* terms of all constraints, merged *)
}

(* A start is valid for the model it was taken from, at the size it had:
   the model only grows, and only objectives change in place. *)
type start = {
  owner : t;
  vars : int;
  rows : int;
  free : int array;  (* the lowering's split free variables *)
  simplex : Simplex.start;
}

type solution = {
  status : status;
  objective : float;
  values : float array;
  duals : float array;
  start : start option;
}

let create ?(maximize = false) () =
  {
    maximize;
    lbs = [||];
    ubs = [||];
    objs = [||];
    ints = [||];
    n = 0;
    n_int = 0;
    constrs = [];
    num_constrs = 0;
    nnz = 0;
  }

let grown a n zero =
  let b = Array.make (max 16 (2 * n)) zero in
  Array.blit a 0 b 0 n;
  b

let add_var t ?(lb = 0.0) ?(ub = infinity) ?(integer = false) ?(obj = 0.0)
    () =
  if lb > ub then invalid_arg "Model.add_var: lb > ub";
  let id = t.n in
  if id = Array.length t.objs then begin
    t.lbs <- grown t.lbs id 0.0;
    t.ubs <- grown t.ubs id 0.0;
    t.objs <- grown t.objs id 0.0;
    t.ints <- grown t.ints id false
  end;
  t.lbs.(id) <- lb;
  t.ubs.(id) <- ub;
  t.objs.(id) <- obj;
  t.ints.(id) <- integer;
  if integer then t.n_int <- t.n_int + 1;
  t.n <- id + 1;
  id

(* Each variable's coefficients summed from +0.0 in the order given,
   zero sums dropped, by ascending variable: a stable sort keeps each
   variable's run in its original order. *)
let merge_terms terms =
  let rec runs acc = function
    | [] -> List.rev acc
    | (coef, v) :: rest -> run acc v (0.0 +. coef) rest
  and run acc v sum = function
    | (coef, v') :: rest when Int.equal v v' -> run acc v (sum +. coef) rest
    | rest -> runs (if sum = 0.0 then acc else (sum, v) :: acc) rest
  in
  runs [] (List.stable_sort (fun (_, v) (_, v') -> Int.compare v v') terms)

let add_constraint t terms sense rhs =
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= t.n then invalid_arg "Model.add_constraint: unknown var")
    terms;
  let terms = merge_terms terms in
  t.constrs <- { terms; sense; rhs } :: t.constrs;
  t.num_constrs <- t.num_constrs + 1;
  t.nnz <- t.nnz + List.length terms

let set_obj t v coef =
  if v < 0 || v >= t.n then invalid_arg "Model.set_obj: unknown var";
  t.objs.(v) <- coef

let var_index v = v

let num_vars t = t.n
let num_constraints t = t.num_constrs
let value sol v = sol.values.(v)

let arrays_of t =
  let live a = Array.sub a 0 t.n in
  (live t.lbs, live t.ubs, live t.objs, live t.ints)

(* The standard-form objective over [total] columns: minimization
   costs for the variables, 0 for the slacks, and each split free
   variable's x- column priced as its negation. *)
let lower_objective t ~free ~total objs =
  let obj = Array.make total 0.0 in
  let sign = if t.maximize then -1.0 else 1.0 in
  for j = 0 to t.n - 1 do
    obj.(j) <- sign *. objs.(j)
  done;
  Array.iteri (fun f v -> obj.(t.n + t.num_constrs + f) <- -.obj.(v)) free;
  obj

(* Lower the model to Simplex standard form: one slack column per row,
   then one column per free variable.  Simplex needs a finite bound on
   every column, so a free [v] becomes x+ - x-: column [v] holds x+ in
   [0, inf) and column [n + m + f] holds x-, negated, for the [f]-th free
   variable.  Returns the free variables in that order. *)
let standardize t ~lbs ~ubs ~objs =
  let m = t.num_constrs in
  let n = t.n in
  let free = ref [] in
  for v = n - 1 downto 0 do
    if lbs.(v) = neg_infinity && ubs.(v) = infinity then free := v :: !free
  done;
  let free = Array.of_list !free in
  let total = n + m + Array.length free in
  let cols_idx = Array.make total [||] and cols_val = Array.make total [||] in
  let rhs = Array.make m 0.0 in
  let lower = Array.make total 0.0 and upper = Array.make total infinity in
  Array.blit lbs 0 lower 0 n;
  Array.blit ubs 0 upper 0 n;
  (* Two passes over the rows: count each variable's entries, then fill
     its column from the end, the newest row first, so each column
     lists its rows in ascending order. *)
  let fill = Array.make n 0 in
  List.iter
    (fun c -> List.iter (fun (_, v) -> fill.(v) <- fill.(v) + 1) c.terms)
    t.constrs;
  for v = 0 to n - 1 do
    cols_idx.(v) <- Array.make fill.(v) 0;
    cols_val.(v) <- Array.make fill.(v) 0.0
  done;
  List.iteri
    (fun back c ->
      let i = m - 1 - back in
      rhs.(i) <- c.rhs;
      List.iter
        (fun (coef, v) ->
          let q = fill.(v) - 1 in
          fill.(v) <- q;
          cols_idx.(v).(q) <- i;
          cols_val.(v).(q) <- coef)
        c.terms;
      (* slack column for row i *)
      let sj = n + i in
      cols_idx.(sj) <- [| i |];
      cols_val.(sj) <- [| 1.0 |];
      match c.sense with
      | Le ->
          lower.(sj) <- 0.0;
          upper.(sj) <- infinity
      | Ge ->
          lower.(sj) <- neg_infinity;
          upper.(sj) <- 0.0
      | Eq ->
          lower.(sj) <- 0.0;
          upper.(sj) <- 0.0)
    t.constrs;
  Array.iteri
    (fun f v ->
      let neg = n + m + f in
      cols_idx.(neg) <- cols_idx.(v);
      cols_val.(neg) <- Array.map Float.neg cols_val.(v);
      lower.(v) <- 0.0;
      lower.(neg) <- 0.0)
    free;
  ( {
      Simplex.num_vars = total;
      num_rows = m;
      col_index = cols_idx;
      col_value = cols_val;
      rhs;
      obj = lower_objective t ~free ~total objs;
      lower;
      upper;
    },
    free )

let solution_of t ~free (res : Simplex.result) =
  let values = Array.sub res.primal 0 t.n in
  Array.iteri
    (fun f v -> values.(v) <- values.(v) -. res.primal.(t.n + t.num_constrs + f))
    free;
  let sign = if t.maximize then -1.0 else 1.0 in
  let status =
    match res.status with
    | Simplex.Optimal -> Optimal
    | Simplex.Infeasible -> Infeasible
    | Simplex.Unbounded -> Unbounded
    | Simplex.Iteration_limit -> Limit
  in
  (* The simplex multipliers price the minimization standard form; flip
     them back into the user's objective sense. *)
  let duals = Array.map (fun y -> sign *. y) res.duals in
  let start =
    Option.map
      (fun simplex -> { owner = t; vars = t.n; rows = t.num_constrs; free; simplex })
      res.start
  in
  { status; objective = sign *. res.objective; values; duals; start }

let log_solve t (res : Simplex.result) =
  Log.debug (fun k ->
      k "lp solve: %d vars x %d constraints -> %s in %d pivots" t.n
        t.num_constrs
        (match res.Simplex.status with
        | Simplex.Optimal -> "optimal"
        | Simplex.Infeasible -> "infeasible"
        | Simplex.Unbounded -> "unbounded"
        | Simplex.Iteration_limit -> "iteration-limit")
        res.Simplex.iterations)

let solve_lp_bounds ?max_iters t ~lbs ~ubs ~objs =
  let problem, free = standardize t ~lbs ~ubs ~objs in
  let res = Simplex.solve ?max_iters problem in
  log_solve t res;
  solution_of t ~free res

let solve_lp ?max_iters ?start t =
  match start with
  | None ->
      let lbs, ubs, objs, _ = arrays_of t in
      solve_lp_bounds ?max_iters t ~lbs ~ubs ~objs
  | Some s ->
      if s.owner != t then
        invalid_arg "Model.solve_lp: the start was taken from another model";
      if s.vars <> t.n || s.rows <> t.num_constrs then
        invalid_arg
          "Model.solve_lp: the model gained a variable or row since the start";
      let total = t.n + t.num_constrs + Array.length s.free in
      let res =
        Simplex.resolve ?max_iters s.simplex
          (lower_objective t ~free:s.free ~total t.objs)
      in
      log_solve t res;
      solution_of t ~free:s.free res

let objective_at t x =
  let _, _, objs, _ = arrays_of t in
  let acc = ref 0.0 in
  Array.iteri (fun j c -> acc := !acc +. (c *. x.(j))) objs;
  !acc

let feasible_with t x =
  let tol = 1e-6 in
  let lbs, ubs, _, ints = arrays_of t in
  let bounds_ok = ref true in
  Array.iteri
    (fun j v ->
      if v < lbs.(j) -. tol || v > ubs.(j) +. tol then bounds_ok := false;
      if ints.(j) && abs_float (v -. Float.round v) > tol then bounds_ok := false)
    x;
  !bounds_ok
  && List.for_all
       (fun c ->
         let lhs =
           List.fold_left (fun acc (coef, v) -> acc +. (coef *. x.(v))) 0.0 c.terms
         in
         match c.sense with
         | Le -> lhs <= c.rhs +. tol
         | Ge -> lhs >= c.rhs -. tol
         | Eq -> abs_float (lhs -. c.rhs) <= tol)
       t.constrs

let solve_round_up ?max_iters t =
  let lbs, ubs, objs, ints = arrays_of t in
  let relax = solve_lp_bounds ?max_iters t ~lbs ~ubs ~objs in
  match relax.status with
  | Optimal | Limit ->
      let values = Array.copy relax.values in
      Array.iteri
        (fun j is_int ->
          if is_int then begin
            let v = values.(j) in
            let rounded =
              (* Snap near-integers instead of inflating them. *)
              if abs_float (v -. Float.round v) < 1e-6 then Float.round v
              else ceil v
            in
            values.(j) <- min rounded ubs.(j)
          end)
        ints;
      { relax with values; objective = objective_at t values }
  | Infeasible | Unbounded -> relax

let fractional_int_var ~ints values =
  (* Most fractional integer variable, if any. *)
  let best = ref (-1) and best_frac = ref 1e-6 in
  Array.iteri
    (fun j is_int ->
      if is_int then begin
        let v = values.(j) in
        let frac = abs_float (v -. Float.round v) in
        let dist = min (v -. floor v) (ceil v -. v) in
        if frac > 1e-6 && dist > !best_frac then begin
          best := j;
          best_frac := dist
        end
      end)
    ints;
  if !best >= 0 then Some !best else None

let solve_ilp ?(max_nodes = 10_000) ?max_iters t =
  let lbs0, ubs0, objs, ints = arrays_of t in
  let sign = if t.maximize then -1.0 else 1.0 in
  (* Internally minimize sign*objective. *)
  let incumbent = ref None in
  let incumbent_obj = ref infinity in
  let nodes = ref 0 in
  let truncated = ref false in
  let rec branch lbs ubs =
    if !nodes >= max_nodes then truncated := true
    else begin
      incr nodes;
      (* A node's start is for its tightened bounds, not the model's;
         no node solution is returned. *)
      let sol = solve_lp_bounds ?max_iters t ~lbs ~ubs ~objs in
      match sol.status with
      | Infeasible -> ()
      | Unbounded ->
          (* An unbounded relaxation makes the ILP unbounded too (our
             models never hit this; be conservative and record nothing). *)
          truncated := true
      | Limit -> truncated := true
      | Optimal ->
          let relax_obj = sign *. sol.objective in
          if relax_obj < !incumbent_obj -. 1e-9 then begin
            match fractional_int_var ~ints sol.values with
            | None ->
                incumbent := Some sol.values;
                incumbent_obj := relax_obj
            | Some j ->
                let v = sol.values.(j) in
                let down_ub = Array.copy ubs and up_lb = Array.copy lbs in
                down_ub.(j) <- floor v;
                up_lb.(j) <- ceil v;
                (* Explore the side closest to the relaxation first. *)
                if v -. floor v <= ceil v -. v then begin
                  if lbs.(j) <= down_ub.(j) then branch lbs down_ub;
                  if up_lb.(j) <= ubs.(j) then branch up_lb ubs
                end
                else begin
                  if up_lb.(j) <= ubs.(j) then branch up_lb ubs;
                  if lbs.(j) <= down_ub.(j) then branch lbs down_ub
                end
          end
    end
  in
  branch lbs0 ubs0;
  match !incumbent with
  | Some values ->
      {
        status = (if !truncated then Limit else Optimal);
        objective = objective_at t values;
        values = Array.map (fun v -> v) values;
        duals = Array.make t.num_constrs 0.0;
        start = None;
      }
  | None ->
      if !truncated then
        let fallback = solve_round_up ?max_iters t in
        { fallback with status = Limit; start = None }
      else
        {
          status = Infeasible;
          objective = nan;
          values = Array.make t.n 0.0;
          duals = Array.make t.num_constrs 0.0;
          start = None;
        }

let pp_stats ppf t =
  Format.fprintf ppf "vars=%d (int=%d) constraints=%d nnz=%d" t.n t.n_int
    t.num_constrs t.nnz
