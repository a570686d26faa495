module M = Apple_lp.Model

let status_pp = function
  | M.Optimal -> "optimal"
  | M.Infeasible -> "infeasible"
  | M.Unbounded -> "unbounded"
  | M.Limit -> "limit"

let check_status expected (sol : M.solution) =
  Alcotest.(check string) "status" (status_pp expected) (status_pp sol.M.status)

let test_basic_max () =
  (* max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6 -> (4, 0), obj 12 *)
  let t = M.create ~maximize:true () in
  let x = M.add_var t ~obj:3.0 () in
  let y = M.add_var t ~obj:2.0 () in
  M.add_constraint t [ (1.0, x); (1.0, y) ] M.Le 4.0;
  M.add_constraint t [ (1.0, x); (3.0, y) ] M.Le 6.0;
  let s = M.solve_lp t in
  check_status M.Optimal s;
  Alcotest.(check (float 1e-6)) "objective" 12.0 s.M.objective;
  Alcotest.(check (float 1e-6)) "x" 4.0 (M.value s x);
  Alcotest.(check (float 1e-6)) "y" 0.0 (M.value s y)

let test_equality_and_ge () =
  (* min x + y  s.t. x + y >= 3, x - y = 1 -> (2, 1) *)
  let t = M.create () in
  let x = M.add_var t ~obj:1.0 () in
  let y = M.add_var t ~obj:1.0 () in
  M.add_constraint t [ (1.0, x); (1.0, y) ] M.Ge 3.0;
  M.add_constraint t [ (1.0, x); (-1.0, y) ] M.Eq 1.0;
  let s = M.solve_lp t in
  check_status M.Optimal s;
  Alcotest.(check (float 1e-6)) "objective" 3.0 s.M.objective;
  Alcotest.(check (float 1e-6)) "x" 2.0 (M.value s x);
  Alcotest.(check (float 1e-6)) "y" 1.0 (M.value s y)

let test_variable_bounds () =
  (* max x + y with x <= 2.5, y <= 1.5, x + y <= 3.5 *)
  let t = M.create ~maximize:true () in
  let x = M.add_var t ~ub:2.5 ~obj:1.0 () in
  let y = M.add_var t ~ub:1.5 ~obj:1.0 () in
  M.add_constraint t [ (1.0, x); (1.0, y) ] M.Le 3.5;
  let s = M.solve_lp t in
  check_status M.Optimal s;
  Alcotest.(check (float 1e-6)) "objective" 3.5 s.M.objective

let test_negative_lower_bound () =
  (* min x with x >= -5 -> -5 *)
  let t = M.create () in
  let x = M.add_var t ~lb:(-5.0) ~ub:10.0 ~obj:1.0 () in
  M.add_constraint t [ (1.0, x) ] M.Le 100.0;
  let s = M.solve_lp t in
  check_status M.Optimal s;
  Alcotest.(check (float 1e-6)) "x at lower bound" (-5.0) (M.value s x)

let test_free_variable_bounded_below () =
  (* x free: min x s.t. x >= -5 -> -5 (not 0, the old pinned value) *)
  let t = M.create () in
  let x = M.add_var t ~lb:neg_infinity ~obj:1.0 () in
  M.add_constraint t [ (1.0, x) ] M.Ge (-5.0);
  let s = M.solve_lp t in
  check_status M.Optimal s;
  Alcotest.(check (float 1e-9)) "x" (-5.0) (M.value s x);
  Alcotest.(check (float 1e-9)) "objective" (-5.0) s.M.objective

let test_free_variable_unbounded () =
  (* x free: min x s.t. x <= 3 has no minimum *)
  let t = M.create () in
  let x = M.add_var t ~lb:neg_infinity ~obj:1.0 () in
  M.add_constraint t [ (1.0, x) ] M.Le 3.0;
  check_status M.Unbounded (M.solve_lp t)

let test_simplex_rejects_free_column () =
  let module S = Apple_lp.Simplex in
  let p =
    {
      S.num_vars = 2;
      num_rows = 1;
      col_index = [| [| 0 |]; [| 0 |] |];
      col_value = [| [| 1.0 |]; [| 1.0 |] |];
      rhs = [| 1.0 |];
      obj = [| 1.0; 0.0 |];
      lower = [| neg_infinity; 0.0 |];
      upper = [| infinity; infinity |];
    }
  in
  match S.solve p with
  | _ -> Alcotest.fail "free column accepted"
  | exception Invalid_argument _ -> ()

let test_infeasible () =
  let t = M.create () in
  let x = M.add_var t ~ub:1.0 ~obj:1.0 () in
  M.add_constraint t [ (1.0, x) ] M.Ge 2.0;
  check_status M.Infeasible (M.solve_lp t)

let test_unbounded () =
  let t = M.create ~maximize:true () in
  let x = M.add_var t ~obj:1.0 () in
  M.add_constraint t [ (1.0, x) ] M.Ge 0.0;
  check_status M.Unbounded (M.solve_lp t)

let test_degenerate_duplicate_terms () =
  (* Terms with a repeated variable must be merged: x + x <= 4 -> x <= 2. *)
  let t = M.create ~maximize:true () in
  let x = M.add_var t ~obj:1.0 () in
  M.add_constraint t [ (1.0, x); (1.0, x) ] M.Le 4.0;
  let s = M.solve_lp t in
  Alcotest.(check (float 1e-6)) "merged" 2.0 (M.value s x)

let test_ilp_basic () =
  (* min x + y  s.t. 2x + 3y >= 7, integer -> obj 3 *)
  let t = M.create () in
  let x = M.add_var t ~obj:1.0 ~integer:true () in
  let y = M.add_var t ~obj:1.0 ~integer:true () in
  M.add_constraint t [ (2.0, x); (3.0, y) ] M.Ge 7.0;
  let s = M.solve_ilp t in
  check_status M.Optimal s;
  Alcotest.(check (float 1e-6)) "objective" 3.0 s.M.objective

let test_ilp_knapsack () =
  (* max 10a + 6b + 4c s.t. a+b+c <= 2, 5a+4b+3c <= 8; binary.
     best: a=1,b=0,c=1 -> 14?  check: a+c=2 ok, 5+3=8 ok -> 14.
     a=1,b=1: 2 items, 9 <= 8? no. So 14. *)
  let t = M.create ~maximize:true () in
  let a = M.add_var t ~ub:1.0 ~obj:10.0 ~integer:true () in
  let b = M.add_var t ~ub:1.0 ~obj:6.0 ~integer:true () in
  let c = M.add_var t ~ub:1.0 ~obj:4.0 ~integer:true () in
  M.add_constraint t [ (1.0, a); (1.0, b); (1.0, c) ] M.Le 2.0;
  M.add_constraint t [ (5.0, a); (4.0, b); (3.0, c) ] M.Le 8.0;
  let s = M.solve_ilp t in
  check_status M.Optimal s;
  Alcotest.(check (float 1e-6)) "objective" 14.0 s.M.objective

let test_ilp_matches_exhaustive () =
  (* Fixed small ILP cross-checked against brute force. *)
  let t = M.create () in
  let x = M.add_var t ~ub:5.0 ~obj:3.0 ~integer:true () in
  let y = M.add_var t ~ub:5.0 ~obj:2.0 ~integer:true () in
  let z = M.add_var t ~ub:5.0 ~obj:4.0 ~integer:true () in
  M.add_constraint t [ (1.0, x); (2.0, y); (1.0, z) ] M.Ge 6.0;
  M.add_constraint t [ (2.0, x); (1.0, y); (3.0, z) ] M.Ge 8.0;
  let s = M.solve_ilp t in
  check_status M.Optimal s;
  (* brute force *)
  let best = ref infinity in
  for x' = 0 to 5 do
    for y' = 0 to 5 do
      for z' = 0 to 5 do
        let xf = float_of_int x' and yf = float_of_int y' and zf = float_of_int z' in
        if xf +. (2.0 *. yf) +. zf >= 6.0 && (2.0 *. xf) +. yf +. (3.0 *. zf) >= 8.0
        then best := min !best ((3.0 *. xf) +. (2.0 *. yf) +. (4.0 *. zf))
      done
    done
  done;
  Alcotest.(check (float 1e-6)) "matches brute force" !best s.M.objective

let test_round_up_feasible_covering () =
  (* Covering structure: rounding the relaxation up stays feasible. *)
  let t = M.create () in
  let x = M.add_var t ~obj:1.0 ~integer:true () in
  let y = M.add_var t ~obj:1.0 ~integer:true () in
  M.add_constraint t [ (3.0, x); (2.0, y) ] M.Ge 7.5;
  let s = M.solve_round_up t in
  Alcotest.(check bool) "feasible" true (M.feasible_with t s.M.values);
  Alcotest.(check bool) "integral" true
    (Array.for_all (fun v -> abs_float (v -. Float.round v) < 1e-9) s.M.values)

let test_feasible_with () =
  let t = M.create () in
  let x = M.add_var t ~ub:2.0 () in
  M.add_constraint t [ (1.0, x) ] M.Ge 1.0;
  Alcotest.(check bool) "interior point" true (M.feasible_with t [| 1.5 |]);
  Alcotest.(check bool) "violates row" false (M.feasible_with t [| 0.5 |]);
  Alcotest.(check bool) "violates bound" false (M.feasible_with t [| 2.5 |])

let test_objective_at () =
  let t = M.create () in
  let _x = M.add_var t ~obj:2.0 () in
  let _y = M.add_var t ~obj:(-1.0) () in
  Alcotest.(check (float 1e-9)) "dot product" 5.0 (M.objective_at t [| 3.0; 1.0 |])

let test_many_constraints () =
  (* A chain of 50 constraints x_i >= x_{i+1} + 1 with x_50 >= 0:
     min x_0 = 50. *)
  let t = M.create () in
  let vars = Array.init 51 (fun i -> M.add_var t ~obj:(if i = 0 then 1.0 else 0.0) ()) in
  for i = 0 to 49 do
    M.add_constraint t [ (1.0, vars.(i)); (-1.0, vars.(i + 1)) ] M.Ge 1.0
  done;
  let s = M.solve_lp t in
  check_status M.Optimal s;
  Alcotest.(check (float 1e-4)) "chain" 50.0 s.M.objective

(* --- property tests ------------------------------------------------ *)

(* Random covering LPs: min c.x, A x >= b with positive data.  The LP
   solution must be feasible and no worse than a reference feasible point,
   and the ILP must be >= the LP bound and match exhaustive search on a
   small integer box. *)
let random_cover_gen =
  QCheck.Gen.(
    let pos = float_range 0.5 5.0 in
    let n = 3 in
    let m_gen = int_range 1 3 in
    m_gen >>= fun m ->
    list_repeat m (list_repeat n pos) >>= fun rows ->
    list_repeat m (float_range 1.0 8.0) >>= fun rhs ->
    list_repeat n (float_range 0.5 4.0) >>= fun obj ->
    return (rows, rhs, obj))

let build_cover (rows, rhs, obj) ~integer =
  let t = M.create () in
  let vars = List.map (fun c -> M.add_var t ~ub:6.0 ~obj:c ~integer ()) obj in
  List.iter2
    (fun row b ->
      M.add_constraint t (List.map2 (fun coef v -> (coef, v)) row vars) M.Ge b)
    rows rhs;
  (t, vars)

let prop_lp_feasible_and_bounded =
  QCheck.Test.make ~name:"random covering LP: optimal is feasible" ~count:120
    (QCheck.make random_cover_gen) (fun input ->
      let t, _ = build_cover input ~integer:false in
      let s = M.solve_lp t in
      s.M.status = M.Optimal && M.feasible_with t s.M.values)

let prop_ilp_dominates_lp =
  QCheck.Test.make ~name:"random covering: ILP objective >= LP bound" ~count:80
    (QCheck.make random_cover_gen) (fun input ->
      let tl, _ = build_cover input ~integer:false in
      let ti, _ = build_cover input ~integer:true in
      let sl = M.solve_lp tl in
      let si = M.solve_ilp ti in
      si.M.status = M.Optimal
      && M.feasible_with ti si.M.values
      && si.M.objective >= sl.M.objective -. 1e-6)

let prop_ilp_matches_exhaustive =
  QCheck.Test.make ~name:"random covering ILP matches exhaustive search"
    ~count:60 (QCheck.make random_cover_gen) (fun ((rows, rhs, obj) as input) ->
      let t, _ = build_cover input ~integer:true in
      let s = M.solve_ilp t in
      (* exhaustive over [0,6]^3 *)
      let best = ref infinity in
      for a = 0 to 6 do
        for b = 0 to 6 do
          for c = 0 to 6 do
            let x = [ float_of_int a; float_of_int b; float_of_int c ] in
            let ok =
              List.for_all2
                (fun row rhs_v ->
                  List.fold_left2 (fun acc coef xv -> acc +. (coef *. xv)) 0.0 row x
                  >= rhs_v -. 1e-9)
                rows rhs
            in
            if ok then
              best :=
                min !best
                  (List.fold_left2 (fun acc cv xv -> acc +. (cv *. xv)) 0.0 obj x)
          done
        done
      done;
      s.M.status = M.Optimal && abs_float (s.M.objective -. !best) < 1e-6)

let prop_round_up_feasible =
  QCheck.Test.make ~name:"round-up heuristic stays feasible on coverings"
    ~count:120 (QCheck.make random_cover_gen) (fun input ->
      let t, _ = build_cover input ~integer:true in
      let s = M.solve_round_up t in
      M.feasible_with t s.M.values)

let suite =
  [
    Alcotest.test_case "basic max" `Quick test_basic_max;
    Alcotest.test_case "equality and >=" `Quick test_equality_and_ge;
    Alcotest.test_case "variable bounds" `Quick test_variable_bounds;
    Alcotest.test_case "negative lower bound" `Quick test_negative_lower_bound;
    Alcotest.test_case "free variable bounded below" `Quick
      test_free_variable_bounded_below;
    Alcotest.test_case "free variable unbounded" `Quick test_free_variable_unbounded;
    Alcotest.test_case "simplex rejects a free column" `Quick
      test_simplex_rejects_free_column;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "duplicate terms merged" `Quick test_degenerate_duplicate_terms;
    Alcotest.test_case "ILP basic" `Quick test_ilp_basic;
    Alcotest.test_case "ILP knapsack" `Quick test_ilp_knapsack;
    Alcotest.test_case "ILP vs brute force" `Quick test_ilp_matches_exhaustive;
    Alcotest.test_case "round-up covering" `Quick test_round_up_feasible_covering;
    Alcotest.test_case "feasible_with" `Quick test_feasible_with;
    Alcotest.test_case "objective_at" `Quick test_objective_at;
    Alcotest.test_case "long chain" `Quick test_many_constraints;
    QCheck_alcotest.to_alcotest prop_lp_feasible_and_bounded;
    QCheck_alcotest.to_alcotest prop_ilp_dominates_lp;
    QCheck_alcotest.to_alcotest prop_ilp_matches_exhaustive;
    QCheck_alcotest.to_alcotest prop_round_up_feasible;
  ]

(* --- dual values ---------------------------------------------------- *)

let test_duals_known_example () =
  (* max 3x + 2y st x + y <= 4, x + 3y <= 6: optimum x=4, y=0.
     Shadow prices: relaxing the first constraint by 1 gains 3
     (x grows); the second constraint is slack, price 0. *)
  let t = M.create ~maximize:true () in
  let x = M.add_var t ~obj:3.0 () in
  let y = M.add_var t ~obj:2.0 () in
  M.add_constraint t [ (1.0, x); (1.0, y) ] M.Le 4.0;
  M.add_constraint t [ (1.0, x); (3.0, y) ] M.Le 6.0;
  let s = M.solve_lp t in
  Alcotest.(check (float 1e-6)) "binding row priced" 3.0 s.M.duals.(0);
  Alcotest.(check (float 1e-6)) "slack row free" 0.0 s.M.duals.(1)

let test_duals_min_example () =
  (* min 2x + 3y st x + y >= 5 (binding): shadow price = 2 (cheapest
     variable absorbs the extra requirement). *)
  let t = M.create () in
  let x = M.add_var t ~obj:2.0 () in
  let y = M.add_var t ~obj:3.0 () in
  M.add_constraint t [ (1.0, x); (1.0, y) ] M.Ge 5.0;
  let s = M.solve_lp t in
  Alcotest.(check (float 1e-6)) "shadow price" 2.0 s.M.duals.(0)

let test_duals_shadow_price_prediction () =
  (* The dual predicts the objective change for a small rhs perturbation. *)
  let build rhs =
    let t = M.create () in
    let x = M.add_var t ~obj:1.0 () in
    let y = M.add_var t ~obj:4.0 () in
    M.add_constraint t [ (2.0, x); (1.0, y) ] M.Ge rhs;
    M.add_constraint t [ (1.0, x); (3.0, y) ] M.Ge 6.0;
    t
  in
  let s0 = M.solve_lp (build 8.0) in
  let s1 = M.solve_lp (build 9.0) in
  Alcotest.(check bool) "dual predicts delta" true
    (abs_float (s1.M.objective -. s0.M.objective -. s0.M.duals.(0)) < 1e-6)

let prop_complementary_slackness =
  QCheck.Test.make ~name:"complementary slackness on random coverings"
    ~count:80 (QCheck.make random_cover_gen)
    (fun ((rows, rhs, _) as input) ->
      let t, vars = build_cover input ~integer:false in
      let s = M.solve_lp t in
      s.M.status = M.Optimal
      && List.for_all2
           (fun row rhs_v ->
             (* either the row is tight or its dual is ~0 *)
             let i =
               (* recover the row index by position *)
               let rec idx k = function
                 | r :: _ when r == row -> k
                 | _ :: rest -> idx (k + 1) rest
                 | [] -> -1
               in
               idx 0 rows
             in
             let lhs =
               List.fold_left2
                 (fun acc coef v -> acc +. (coef *. M.value s v))
                 0.0 row vars
             in
             let slack = lhs -. rhs_v in
             abs_float (s.M.duals.(i) *. slack) < 1e-4)
           rows rhs)

let prop_strong_duality =
  QCheck.Test.make ~name:"strong duality: y.b = c.x on random coverings"
    ~count:80 (QCheck.make random_cover_gen)
    (fun ((_, rhs, _) as input) ->
      let t, _ = build_cover input ~integer:false in
      let s = M.solve_lp t in
      (* At a covering optimum with variables strictly inside their upper
         bounds, the dual objective y.b equals the primal objective. *)
      let at_ub = Array.exists (fun v -> v > 6.0 -. 1e-6) s.M.values in
      s.M.status <> M.Optimal || at_ub
      ||
      let dual_obj =
        List.fold_left2 (fun acc y b -> acc +. (y *. b)) 0.0
          (Array.to_list s.M.duals) rhs
      in
      abs_float (dual_obj -. s.M.objective) < 1e-5)

let dual_suite =
  [
    Alcotest.test_case "duals known max" `Quick test_duals_known_example;
    Alcotest.test_case "duals known min" `Quick test_duals_min_example;
    Alcotest.test_case "duals predict perturbation" `Quick test_duals_shadow_price_prediction;
    QCheck_alcotest.to_alcotest prop_complementary_slackness;
    QCheck_alcotest.to_alcotest prop_strong_duality;
  ]

let suite = suite @ dual_suite
