(* Property tests for the LP layer (qcheck): random small feasible LPs
   must solve to Optimal, the reported point must satisfy every
   constraint, the objective must beat the feasibility witness, and
   re-solving must be bit-identical.  Feasibility is guaranteed by
   construction: each case carries a witness point x0 inside the variable
   boxes, and every constraint's rhs is derived from lhs(x0) with
   non-negative slack. *)

module M = Apple_lp.Model

type lp_case = {
  lbs : float array;  (* per-var lower bound *)
  ubs : float array;  (* per-var upper bound *)
  objs : float array;  (* minimization objective *)
  x0 : float array;  (* feasibility witness, 0 <= x0 <= ubs *)
  constrs : (float array * [ `Le | `Ge | `Eq ] * float) list;
      (* (coefs, sense, slack >= 0); rhs = lhs(x0) +/- slack *)
}

let dot coefs x =
  let acc = ref 0.0 in
  Array.iteri (fun i c -> acc := !acc +. (c *. x.(i))) coefs;
  !acc

let rhs_of case (coefs, sense, slack) =
  let lhs0 = dot coefs case.x0 in
  match sense with `Le -> lhs0 +. slack | `Ge -> lhs0 -. slack | `Eq -> lhs0

let gen_sized ~vars:(vlo, vhi) ~rows:(rlo, rhi) =
  let open QCheck.Gen in
  int_range vlo vhi >>= fun n ->
  array_size (return n) (float_range 0.5 10.0) >>= fun ubs ->
  array_size (return n) (float_range (-3.0) 3.0) >>= fun objs ->
  array_size (return n) (float_range 0.0 1.0) >>= fun fracs ->
  let x0 = Array.mapi (fun i f -> f *. ubs.(i)) fracs in
  int_range rlo rhi >>= fun nc ->
  list_repeat nc
    ( array_size (return n) (float_range (-3.0) 3.0) >>= fun coefs ->
      oneofl [ `Le; `Ge; `Eq ] >>= fun sense ->
      float_range 0.0 5.0 >>= fun slack -> return (coefs, sense, slack) )
  >>= fun constrs -> return { lbs = Array.make n 0.0; ubs; objs; x0; constrs }

let gen_case = gen_sized ~vars:(1, 5) ~rows:(1, 4)

let print_case case =
  let arr a =
    "[" ^ String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%g") a)) ^ "]"
  in
  Printf.sprintf "lbs=%s ubs=%s objs=%s x0=%s constrs=[%s]" (arr case.lbs)
    (arr case.ubs) (arr case.objs) (arr case.x0)
    (String.concat " & "
       (List.map
          (fun ((coefs, sense, _) as c) ->
            Printf.sprintf "%s %s %g" (arr coefs)
              (match sense with `Le -> "<=" | `Ge -> ">=" | `Eq -> "=")
              (rhs_of case c))
          case.constrs))

let arb_case = QCheck.make ~print:print_case gen_case

(* [free_first] declares variable 0 free instead of boxed. *)
let build_vars ?maximize ?(free_first = false) case =
  let t = M.create ?maximize () in
  let vars =
    Array.mapi
      (fun i ub ->
        if i = 0 && free_first then
          M.add_var t ~lb:neg_infinity ~ub:infinity ~obj:case.objs.(i) ()
        else M.add_var t ~lb:case.lbs.(i) ~ub ~obj:case.objs.(i) ())
      case.ubs
  in
  List.iter
    (fun ((coefs, sense, _) as c) ->
      let terms =
        Array.to_list (Array.mapi (fun i coef -> (coef, vars.(i))) coefs)
      in
      let sense =
        match sense with `Le -> M.Le | `Ge -> M.Ge | `Eq -> M.Eq
      in
      M.add_constraint t terms sense (rhs_of case c))
    case.constrs;
  (t, vars)

let build case = fst (build_vars case)

(* Own feasibility check at 1e-5 — independent of Model.feasible_with so
   a bug there cannot mask a solver bug. *)
let feasible case x =
  let tol = 1e-5 in
  let ok = ref true in
  Array.iteri
    (fun i v ->
      if v < case.lbs.(i) -. tol || v > case.ubs.(i) +. tol then ok := false)
    x;
  List.iter
    (fun ((coefs, sense, _) as c) ->
      let lhs = dot coefs x and rhs = rhs_of case c in
      match sense with
      | `Le -> if lhs > rhs +. tol then ok := false
      | `Ge -> if lhs < rhs -. tol then ok := false
      | `Eq -> if abs_float (lhs -. rhs) > tol then ok := false)
    case.constrs;
  !ok

let prop_optimal =
  QCheck.Test.make ~count:300 ~name:"feasible-by-construction LPs solve to Optimal"
    arb_case (fun case ->
      let sol = M.solve_lp (build case) in
      sol.M.status = M.Optimal)

let prop_solution_feasible =
  QCheck.Test.make ~count:300 ~name:"solver's point satisfies every constraint"
    arb_case (fun case ->
      let sol = M.solve_lp (build case) in
      sol.M.status <> M.Optimal || feasible case sol.M.values)

let prop_beats_witness =
  QCheck.Test.make ~count:300
    ~name:"solver objective <= any feasible point's (minimization)" arb_case
    (fun case ->
      let sol = M.solve_lp (build case) in
      sol.M.status <> M.Optimal
      || sol.M.objective <= dot case.objs case.x0 +. 1e-6)

let bit_identical (s1 : M.solution) (s2 : M.solution) =
  Int64.bits_of_float s1.M.objective = Int64.bits_of_float s2.M.objective
  && Array.length s1.M.values = Array.length s2.M.values
  && Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       s1.M.values s2.M.values

let prop_deterministic =
  QCheck.Test.make ~count:150 ~name:"solving twice is bit-identical" arb_case
    (fun case ->
      bit_identical (M.solve_lp (build case)) (M.solve_lp (build case)))

(* Dense rows, more of them than [gen_case] draws: the basis inverse of
   a dense basis has more nonzeros per row and column than the sparse
   store's lists start with (four), so these solves grow them. *)
let prop_dense =
  QCheck.Test.make ~count:200
    ~name:"dense LPs past the inverse's initial store: optimal, feasible, beat the witness"
    (QCheck.make ~print:print_case (gen_sized ~vars:(5, 8) ~rows:(5, 8)))
    (fun case ->
      let sol = M.solve_lp (build case) in
      sol.M.status = M.Optimal
      && feasible case sol.M.values
      && sol.M.objective <= dot case.objs case.x0 +. 1e-6)

(* Network-shaped LPs: the Optimization Engine's Eq. (3)-(4) rows for a
   few classes — chain order (cumulative stage j-1 dominates stage j along
   every path prefix, +-1 coefficients, rhs 0) and completion (each stage
   sums to 1) — over d(h, i, j) in [0, 1], plus random capacity rows.
   The witness places class h's stage j wholly at hop w_j with w
   nondecreasing, which meets order and completion exactly; capacity rhs
   is its load plus slack.  These rows cancel exactly in the basis
   inverse, which random dense LPs almost never do. *)
let gen_network =
  let open QCheck.Gen in
  list_size (int_range 1 3) (pair (int_range 1 5) (int_range 1 4)) >>= fun shapes ->
  let shapes = Array.of_list shapes in
  let offsets = Array.make (Array.length shapes + 1) 0 in
  Array.iteri
    (fun h (plen, clen) -> offsets.(h + 1) <- offsets.(h) + (plen * clen))
    shapes;
  let n = offsets.(Array.length shapes) in
  let var h i j = offsets.(h) + (i * snd shapes.(h)) + j in
  array_size (return n) (float_range (-1.0) 3.0) >>= fun objs ->
  flatten_l
    (Array.to_list
       (Array.map
          (fun (plen, clen) -> list_repeat clen (int_range 0 (plen - 1)))
          shapes))
  >>= fun hops ->
  let x0 = Array.make n 0.0 in
  List.iteri
    (fun h ws ->
      List.iteri (fun j i -> x0.(var h i j) <- 1.0) (List.sort Int.compare ws))
    hops;
  let structural = ref [] in
  Array.iteri
    (fun h (plen, clen) ->
      for j = 1 to clen - 1 do
        for i = 0 to plen - 1 do
          let coefs = Array.make n 0.0 in
          for i' = 0 to i do
            coefs.(var h i' (j - 1)) <- 1.0;
            coefs.(var h i' j) <- -1.0
          done;
          (* slack = lhs(x0) makes the rhs exactly 0 *)
          structural := (coefs, `Ge, dot coefs x0) :: !structural
        done
      done;
      for j = 0 to clen - 1 do
        let coefs = Array.make n 0.0 in
        for i = 0 to plen - 1 do
          coefs.(var h i j) <- 1.0
        done;
        structural := (coefs, `Eq, 0.0) :: !structural
      done)
    shapes;
  list_size (int_range 1 4)
    ( array_size (return n) (oneofl [ 0.0; 0.0; 1.0; 2.0; 0.5 ]) >>= fun coefs ->
      float_range 0.0 2.0 >>= fun slack -> return (coefs, `Le, slack) )
  >>= fun capacity ->
  return
    {
      lbs = Array.make n 0.0;
      ubs = Array.make n 1.0;
      objs;
      x0;
      constrs = List.rev_append !structural capacity;
    }

let prop_network_shaped =
  QCheck.Test.make ~count:200
    ~name:"network-shaped LPs: optimal, feasible, beat the witness, stable"
    (QCheck.make ~print:print_case gen_network) (fun case ->
      let s1 = M.solve_lp (build case) in
      let s2 = M.solve_lp (build case) in
      s1.M.status = M.Optimal
      && feasible case s1.M.values
      && s1.M.objective <= dot case.objs case.x0 +. 1e-6
      && bit_identical s1 s2)

(* ---- feasible start ---------------------------------------------- *)

module Simplex = Apple_lp.Simplex

(* [case] in Simplex standard form with objective [objs], lowered the
   way Model does it: one slack column per row, bounded by its sense. *)
let problem_of case objs =
  let n = Array.length case.ubs and rows = Array.of_list case.constrs in
  let m = Array.length rows in
  let coef i j = match rows.(i) with coefs, _, _ -> coefs.(j) in
  let column j =
    if j < n then List.filter (fun i -> coef i j <> 0.0) (List.init m Fun.id)
    else [ j - n ]
  in
  let slack_bounds i =
    match rows.(i) with
    | _, `Le, _ -> (0.0, infinity)
    | _, `Ge, _ -> (neg_infinity, 0.0)
    | _, `Eq, _ -> (0.0, 0.0)
  in
  {
    Simplex.num_vars = n + m;
    num_rows = m;
    col_index = Array.init (n + m) (fun j -> Array.of_list (column j));
    col_value =
      Array.init (n + m) (fun j ->
          Array.of_list
            (List.map (fun i -> if j < n then coef i j else 1.0) (column j)));
    rhs = Array.map (rhs_of case) rows;
    obj = Array.init (n + m) (fun j -> if j < n then objs.(j) else 0.0);
    lower =
      Array.init (n + m) (fun j ->
          if j < n then case.lbs.(j) else fst (slack_bounds (j - n)));
    upper =
      Array.init (n + m) (fun j ->
          if j < n then case.ubs.(j) else snd (slack_bounds (j - n)));
  }

let hex a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a))

let same_result (a : Simplex.result) (b : Simplex.result) =
  a.Simplex.status = b.Simplex.status
  && Printf.sprintf "%h" a.Simplex.objective = Printf.sprintf "%h" b.Simplex.objective
  && hex a.Simplex.primal = hex b.Simplex.primal
  && hex a.Simplex.duals = hex b.Simplex.duals

let same_solution (a : M.solution) (b : M.solution) =
  a.M.status = b.M.status
  && Printf.sprintf "%h" a.M.objective = Printf.sprintf "%h" b.M.objective
  && hex a.M.values = hex b.M.values
  && hex a.M.duals = hex b.M.duals

(* A case, a second objective over its variables, and for the Model
   check an objective sense and whether variable 0 is free. *)
let with_second_objective gen =
  let open QCheck.Gen in
  gen >>= fun case ->
  array_size (return (Array.length case.objs)) (float_range (-3.0) 3.0)
  >>= fun objs2 ->
  pair bool bool >>= fun (maximize, free_first) ->
  return (case, objs2, maximize, free_first)

(* Re-solving from the first solve's start with [objs2] equals a fresh
   solve with [objs2] bit for bit, having performed exactly the start's
   phase-1 iterations fewer.  So does a pair capped halfway through
   phase 2: [max_iters] bounds the counter that runs on from phase 1,
   the one the periodic refresh of the basic values reads.  Through
   Model, repricing with set_obj and re-solving from the solution's
   start equals a fresh model, maximizing or with a free variable too
   (the re-solve lowers the objective itself). *)
let prop_start_resolve ~name gen =
  QCheck.Test.make ~count:200 ~name
    (QCheck.make
       ~print:(fun (case, objs2, maximize, free_first) ->
         Printf.sprintf "%s objs2=%s maximize=%b free_first=%b" (print_case case)
           (hex objs2) maximize free_first)
       (with_second_objective gen))
    (fun (case, objs2, maximize, free_first) ->
      let first = Simplex.solve (problem_of case case.objs) in
      let repriced = problem_of case objs2 in
      let fresh = Simplex.solve repriced in
      match first.Simplex.start with
      | None -> QCheck.Test.fail_report "a feasible LP yielded no start"
      | Some start ->
          let again = Simplex.resolve start repriced.Simplex.obj in
          let phase1 = Simplex.phase1_iterations start in
          let max_iters = phase1 + ((fresh.Simplex.iterations - phase1) / 2) in
          let capped = Simplex.solve ~max_iters repriced in
          let capped_again =
            Simplex.resolve ~max_iters start repriced.Simplex.obj
          in
          let t, vars = build_vars ~maximize ~free_first case in
          let sol1 = M.solve_lp t in
          Array.iteri (fun j c -> M.set_obj t vars.(j) c) objs2;
          let resolved = M.solve_lp ?start:sol1.M.start t in
          let fresh_model =
            M.solve_lp
              (fst (build_vars ~maximize ~free_first { case with objs = objs2 }))
          in
          same_result again fresh
          && again.Simplex.iterations = fresh.Simplex.iterations - phase1
          && same_result capped_again capped
          && capped_again.Simplex.iterations = capped.Simplex.iterations - phase1
          && same_solution resolved fresh_model)

(* Degenerate LPs: redundant equality rows (copies and combinations of
   other equality rows, so their artificials stay basic and
   [expel_artificials] must leave them), fixed columns (lb = ub, never
   priced), and small boxes next to wide rows (bound flips).  Every
   coefficient and witness value is a small multiple of 1/2, so each
   combined row is exactly consistent with the rows it combines. *)
let gen_degenerate =
  let open QCheck.Gen in
  int_range 2 7 >>= fun n ->
  array_size (return n) (triple (int_range 1 8) (int_range 0 16) (int_range 0 3))
  >>= fun boxes ->
  let ubs = Array.map (fun (a, _, _) -> 0.5 *. float_of_int a) boxes in
  let x0 = Array.map (fun (a, b, _) -> 0.5 *. float_of_int (b mod (a + 1))) boxes in
  (* One variable in four is fixed at its witness value. *)
  let fixed = Array.map (fun (_, _, f) -> f = 0) boxes in
  let lbs = Array.mapi (fun i x -> if fixed.(i) then x else 0.0) x0 in
  let ubs = Array.mapi (fun i x -> if fixed.(i) then x else ubs.(i)) x0 in
  array_size (return n) (float_range (-3.0) 3.0) >>= fun objs ->
  let row = array_size (return n) (map float_of_int (int_range (-2) 2)) in
  int_range 1 3 >>= fun neq ->
  list_repeat neq row >>= fun eqs ->
  let eqs = Array.of_list eqs in
  int_range 1 3 >>= fun nred ->
  list_repeat nred
    ( triple (int_range 0 (neq - 1)) (int_range 0 (neq - 1))
        (pair (oneofl [ 1.0; -1.0; 2.0 ]) (oneofl [ 0.0; 1.0; -1.0 ]))
    >>= fun (a, b, (ca, cb)) ->
      return (Array.mapi (fun i x -> (ca *. x) +. (cb *. eqs.(b).(i))) eqs.(a)) )
  >>= fun redundant ->
  int_range 0 3 >>= fun nineq ->
  list_repeat nineq
    ( row >>= fun coefs ->
      oneofl [ `Le; `Ge ] >>= fun sense ->
      float_range 0.0 2.0 >>= fun slack -> return (coefs, sense, slack) )
  >>= fun ineqs ->
  shuffle_l
    (List.map (fun c -> (c, `Eq, 0.0)) (Array.to_list eqs @ redundant) @ ineqs)
  >>= fun constrs -> return { lbs; ubs; objs; x0; constrs }

let prop_degenerate =
  QCheck.Test.make ~count:300
    ~name:"degenerate LPs (redundant rows, fixed columns): optimal, feasible, beat the witness"
    (QCheck.make ~print:print_case gen_degenerate) (fun case ->
      let sol = M.solve_lp (build case) in
      sol.M.status = M.Optimal
      && feasible case sol.M.values
      && sol.M.objective <= dot case.objs case.x0 +. 1e-6)

let prop_start_degenerate =
  prop_start_resolve ~name:"degenerate LPs: start re-solve = fresh solve"
    gen_degenerate

let prop_start_feasible =
  prop_start_resolve ~name:"feasible LPs: start re-solve = fresh solve" gen_case

let prop_start_dense =
  prop_start_resolve ~name:"dense LPs: start re-solve = fresh solve"
    (gen_sized ~vars:(5, 8) ~rows:(5, 8))

let prop_start_network =
  prop_start_resolve ~name:"network LPs: start re-solve = fresh solve"
    gen_network

(* A case plus a row no point in the box meets: the sum of all
   variables above the sum of their upper bounds.  The row's "slack"
   is negative, so its rhs lies beyond the witness. *)
let prop_infeasible_no_start =
  QCheck.Test.make ~count:200 ~name:"infeasible LPs yield no start" arb_case
    (fun case ->
      let n = Array.length case.ubs in
      let ones = Array.make n 1.0 in
      let beyond = Array.fold_left ( +. ) 1.0 case.ubs in
      let case =
        {
          case with
          constrs = case.constrs @ [ (ones, `Ge, dot ones case.x0 -. beyond) ];
        }
      in
      let sol = M.solve_lp (build case) in
      let r = Simplex.solve (problem_of case case.objs) in
      sol.M.status = M.Infeasible
      && Option.is_none sol.M.start
      && r.Simplex.status = Simplex.Infeasible
      && Option.is_none r.Simplex.start)

let test_start_refused () =
  let case =
    {
      lbs = [| 0.0; 0.0 |];
      ubs = [| 4.0; 4.0 |];
      objs = [| 1.0; 2.0 |];
      x0 = [| 1.0; 1.0 |];
      constrs = [ ([| 1.0; 1.0 |], `Ge, 0.5); ([| 1.0; -1.0 |], `Eq, 0.0) ];
    }
  in
  let refused what f =
    match f () with
    | (_ : M.solution) -> Alcotest.failf "%s: the start was accepted" what
    | exception Invalid_argument _ -> ()
  in
  let t, vars = build_vars case in
  let start = (M.solve_lp t).M.start in
  Alcotest.(check bool) "a feasible model yields a start" true
    (Option.is_some start);
  refused "another model" (fun () -> M.solve_lp ?start (build case));
  M.set_obj t vars.(0) (-1.0);
  Alcotest.(check bool) "repricing keeps it valid" true
    ((M.solve_lp ?start t).M.status = M.Optimal);
  ignore (M.add_var t ~ub:1.0 ());
  refused "after add_var" (fun () -> M.solve_lp ?start t);
  let t, vars = build_vars case in
  let start = (M.solve_lp t).M.start in
  M.add_constraint t [ (1.0, vars.(0)) ] M.Le 3.0;
  refused "after add_constraint" (fun () -> M.solve_lp ?start t)

(* The simplex/model trace points must stay at debug severity: solving
   well-posed models emits no warnings even with every source enabled. *)
let test_no_warnings_during_solving () =
  let saved_reporter = Logs.reporter () in
  let saved_level = Logs.level () in
  let warnings = ref 0 and debugs = ref 0 in
  let counting_reporter =
    {
      Logs.report =
        (fun _src level ~over k _msgf ->
          (match level with
          | Logs.Warning | Logs.Error -> incr warnings
          | Logs.Debug -> incr debugs
          | _ -> ());
          over ();
          k ());
    }
  in
  Logs.set_reporter counting_reporter;
  Logs.set_level ~all:true (Some Logs.Debug);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter saved_reporter;
      Logs.set_level ~all:true saved_level)
    (fun () ->
      let s = Helpers.small_scenario ~max_classes:12 () in
      ignore (Apple_core.Optimization_engine.solve s);
      (* The default method runs no LP; the LP pipeline's trace points
         come from [Lp_round]. *)
      ignore
        (Apple_core.Optimization_engine.solve
           ~method_:Apple_core.Optimization_engine.Lp_round s));
  Alcotest.(check int) "no warnings while solving" 0 !warnings;
  Alcotest.(check bool) "trace points fired" true (!debugs > 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_optimal;
      prop_solution_feasible;
      prop_beats_witness;
      prop_deterministic;
      prop_dense;
      prop_network_shaped;
      prop_start_feasible;
      prop_start_dense;
      prop_start_network;
      prop_degenerate;
      prop_start_degenerate;
      prop_infeasible_no_start;
    ]
  @ [
      Alcotest.test_case "no warnings during solving" `Quick
        test_no_warnings_during_solving;
      Alcotest.test_case "a start is refused by another or grown model" `Quick
        test_start_refused;
    ]
