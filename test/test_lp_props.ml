(* Property tests for the LP layer (qcheck): random small feasible LPs
   must solve to Optimal, the reported point must satisfy every
   constraint, the objective must beat the feasibility witness, and
   re-solving must be bit-identical.  Feasibility is guaranteed by
   construction: each case carries a witness point x0 inside the variable
   boxes, and every constraint's rhs is derived from lhs(x0) with
   non-negative slack. *)

module M = Apple_lp.Model

type lp_case = {
  ubs : float array;  (* per-var upper bound; lb = 0 *)
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
  >>= fun constrs -> return { ubs; objs; x0; constrs }

let gen_case = gen_sized ~vars:(1, 5) ~rows:(1, 4)

let print_case case =
  let arr a =
    "[" ^ String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%g") a)) ^ "]"
  in
  Printf.sprintf "ubs=%s objs=%s x0=%s constrs=[%s]" (arr case.ubs)
    (arr case.objs) (arr case.x0)
    (String.concat " & "
       (List.map
          (fun ((coefs, sense, _) as c) ->
            Printf.sprintf "%s %s %g" (arr coefs)
              (match sense with `Le -> "<=" | `Ge -> ">=" | `Eq -> "=")
              (rhs_of case c))
          case.constrs))

let arb_case = QCheck.make ~print:print_case gen_case

let build case =
  let t = M.create () in
  let vars =
    Array.mapi (fun i ub -> M.add_var t ~lb:0.0 ~ub ~obj:case.objs.(i) ()) case.ubs
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
  t

(* Own feasibility check at 1e-5 — independent of Model.feasible_with so
   a bug there cannot mask a solver bug. *)
let feasible case x =
  let tol = 1e-5 in
  let ok = ref true in
  Array.iteri
    (fun i v -> if v < -.tol || v > case.ubs.(i) +. tol then ok := false)
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
    { ubs = Array.make n 1.0; objs; x0; constrs = List.rev_append !structural capacity }

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
      ignore
        (Apple_core.Optimization_engine.solve
           ~method_:Apple_core.Optimization_engine.Per_class ~jobs:1 s));
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
    ]
  @ [
      Alcotest.test_case "no warnings during solving" `Quick
        test_no_warnings_during_solving;
    ]
