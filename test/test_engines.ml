(* Tests for the heuristic engine and the engine selector. *)

module C = Apple_core
module OE = C.Optimization_engine
module HE = C.Heuristic_engine
module ES = C.Engine_select
module Nf = Apple_vnf.Nf

let test_heuristic_feasible_all_topologies () =
  List.iter
    (fun named ->
      let s = Helpers.small_scenario ~named () in
      let p = HE.solve s in
      match OE.check_distribution s p with
      | Ok () -> ()
      | Error e -> Alcotest.fail (s.C.Types.topo.Apple_topology.Builders.label ^ ": " ^ e))
    [
      Apple_topology.Builders.internet2 ();
      Apple_topology.Builders.geant ();
      Apple_topology.Builders.univ1 ();
    ]

let test_heuristic_tiny_optimum () =
  let s = Helpers.tiny_scenario () in
  let p = HE.solve s in
  (match OE.check_distribution s p with Ok () -> () | Error e -> Alcotest.fail e);
  (* 500 fw+ids and 400 fw fit in 1 firewall + 1 IDS. *)
  Alcotest.(check int) "tiny optimum" 2 (OE.instance_count p)

let test_heuristic_fast () =
  let s = Helpers.small_scenario ~named:(Apple_topology.Builders.as3679 ()) () in
  let t0 = Unix.gettimeofday () in
  let p = HE.solve s in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "sub-100ms on AS-3679" true (dt < 0.1);
  match OE.check_distribution s p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_heuristic_infeasible () =
  let s = Helpers.tiny_scenario () in
  let starved = { s with C.Types.host_cores = Array.make 4 2 } in
  Alcotest.(check bool) "raises" true
    (try
       ignore (HE.solve starved);
       false
     with OE.Infeasible _ -> true)

(* The selector keeps the better of the engines it races, under either
   optimization-engine method: never worse than either of them. *)
let test_selector_never_worse () =
  List.iter
    (fun seed ->
      let s = Helpers.small_scenario ~seed () in
      List.iter
        (fun (name, method_) ->
          let best = ES.solve ~method_ s in
          List.iter
            (fun (engine, p) ->
              (* The selector drops a greedy placement that fails the
                 validator. *)
              if Result.is_ok (OE.check_distribution s p) then
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d: %s race <= %s" seed name engine)
                  true
                  (best.OE.objective_value <= p.OE.objective_value +. 1e-9))
            [ (name, OE.solve ~method_ s); ("greedy", HE.solve s) ];
          match OE.check_distribution s best with
          | Ok () -> ()
          | Error e -> Alcotest.fail e)
        [ ("shortest paths", OE.Shortest_paths); ("lp", OE.Lp_round) ])
    [ 7; 8; 9 ]

let suite =
  [
    Alcotest.test_case "heuristic feasible" `Quick test_heuristic_feasible_all_topologies;
    Alcotest.test_case "heuristic tiny optimum" `Quick test_heuristic_tiny_optimum;
    Alcotest.test_case "heuristic fast on AS-3679" `Quick test_heuristic_fast;
    Alcotest.test_case "heuristic infeasible" `Quick test_heuristic_infeasible;
    Alcotest.test_case "selector never worse" `Quick test_selector_never_worse;
  ]

let test_selector_matches_ilp_on_tiny () =
  (* On the analyzable tiny scenario the selector must reach the exact
     integer optimum. *)
  let s = Helpers.tiny_scenario () in
  let ilp = OE.solve ~method_:(OE.Ilp 2000) s in
  let best = ES.solve s in
  Alcotest.(check int) "selector = ILP optimum" (OE.instance_count ilp)
    (OE.instance_count best)

let test_heuristic_min_cores_objective () =
  let s = Helpers.small_scenario () in
  let p = HE.solve ~objective:OE.Min_cores s in
  match OE.check_distribution s p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suite =
  suite
  @ [
      Alcotest.test_case "selector matches ILP on tiny" `Quick
        test_selector_matches_ilp_on_tiny;
      Alcotest.test_case "heuristic min-cores" `Quick test_heuristic_min_cores_objective;
    ]
