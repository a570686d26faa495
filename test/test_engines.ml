(* Tests for the heuristic engine, the engine selector and the online
   placement engine. *)

module C = Apple_core
module OE = C.Optimization_engine
module HE = C.Heuristic_engine
module ES = C.Engine_select
module OL = C.Online_engine
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
          let best, _ = ES.solve ~method_ s in
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

let test_selector_reports_choice () =
  let s = Helpers.small_scenario () in
  let _, choice = ES.solve s in
  (* either is fine; the call must succeed and tag provenance *)
  match choice with ES.Lp_pipeline | ES.Greedy -> ()

(* --- online engine -------------------------------------------------- *)

let online_state () =
  let s = Helpers.small_scenario ~max_classes:20 () in
  let p = ES.solve_best s in
  let asg = C.Subclass.assign s p in
  let state = C.Netstate.of_assignment s asg in
  C.Netstate.recompute_loads state;
  state

let fresh_class (state : C.Netstate.t) ~rate ~chain =
  let s = state.C.Netstate.scenario in
  let id = Array.length s.C.Types.classes in
  let g = s.C.Types.topo.Apple_topology.Builders.graph in
  let src = 0 and dst = Apple_topology.Graph.num_nodes g - 1 in
  let path =
    match Apple_topology.Graph.shortest_path g src dst with
    | Some p -> Array.of_list p
    | None -> Alcotest.fail "disconnected topology"
  in
  {
    C.Types.id;
    src;
    dst;
    path;
    chain = Array.of_list (Nf.chain_of_string chain);
    src_block = C.Scenario.src_block_of_class_id id;
    rate;
  }

let test_online_admit_small () =
  let state = online_state () in
  let before = OL.total_instances state in
  let cls = fresh_class state ~rate:10.0 ~chain:"firewall" in
  let outcome = OL.admit state cls in
  Alcotest.(check bool) "accepted" true outcome.OL.accepted;
  (* 10 Mbps slots into spare capacity when the path crosses an existing
     firewall; at worst it opens a single new instance. *)
  Alcotest.(check bool) "at most one new instance" true
    (OL.total_instances state - before <= 1);
  Alcotest.(check bool) "weights valid" true (C.Netstate.weights_valid state)

let test_online_admit_large_spawns () =
  let state = online_state () in
  let before = OL.total_instances state in
  (* Near the IDS capacity of 600 Mbps, but still single-instance. *)
  let cls = fresh_class state ~rate:550.0 ~chain:"firewall -> ids" in
  let outcome = OL.admit state cls in
  Alcotest.(check bool) "accepted" true outcome.OL.accepted;
  Alcotest.(check bool) "spawned instances for a near-capacity flow" true
    (OL.total_instances state > before);
  (* chain order: the pinned hops must be non-decreasing *)
  match outcome.OL.subclass with
  | None -> Alcotest.fail "expected a sub-class"
  | Some p ->
      let hops = p.C.Netstate.hops in
      for j = 1 to Array.length hops - 1 do
        Alcotest.(check bool) "order" true (hops.(j) >= hops.(j - 1))
      done;
      (* and the pinned instances match the chain kinds *)
      Array.iteri
        (fun j inst ->
          Alcotest.(check bool) "kind matches" true
            (Apple_vnf.Instance.kind inst = cls.C.Types.chain.(j)))
        p.C.Netstate.stage_instances

let test_online_reject_when_starved () =
  let s = Helpers.tiny_scenario () in
  let starved = { s with C.Types.host_cores = Array.make 4 14 } in
  (* tiny budget: the base placement (fw 4 + ids 8 cores at one host = 12)
     fits, but a huge arrival cannot spawn what it needs. *)
  let p = ES.solve_best starved in
  let asg = C.Subclass.assign starved p in
  let state = C.Netstate.of_assignment starved asg in
  C.Netstate.recompute_loads state;
  let before_instances = OL.total_instances state in
  let cls =
    {
      C.Types.id = Array.length starved.C.Types.classes;
      src = 0;
      dst = 3;
      path = [| 0; 1; 2; 3 |];
      chain = [| Nf.Ids; Nf.Ids |];
      (* no IDS pair can fit: 8+8 cores per host exceed what remains *)
      src_block = C.Scenario.src_block_of_class_id 2;
      rate = 5000.0;
    }
  in
  let outcome = OL.admit state cls in
  Alcotest.(check bool) "rejected" false outcome.OL.accepted;
  Alcotest.(check int) "state untouched" before_instances (OL.total_instances state);
  Alcotest.(check int) "scenario untouched" 2
    (Array.length state.C.Netstate.scenario.C.Types.classes)

let test_online_interleaves_with_failover () =
  let state = online_state () in
  let handler = C.Dynamic_handler.create state in
  let cls = fresh_class state ~rate:100.0 ~chain:"nat -> firewall" in
  let outcome = OL.admit state cls in
  Alcotest.(check bool) "accepted" true outcome.OL.accepted;
  (* The handler must keep operating on the extended state. *)
  for _ = 1 to 3 do
    C.Dynamic_handler.step handler
  done;
  Alcotest.(check bool) "weights valid after steps" true
    (C.Netstate.weights_valid state)

let test_online_sequence_fill () =
  (* Admit many flows until a rejection; accepted ones must never break
     capacity. *)
  let state = online_state () in
  let rejected = ref false in
  let i = ref 0 in
  while (not !rejected) && !i < 40 do
    let cls = fresh_class state ~rate:300.0 ~chain:"firewall -> ids" in
    let outcome = OL.admit state cls in
    if not outcome.OL.accepted then rejected := true;
    incr i
  done;
  (* every instance within capacity *)
  List.iter
    (fun inst ->
      Alcotest.(check bool) "within capacity" true
        (Apple_vnf.Instance.offered inst
        <= (Apple_vnf.Instance.spec inst).Nf.capacity_mbps +. 1e-6))
    (C.Resource_orchestrator.instances state.C.Netstate.orchestrator);
  Alcotest.(check bool) "weights valid" true (C.Netstate.weights_valid state)

let suite =
  [
    Alcotest.test_case "heuristic feasible" `Quick test_heuristic_feasible_all_topologies;
    Alcotest.test_case "heuristic tiny optimum" `Quick test_heuristic_tiny_optimum;
    Alcotest.test_case "heuristic fast on AS-3679" `Quick test_heuristic_fast;
    Alcotest.test_case "heuristic infeasible" `Quick test_heuristic_infeasible;
    Alcotest.test_case "selector never worse" `Quick test_selector_never_worse;
    Alcotest.test_case "selector choice" `Quick test_selector_reports_choice;
    Alcotest.test_case "online small flow" `Quick test_online_admit_small;
    Alcotest.test_case "online large flow" `Quick test_online_admit_large_spawns;
    Alcotest.test_case "online rejection" `Quick test_online_reject_when_starved;
    Alcotest.test_case "online + failover" `Quick test_online_interleaves_with_failover;
    Alcotest.test_case "online fill sequence" `Quick test_online_sequence_fill;
  ]

let test_selector_matches_ilp_on_tiny () =
  (* On the analyzable tiny scenario the selector must reach the exact
     integer optimum. *)
  let s = Helpers.tiny_scenario () in
  let ilp = OE.solve ~method_:(OE.Ilp 2000) s in
  let best = ES.solve_best s in
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
