(* Cross-module fuzzing: whole-pipeline invariants under random seeds,
   topologies, policy mixes and traffic dynamics.  `make fuzz` runs each
   property [long_factor] times as many cases (QCHECK_LONG=1). *)

module C = Apple_core
module B = Apple_topology.Builders
module Tr = Apple_traffic
module Rng = Apple_prelude.Rng
module Instance = Apple_vnf.Instance
module Nf = Apple_vnf.Nf

let topo_of = function
  | 0 -> B.internet2 ()
  | 1 -> B.geant ()
  | 2 -> B.univ1 ()
  | _ -> B.linear ~n:6

let build_random seed =
  let named = topo_of (seed mod 4) in
  let rng = Rng.create seed in
  let n = Apple_topology.Graph.num_nodes named.B.graph in
  let total = 1000.0 +. Rng.float rng 6000.0 in
  let tm = Tr.Synth.gravity rng ~n ~total in
  let config =
    { C.Scenario.default_config with C.Scenario.max_classes = 15 + Rng.int rng 25 }
  in
  C.Scenario.build ~config ~seed named tm

(* End-to-end pipeline: every random scenario must pass the static
   verifier gate, as every installed configuration does, and then the
   controller's own packet-walk check. *)
let prop_pipeline_verifies =
  QCheck.Test.make ~name:"pipeline verifies on random scenarios" ~count:10
    ~long_factor:50
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let s = build_random seed in
      let controller = C.Controller.create ~gate:Apple_verify.Verify.gate s in
      match C.Controller.run_epoch controller with
      | exception C.Optimization_engine.Infeasible _ -> true (* acceptable *)
      | exception C.Controller.Rejected msg ->
          QCheck.Test.fail_reportf "verifier gate rejected: %s" msg
      | _ -> (
          match C.Controller.verify controller with
          | Ok () -> true
          | Error m -> QCheck.Test.fail_reportf "verify: %s" m))

(* Dynamic handler: under arbitrary rate trajectories the sub-class
   weights stay a valid distribution and extra cores return to zero when
   rates return to base. *)
let prop_failover_invariants =
  QCheck.Test.make ~name:"failover invariants under random rate swings"
    ~count:8 ~long_factor:25
    QCheck.(pair (int_range 0 10_000) (list_of_size (Gen.int_range 3 8) (float_range 0.5 12.0)))
    (fun (seed, swings) ->
      let s = build_random seed in
      match C.Engine_select.solve s with
      | exception C.Optimization_engine.Infeasible _ -> true
      | p ->
          let asg = C.Subclass.assign s p in
          let state = C.Netstate.of_assignment s asg in
          let handler = C.Dynamic_handler.create state in
          let base = Array.map (fun c -> c.C.Types.rate) s.C.Types.classes in
          let rng = Rng.create (seed + 1) in
          let ok = ref true in
          List.iter
            (fun factor ->
              (* random class gets the swing *)
              let h = Rng.int rng (Array.length s.C.Types.classes) in
              s.C.Types.classes.(h).C.Types.rate <- base.(h) *. factor;
              C.Dynamic_handler.step handler;
              if not (C.Netstate.weights_valid state) then ok := false;
              let loss = C.Netstate.network_loss state in
              if loss < 0.0 || loss > 1.0 then ok := false)
            swings;
          (* restore all rates; after a few rounds the episodes unwind *)
          Array.iteri (fun h r -> s.C.Types.classes.(h).C.Types.rate <- r) base;
          for _ = 1 to 4 do
            C.Dynamic_handler.step handler
          done;
          if C.Netstate.extra_cores state <> 0 then ok := false;
          if not (C.Netstate.weights_valid state) then ok := false;
          !ok)

(* [Dynamic_handler.step] leaves the loads current: after every step
   over a random rate trajectory, each instance's offered load equals
   what a fresh [Netstate.recompute_loads] gives, bit for bit — also
   after the steps that move no weight and so skip their recompute. *)
let prop_step_loads_current =
  QCheck.Test.make ~name:"loads after each failover step equal a recompute"
    ~count:8 ~long_factor:25
    QCheck.(
      pair (int_range 0 10_000)
        (list_of_size (Gen.int_range 3 12) (float_range 0.2 12.0)))
    (fun (seed, swings) ->
      let s = build_random seed in
      match C.Engine_select.solve s with
      | exception C.Optimization_engine.Infeasible _ -> true
      | p ->
          let state = C.Netstate.of_assignment s (C.Subclass.assign s p) in
          let handler = C.Dynamic_handler.create state in
          C.Netstate.recompute_loads state;
          let base = Array.map (fun c -> c.C.Types.rate) s.C.Types.classes in
          let rng = Rng.create (seed + 1) in
          (* Every instance a recompute touches, with its load's bits. *)
          let loads () =
            let pinned =
              Array.to_list state.C.Netstate.per_class
              |> List.concat_map (fun subs ->
                     List.concat_map
                       (fun q -> Array.to_list q.C.Netstate.stage_instances)
                       subs)
            in
            List.map
              (fun i -> (Instance.id i, Int64.bits_of_float (Instance.offered i)))
              (C.Resource_orchestrator.instances state.C.Netstate.orchestrator
              @ pinned)
          in
          List.for_all
            (fun factor ->
              (* A swing, or a quiet step with the rates left alone. *)
              if factor > 1.0 then begin
                let h = Rng.int rng (Array.length s.C.Types.classes) in
                s.C.Types.classes.(h).C.Types.rate <- base.(h) *. factor
              end;
              C.Dynamic_handler.step handler;
              let after = loads () in
              C.Netstate.recompute_loads state;
              List.equal
                (fun (a, x) (b, y) -> a = b && Int64.equal x y)
                after (loads ()))
            swings)

(* Walks: every sub-class of every random scenario traverses its chain in
   order on its own path — with a witness packet from every prefix of the
   sub-class, not just the first. *)
let prop_every_prefix_walks =
  QCheck.Test.make ~name:"every classification prefix routes correctly"
    ~count:6 ~long_factor:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let s = build_random seed in
      match C.Engine_select.solve s with
      | exception C.Optimization_engine.Infeasible _ -> true
      | p ->
          let asg = C.Subclass.assign s p in
          let built = C.Rule_generator.build s asg in
          let inst_kind = Hashtbl.create 64 in
          List.iter
            (fun i -> Hashtbl.replace inst_kind (Instance.id i) (Instance.kind i))
            asg.C.Subclass.instances;
          let rewriters i =
            match Hashtbl.find_opt inst_kind i with
            | Some k -> Nf.rewrites_header k
            | None -> false
          in
          let ok = ref true in
          Array.iter
            (fun c ->
              let subs = Helpers.subclasses_of asg c.C.Types.id in
              let prefixes =
                C.Rule_generator.subclass_prefixes c subs
                  ~depth:built.C.Rule_generator.split_depth
              in
              List.iteri
                (fun idx _ ->
                  List.iter
                    (fun (pfx : C.Types.Prefix.prefix) ->
                      let path = Array.to_list c.C.Types.path in
                      (* last address of the block, not just the first *)
                      let last =
                        pfx.C.Types.Prefix.addr + (1 lsl (32 - pfx.C.Types.Prefix.len)) - 1
                      in
                      List.iter
                        (fun src_ip ->
                          match
                            Apple_dataplane.Walk.run
                              built.C.Rule_generator.network ~path
                              ~cls:c.C.Types.id ~src_ip ~rewriters ()
                          with
                          | Error _ -> ok := false
                          | Ok trace ->
                              if
                                not
                                  (Apple_dataplane.Walk.policy_enforced trace
                                     ~instance_kind:(Hashtbl.find inst_kind)
                                     ~chain:(Array.to_list c.C.Types.chain))
                              then ok := false;
                              if
                                not
                                  (Apple_dataplane.Walk.interference_free trace
                                     ~path)
                              then ok := false)
                        [ pfx.C.Types.Prefix.addr; last ])
                    prefixes.(idx))
                subs)
            s.C.Types.classes;
          !ok)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pipeline_verifies;
    QCheck_alcotest.to_alcotest prop_failover_invariants;
    QCheck_alcotest.to_alcotest prop_step_loads_current;
    QCheck_alcotest.to_alcotest prop_every_prefix_walks;
  ]
