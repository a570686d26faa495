(* The domain pool's determinism contract, end to end: pool-level unit
   tests, then the guarantee the engines advertise — placements and rule
   tables are byte-identical for every jobs value.  The default race
   ({!Engine_select.solve}) reaches the pool through its greedy half. *)

module Pool = Apple_parallel.Pool
module C = Apple_core
module OE = C.Optimization_engine
module HE = C.Heuristic_engine
module ES = C.Engine_select
module B = Apple_topology.Builders

(* --- pool unit tests ------------------------------------------------ *)

let test_pool_map_matches_sequential () =
  let n = 10_000 in
  let f i = (i * 7919) mod 104729 in
  let expected = Array.init n f in
  let pool = Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check (array int)) "10k map" expected (Pool.map_range pool ~n ~f);
      (* Same pool again: posting a second job must work. *)
      Alcotest.(check (array int)) "reused pool" expected
        (Pool.map_range pool ~n ~f))

let test_pool_jobs1_inline () =
  let pool = Pool.create ~jobs:1 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check (array int)) "jobs=1" [| 0; 2; 4 |]
        (Pool.map pool (fun x -> 2 * x) [| 0; 1; 2 |]))

exception Boom of int

let test_pool_exception_propagates () =
  let pool = Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let raised =
        try
          ignore (Pool.map_range pool ~n:1000 ~f:(fun i ->
              if i = 637 then raise (Boom i) else i));
          false
        with Boom _ -> true
      in
      Alcotest.(check bool) "exception surfaced" true raised;
      (* The failed job must have drained completely: the pool stays
         usable. *)
      let expected = Array.init 1000 (fun i -> i + 1) in
      Alcotest.(check (array int)) "pool usable after error" expected
        (Pool.map_range pool ~n:1000 ~f:(fun i -> i + 1)))

let test_pool_shutdown_degrades () =
  let pool = Pool.create ~jobs:4 in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.(check (array int)) "sequential after shutdown" [| 1; 2; 3 |]
    (Pool.map pool (fun x -> x + 1) [| 0; 1; 2 |])

(* --- engine determinism across jobs --------------------------------- *)

let placements_equal (a : OE.placement) (b : OE.placement) =
  a.OE.counts = b.OE.counts && a.OE.distribution = b.OE.distribution

let test_race_jobs_determinism () =
  let s = Helpers.small_scenario ~max_classes:60 () in
  let solve jobs = ES.solve ~jobs s in
  let p1 = solve 1 and p2 = solve 2 and p4 = solve 4 in
  Alcotest.(check bool) "jobs=1 = jobs=2" true (placements_equal p1 p2);
  Alcotest.(check bool) "jobs=1 = jobs=4" true (placements_equal p1 p4);
  match OE.check_distribution s p1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let rule_tables network =
  Array.map Apple_dataplane.Tcam.phys_rules network

let test_race_rules_identical_all_topologies () =
  List.iter
    (fun named ->
      let s = Helpers.small_scenario ~named ~max_classes:40 () in
      let p1 = ES.solve ~jobs:1 s in
      let p4 = ES.solve ~jobs:4 s in
      let label = s.C.Types.topo.B.label in
      Alcotest.(check bool) (label ^ ": placements identical") true
        (placements_equal p1 p4);
      (* And all the way down: the generated switch tables coincide. *)
      let built jobs_placement =
        let asg = C.Subclass.assign s jobs_placement in
        (C.Rule_generator.build s asg).C.Rule_generator.network
      in
      Alcotest.(check bool) (label ^ ": rule tables identical") true
        (rule_tables (built p1) = rule_tables (built p4)))
    [ B.geant (); B.univ1 () ]

let test_metrics_do_not_change_engine_output () =
  (* Telemetry is a side channel: enabling it must leave the engine's
     output untouched, at every jobs value.  Baseline with metrics off,
     then identical solves with metrics on at jobs 1 and 4.  The race
     runs the LP pipeline, so the LP counters have solves to observe. *)
  let module T = Apple_telemetry.Telemetry in
  let s = Helpers.small_scenario ~max_classes:60 () in
  let solve jobs = ES.solve ~method_:OE.Lp_round ~jobs s in
  let baseline = solve 4 in
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    (fun () ->
      T.set_enabled true;
      let m1 = solve 1 and m4 = solve 4 in
      Alcotest.(check bool) "metrics on, jobs=1 = baseline" true
        (placements_equal baseline m1);
      Alcotest.(check bool) "metrics on, jobs=4 = baseline" true
        (placements_equal baseline m4);
      (* And the instrumentation actually observed the solves. *)
      Alcotest.(check bool) "lp solves counted" true
        (T.Counter.value (T.Counter.create "apple.lp.solves") > 0))

let test_heuristic_jobs_determinism () =
  let s = Helpers.small_scenario ~max_classes:60 () in
  let p1 = HE.solve ~jobs:1 s in
  let p4 = HE.solve ~jobs:4 s in
  Alcotest.(check bool) "greedy jobs=1 = jobs=4" true (placements_equal p1 p4)

(* --- packet walks over a parallel-produced placement ----------------- *)

let test_walk_geant_race_placement () =
  (* Solve GEANT with the race at jobs=4, realize sub-classes and rules,
     then packet-walk every sub-class: the chain must be enforced in
     order and the forwarding path must be exactly the routing path. *)
  let s = Helpers.small_scenario ~named:(B.geant ()) ~max_classes:40 () in
  let p = ES.solve ~jobs:4 s in
  (match OE.check_distribution s p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let asg = C.Subclass.assign s p in
  let built = C.Rule_generator.build s asg in
  let inst_kind = Hashtbl.create 64 in
  List.iter
    (fun i ->
      Hashtbl.replace inst_kind (Apple_vnf.Instance.id i)
        (Apple_vnf.Instance.kind i))
    asg.C.Subclass.instances;
  let walked = ref 0 in
  Array.iter
    (fun c ->
      let subs = Helpers.subclasses_of asg c.C.Types.id in
      let prefixes =
        C.Rule_generator.subclass_prefixes c subs
          ~depth:built.C.Rule_generator.split_depth
      in
      List.iteri
        (fun idx _ ->
          match prefixes.(idx) with
          | [] -> ()
          | pfx :: _ -> (
              incr walked;
              let path = Array.to_list c.C.Types.path in
              match
                Apple_dataplane.Walk.run built.C.Rule_generator.network ~path
                  ~cls:c.C.Types.id ~src_ip:pfx.C.Types.Prefix.addr ()
              with
              | Error e ->
                  Alcotest.fail
                    (Format.asprintf "class %d: %a" c.C.Types.id
                       Apple_dataplane.Walk.pp_error e)
              | Ok trace ->
                  Alcotest.(check bool)
                    (Printf.sprintf "class %d policy enforced" c.C.Types.id)
                    true
                    (Apple_dataplane.Walk.policy_enforced trace
                       ~instance_kind:(Hashtbl.find inst_kind)
                       ~chain:(Array.to_list c.C.Types.chain));
                  Alcotest.(check bool)
                    (Printf.sprintf "class %d path unchanged" c.C.Types.id)
                    true
                    (Apple_dataplane.Walk.interference_free trace ~path)))
        subs)
    s.C.Types.classes;
  Alcotest.(check bool) "walked at least one sub-class per class" true
    (!walked >= Array.length s.C.Types.classes)

let suite =
  [
    Alcotest.test_case "pool: 10k map = sequential" `Quick
      test_pool_map_matches_sequential;
    Alcotest.test_case "pool: jobs=1 runs inline" `Quick test_pool_jobs1_inline;
    Alcotest.test_case "pool: exceptions propagate, pool survives" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool: shutdown degrades to sequential" `Quick
      test_pool_shutdown_degrades;
    Alcotest.test_case "per-class placement identical for jobs 1/2/4" `Quick
      test_race_jobs_determinism;
    Alcotest.test_case "per-class rule tables identical (GEANT, UNIV1)" `Slow
      test_race_rules_identical_all_topologies;
    Alcotest.test_case "greedy identical across jobs" `Quick
      test_heuristic_jobs_determinism;
    Alcotest.test_case "metrics collection never changes engine output" `Quick
      test_metrics_do_not_change_engine_output;
    Alcotest.test_case "walks hold on a parallel GEANT placement" `Slow
      test_walk_geant_race_placement;
  ]
