(* Chaos engine: schedule language, fault-mask semantics, backoff,
   repair/heal end-to-end, and the determinism + monotonicity
   properties. *)

module C = Apple_core
module Ch = Apple_chaos
module B = Apple_topology.Builders
module Rng = Apple_prelude.Rng
module Instance = Apple_vnf.Instance
module Lifecycle = Apple_vnf.Lifecycle
module Failmask = Apple_dataplane.Failmask
module Walk = Apple_dataplane.Walk
module Obs = Apple_obs.Counters
module Flight = Apple_obs.Flight
module V = Apple_verify.Verify
module T = Apple_telemetry.Telemetry

let check = Alcotest.check
let fail = Alcotest.fail

(* ---- schedule language ------------------------------------------- *)

let drill_text =
  "# drill\n\
   at 0.5 kill-instance hottest\n\
   at 0.8 link-down busiest\n\
   at 1.6 link-up busiest\n\
   at 2.0 switch-crash 3\n\
   at 2.8 switch-restart 3\n\
   at 3.2 tcam-loss busiest 0.3\n\
   at 3.6 poller-blackout 0.4\n"

let parse_ok text =
  match Ch.Fault.parse text with
  | Ok s -> s
  | Error m -> fail ("parse failed: " ^ m)

let test_parse_roundtrip () =
  let s = parse_ok drill_text in
  check Alcotest.int "events" 7 (List.length s);
  let printed = Ch.Fault.to_string s in
  let s2 = parse_ok printed in
  check Alcotest.string "roundtrip" printed (Ch.Fault.to_string s2)

let test_parse_matches_example () =
  (* The example file and the goldens drill must not drift apart.
     dune runtest runs from the test dir; dune exec from the root. *)
  let path =
    List.find Sys.file_exists
      [ "../examples/chaos_internet2.sched"; "examples/chaos_internet2.sched" ]
  in
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let from_file = parse_ok text in
  check Alcotest.string "example file = goldens drill"
    (Ch.Fault.to_string Ch.Goldens.drill_schedule)
    (Ch.Fault.to_string from_file)

let test_parse_rejects () =
  let expect_line_error text =
    match Ch.Fault.parse text with
    | Error m ->
        check Alcotest.bool "line numbered" true
          (String.length m >= 6 && String.sub m 0 6 = "line 1")
    | Ok _ -> fail (text ^ " accepted")
  in
  expect_line_error "at x kill-instance hottest";
  (* Non-finite numbers: an infinite time would never end the run, a
     NaN time would fire at t=0, an infinite blackout would never lift. *)
  expect_line_error "at inf kill-instance hottest";
  expect_line_error "at nan kill-instance hottest";
  expect_line_error "at 1.0 poller-blackout inf";
  (match Ch.Fault.parse "at 1.0 link-up 2-3" with
  | Error _ -> ()
  | Ok _ -> fail "unpaired link-up accepted");
  (match Ch.Fault.parse "at 1.0 tcam-loss 3 1.5" with
  | Error _ -> ()
  | Ok _ -> fail "probability 1.5 accepted");
  (match Ch.Fault.parse "at 1.0 kill-instance busiest" with
  | Error _ -> ()
  | Ok _ -> fail "kill busiest accepted");
  (match Ch.Fault.parse "at 1.0 frobnicate 3" with
  | Error _ -> ()
  | Ok _ -> fail "unknown kind accepted");
  (* The checks run on the time-sorted schedule, but name the line an
     event came from, not its place in time order. *)
  let expect_error text want =
    match Ch.Fault.parse text with
    | Error m -> check Alcotest.string (String.escaped text) want m
    | Ok _ -> fail (text ^ " accepted")
  in
  expect_error "at 20 link-down busiest\nat 10 link-up busiest\n"
    "line 2: link-up busiest before its link-down";
  expect_error "# drill\nat 5 tcam-loss busiest 1.5\n"
    "line 2: loss probability 1.5 outside (0, 1]";
  expect_error "at 5 kill-instance hottest\n\nat -1 kill-instance hottest\n"
    "line 3: negative time";
  expect_error "# blind\nat 1 poller-blackout 0\n"
    "line 2: blackout duration 0 not positive and finite";
  expect_error "at 9 switch-crash 4\nat 3 switch-restart 4\n"
    "line 2: switch-restart 4 before its switch-crash";
  expect_error "at 1 link-down 2-3\n# busy\nat 2 kill-instance busiest\n"
    "line 3: target not legal for kill-instance"

let test_add_keeps_order () =
  let s =
    List.fold_left
      (fun s (at, f) -> Ch.Fault.add s ~at f)
      Ch.Fault.empty
      [
        (2.0, Ch.Fault.Poller_blackout 0.1);
        (0.5, Ch.Fault.Kill_instance Ch.Fault.Hottest);
        (2.0, Ch.Fault.Poller_blackout 0.2);
        (1.0, Ch.Fault.Kill_instance (Ch.Fault.Id 3));
      ]
  in
  let times = List.map (fun e -> e.Ch.Fault.at) s in
  check (Alcotest.list (Alcotest.float 1e-9)) "sorted" [ 0.5; 1.0; 2.0; 2.0 ]
    times;
  (* Stable: the 0.1 blackout was added before the 0.2 one. *)
  (match List.filter_map (function
           | { Ch.Fault.fault = Ch.Fault.Poller_blackout d; _ } -> Some d
           | _ -> None)
           s
   with
  | [ a; b ] ->
      check (Alcotest.float 1e-9) "stable first" 0.1 a;
      check (Alcotest.float 1e-9) "stable second" 0.2 b
  | _ -> fail "expected two blackouts");
  match Ch.Fault.validate s with
  | Ok () -> ()
  | Error m -> fail ("valid schedule rejected: " ^ m)

let test_validate_rejects () =
  let one at f = Ch.Fault.add Ch.Fault.empty ~at f in
  let expect_invalid label s =
    match Ch.Fault.validate s with
    | Error _ -> ()
    | Ok () -> fail (label ^ " accepted")
  in
  expect_invalid "negative time" (one (-1.0) (Ch.Fault.Poller_blackout 0.1));
  expect_invalid "hottest link"
    (one 1.0 (Ch.Fault.Link_down Ch.Fault.Hottest));
  expect_invalid "pair switch"
    (one 1.0 (Ch.Fault.Switch_crash (Ch.Fault.Pair (1, 2))));
  expect_invalid "restart before crash"
    (one 1.0 (Ch.Fault.Switch_restart (Ch.Fault.Id 4)));
  (* A schedule built in code has no lines: errors name the event. *)
  check
    Alcotest.(result unit string)
    "event named" (Error "event 0 (at 1): switch-restart 4 before its switch-crash")
    (Ch.Fault.validate (one 1.0 (Ch.Fault.Switch_restart (Ch.Fault.Id 4))));
  expect_invalid "zero blackout" (one 1.0 (Ch.Fault.Poller_blackout 0.0));
  expect_invalid "infinite time"
    (one Float.infinity (Ch.Fault.Kill_instance Ch.Fault.Hottest));
  expect_invalid "NaN time" (one Float.nan (Ch.Fault.Kill_instance Ch.Fault.Hottest));
  expect_invalid "infinite blackout" (one 1.0 (Ch.Fault.Poller_blackout Float.infinity))

(* ---- fault-mask semantics (Walk + Blackhole flight pinning) ------- *)

(* One installed epoch on the tiny 4-node line: rules, class path and a
   representative source address per class. *)
let tiny_epoch () =
  let s = Helpers.tiny_scenario () in
  let controller = C.Controller.create ~gate:V.gate s in
  let report = C.Controller.run_epoch controller in
  (s, controller, report)

let walk_with_mask ~mask ~flow (s : C.Types.scenario) report =
  let c = s.C.Types.classes.(0) in
  Walk.run report.C.Controller.rules.C.Rule_generator.network
    ~path:(Array.to_list c.C.Types.path)
    ~cls:c.C.Types.id
    ~src_ip:c.C.Types.src_block.C.Types.Prefix.addr
    ~flow ~mask ()

let last_blackhole () =
  match
    List.rev
      (List.filter
         (fun e -> e.Flight.kind = Flight.Blackhole)
         (Flight.events ()))
  with
  | e :: _ -> e
  | [] -> fail "no Blackhole flight event recorded"

let with_flight f =
  Obs.set_enabled true;
  Flight.clear ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let test_walk_mask_faults () =
  let s, _controller, report = tiny_epoch () in
  let c = s.C.Types.classes.(0) in
  let path = c.C.Types.path in
  (* Clear mask: the walk succeeds. *)
  let mask = Failmask.create () in
  (match walk_with_mask ~mask ~flow:9 s report with
  | Ok _ -> ()
  | Error e -> fail (Format.asprintf "clear mask walk failed: %a" Walk.pp_error e));
  (* Dead link between the first two hops: Link_dead, reason 0, pinned
     to the upstream switch with the peer as detail. *)
  with_flight (fun () ->
      Failmask.fail_link mask path.(0) path.(1);
      (match walk_with_mask ~mask ~flow:9 s report with
      | Error (Walk.Link_dead { from; to_ }) ->
          check Alcotest.int "link from" path.(0) from;
          check Alcotest.int "link to" path.(1) to_
      | Ok _ -> fail "walk crossed a dead link"
      | Error e -> fail (Format.asprintf "wrong error: %a" Walk.pp_error e));
      let e = last_blackhole () in
      check Alcotest.int "flow" 9 e.Flight.a;
      check Alcotest.int "switch" path.(0) e.Flight.b;
      check Alcotest.int "peer" path.(1) e.Flight.c;
      check Alcotest.int "reason link" 0 e.Flight.d);
  Failmask.restore_link mask path.(0) path.(1);
  (* Crashed switch: Switch_dead, reason 1. *)
  with_flight (fun () ->
      Failmask.fail_switch mask path.(1);
      (match walk_with_mask ~mask ~flow:10 s report with
      | Error (Walk.Switch_dead sw) -> check Alcotest.int "dead switch" path.(1) sw
      | Ok _ -> fail "walk crossed a dead switch"
      | Error e -> fail (Format.asprintf "wrong error: %a" Walk.pp_error e));
      let e = last_blackhole () in
      check Alcotest.int "switch" path.(1) e.Flight.b;
      check Alcotest.int "reason switch" 1 e.Flight.d);
  Failmask.restore_switch mask path.(1);
  (* Dead instance: Instance_dead, reason 2, instance id as detail. *)
  with_flight (fun () ->
      match walk_with_mask ~mask ~flow:11 s report with
      | Ok trace ->
          let id =
            match trace.Walk.instances with
            | i :: _ -> i
            | [] -> fail "walk visited no instance"
          in
          Failmask.fail_instance mask id;
          (match walk_with_mask ~mask ~flow:11 s report with
          | Error (Walk.Instance_dead { instance; _ }) ->
              check Alcotest.int "dead instance" id instance
          | Ok _ -> fail "walk used a dead instance"
          | Error e -> fail (Format.asprintf "wrong error: %a" Walk.pp_error e));
          let e = last_blackhole () in
          check Alcotest.int "instance detail" id e.Flight.c;
          check Alcotest.int "reason instance" 2 e.Flight.d;
          Failmask.restore_instance mask id
      | Error e -> fail (Format.asprintf "setup walk failed: %a" Walk.pp_error e))

let test_walk_error_codes () =
  check Alcotest.int "link code" 5
    (Walk.error_code (Walk.Link_dead { from = 1; to_ = 2 }));
  check Alcotest.int "switch code" 6 (Walk.error_code (Walk.Switch_dead 3));
  check Alcotest.int "instance code" 7
    (Walk.error_code (Walk.Instance_dead { switch = 1; instance = 4 }))

(* ---- backoff ------------------------------------------------------ *)

let test_backoff_capping () =
  let policy =
    { C.Resource_orchestrator.base = 0.5; factor = 2.0; cap = 8.0 }
  in
  let delay a = C.Resource_orchestrator.backoff_delay ~policy ~attempt:a () in
  check (Alcotest.float 1e-9) "attempt 0" 0.5 (delay 0);
  check (Alcotest.float 1e-9) "attempt 1" 1.0 (delay 1);
  check (Alcotest.float 1e-9) "attempt 3" 4.0 (delay 3);
  check (Alcotest.float 1e-9) "attempt 4 caps" 8.0 (delay 4);
  check (Alcotest.float 1e-9) "attempt 10 caps" 8.0 (delay 10);
  (* Monotone in the attempt number. *)
  for a = 0 to 9 do
    if delay (a + 1) < delay a -. 1e-12 then fail "backoff not monotone"
  done;
  match C.Resource_orchestrator.backoff_delay ~attempt:(-1) () with
  | exception Invalid_argument _ -> ()
  | _ -> fail "negative attempt accepted"

let test_respawn_blackout () =
  let runs =
    C.Prototype.respawn_blackout ~boot:Lifecycle.Raw_clickos ~seed:3
      ~attempts:6 ()
  in
  check Alcotest.int "runs" 6 (List.length runs);
  List.iter
    (fun r ->
      let expected =
        C.Resource_orchestrator.backoff_delay ~attempt:r.C.Prototype.attempt ()
      in
      check (Alcotest.float 1e-9) "backoff component" expected
        r.C.Prototype.backoff_s;
      check (Alcotest.float 1e-6) "blackout = backoff + boot + rules"
        (expected +. Lifecycle.raw_clickos_boot +. Lifecycle.rule_install_time)
        r.C.Prototype.blackout_s)
    runs

(* ---- end-to-end: kill the hottest instance mid-epoch -------------- *)

let hottest (state : C.Netstate.t) =
  C.Netstate.recompute_loads state;
  match
    List.sort
      (fun a b ->
        match Float.compare (Instance.offered b) (Instance.offered a) with
        | 0 -> Int.compare (Instance.id a) (Instance.id b)
        | c -> c)
      (C.Netstate.instances_in_use state)
  with
  | i :: _ -> i
  | [] -> fail "no instances in use"

let kill_heal_e2e named () =
  let s = Ch.Experiments.scenario_for Ch.Experiments.default_opts named in
  let controller = C.Controller.create ~gate:V.gate s in
  ignore (C.Controller.run_epoch controller);
  let state = Option.get (C.Controller.netstate controller) in
  let handler = Option.get (C.Controller.handler controller) in
  let dead = hottest state in
  Failmask.fail_instance state.C.Netstate.mask (Instance.id dead);
  ignore (C.Dynamic_handler.repair handler ~dead);
  check Alcotest.int "one open repair" 1
    (List.length (C.Dynamic_handler.pending_repairs handler));
  (* Mid-repair the stranded weight is visibly blackholed, never
     silently rerouted. *)
  if C.Netstate.blackholed_rate state < 0.0 then fail "negative blackhole";
  (* Respawn instantly (no world) and heal. *)
  let replacement =
    C.Resource_orchestrator.respawn state.C.Netstate.orchestrator dead
  in
  C.Controller.heal_instance controller ~dead ~replacement;
  check Alcotest.int "no open repairs" 0
    (List.length (C.Dynamic_handler.pending_repairs handler));
  check Alcotest.bool "mask clear" true (Failmask.is_clear state.C.Netstate.mask);
  (* Healed tables pass the static verifier gate... *)
  (match C.Controller.recheck_gate controller with
  | Ok () -> ()
  | Error m -> fail ("healed epoch rejected: " ^ m));
  (* ...and the packet walks prove no flow skips a chain stage on its
     (unchanged) path. *)
  match C.Controller.verify controller with
  | Ok () -> ()
  | Error m -> fail ("healed walks failed: " ^ m)

(* ---- determinism + monotonicity properties ------------------------ *)

let kill_schedule =
  Ch.Fault.add Ch.Fault.empty ~at:0.4 (Ch.Fault.Kill_instance Ch.Fault.Hottest)

let chaos_scenario named seed =
  Ch.Experiments.scenario_for { Ch.Experiments.default_opts with seed } named

let run_render ?jobs ?boot seed named =
  let config =
    {
      Ch.Chaos.default_config with
      Ch.Chaos.jobs;
      boot = Some (Option.value ~default:Lifecycle.Raw_clickos boot);
    }
  in
  Ch.Chaos.render
    (Ch.Chaos.run ~config ~seed ~schedule:Ch.Goldens.drill_schedule
       (chaos_scenario named seed))

let prop_deterministic =
  QCheck.Test.make ~name:"chaos run byte-identical across repeats and jobs"
    ~count:2
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let named = B.internet2 () in
      let a = run_render seed named in
      let b = run_render seed named in
      let c = run_render ~jobs:1 seed named in
      let d = run_render ~jobs:3 seed named in
      String.equal a b && String.equal a c && String.equal a d)

(* Forwarding paths of flows untouched by the fault survive the
   repair/heal cycle byte-for-byte (rules and instances).  Prefixes are
   positional within the class's sibling list, so compute them per class
   and key each itinerary by (class, sub). *)
let itineraries (s : C.Types.scenario) (asg : C.Subclass.assignment) report =
  let acc = ref [] in
  Array.iter
    (fun (c : C.Types.flow_class) ->
      let subs = Helpers.subclasses_of asg c.C.Types.id in
      if subs <> [] then begin
        let prefixes =
          C.Rule_generator.subclass_prefixes c subs
            ~depth:report.C.Controller.rules.C.Rule_generator.split_depth
        in
        List.iteri
          (fun idx (sub : C.Subclass.subclass) ->
            match prefixes.(idx) with
            | [] -> ()
            | p :: _ -> (
                match
                  Walk.run report.C.Controller.rules.C.Rule_generator.network
                    ~path:(Array.to_list c.C.Types.path)
                    ~cls:c.C.Types.id ~src_ip:p.C.Types.Prefix.addr ()
                with
                | Ok t ->
                    acc :=
                      ( (sub.C.Subclass.class_id, sub.C.Subclass.sub_id),
                        (t.Walk.visited, t.Walk.instances) )
                      :: !acc
                | Error e ->
                    fail (Format.asprintf "walk failed: %a" Walk.pp_error e)))
          subs
      end)
    s.C.Types.classes;
  List.rev !acc

let prop_unaffected_paths_stable =
  QCheck.Test.make
    ~name:"healing never reroutes flows the fault did not touch" ~count:2
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let s = chaos_scenario (B.internet2 ()) seed in
      let controller = C.Controller.create ~gate:V.gate s in
      let report = C.Controller.run_epoch controller in
      let state = Option.get (C.Controller.netstate controller) in
      let handler = Option.get (C.Controller.handler controller) in
      let asg = Option.get (C.Controller.assignment controller) in
      let dead = hottest state in
      let dead_id = Instance.id dead in
      let untouched sub =
        Array.for_all
          (function
            | Some inst -> Instance.id inst <> dead_id
            | None -> true)
          (C.Subclass.pinned asg sub)
      in
      let untouched_keys =
        List.filter_map
          (fun sub ->
            if untouched sub then
              Some (sub.C.Subclass.class_id, sub.C.Subclass.sub_id)
            else None)
          asg.C.Subclass.subclasses
      in
      let before = itineraries s asg report in
      Failmask.fail_instance state.C.Netstate.mask dead_id;
      ignore (C.Dynamic_handler.repair handler ~dead);
      let replacement =
        C.Resource_orchestrator.respawn state.C.Netstate.orchestrator dead
      in
      C.Controller.heal_instance controller ~dead ~replacement;
      let asg' = Option.get (C.Controller.assignment controller) in
      let report' = Option.get (C.Controller.last_report controller) in
      let after = itineraries s asg' report' in
      untouched_keys <> []
      && List.for_all
           (fun key ->
             match (List.assoc_opt key before, List.assoc_opt key after) with
             | Some (rules_b, insts_b), Some (rules_a, insts_a) ->
                 rules_b = rules_a && insts_b = insts_a
             | _ -> false)
           untouched_keys)

let recovery_of outcome =
  match outcome.Ch.Chaos.faults with
  | [ f ] -> (
      match f.Ch.Chaos.o_recovery with
      | Some r -> r
      | None -> fail "fault never healed")
  | _ -> fail "expected exactly one fault"

let prop_recovery_monotone_in_boot =
  QCheck.Test.make ~name:"recovery time monotone in VM boot delay" ~count:2
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let named = B.internet2 () in
      let s = chaos_scenario named seed in
      let run boot =
        let config =
          { Ch.Chaos.default_config with Ch.Chaos.boot = Some boot }
        in
        recovery_of (Ch.Chaos.run ~config ~seed ~schedule:kill_schedule s)
      in
      let clickos = run Lifecycle.Raw_clickos in
      let openstack = run Lifecycle.Openstack in
      let normal = run Lifecycle.Normal_vm in
      clickos <= openstack +. 1e-9 && openstack <= normal +. 1e-9)

(* ---- one fault semantics in both harnesses ------------------------ *)

(* The busiest link fails symbolically, then again by name; the named
   link-up closes both faults, so the closing symbolic link-up finds
   nothing open.  Internet2's busiest link is 4-5 in both harnesses'
   scenarios at seed 7. *)
let test_double_fault_one_semantics () =
  let sched times =
    parse_ok
      (String.concat ""
         (List.map2
            (Printf.sprintf "at %s %s\n")
            times
            [
              "link-down busiest";
              "link-down 4-5";
              "link-up 4-5";
              "link-up busiest";
            ]))
  in
  (* The gate certifies the first epoch, then re-checks once per heal
     event: the named link-up heals both faults with one check. *)
  let certified = T.Counter.create "apple.verify.certified" in
  let o =
    Fun.protect
      ~finally:(fun () ->
        T.set_enabled false;
        T.reset ())
      (fun () ->
        T.reset ();
        T.set_enabled true;
        let o =
          Ch.Chaos.run ~seed:7
            ~schedule:(sched [ "0.5"; "1.0"; "1.5"; "2.0" ])
            (chaos_scenario (B.internet2 ()) 7)
        in
        check Alcotest.int "one gate re-check for the heal event" 2
          (T.Counter.value certified);
        o)
  in
  check
    Alcotest.(list string)
    "both faults on 4-5"
    [ "link-down 4-5"; "link-down 4-5" ]
    (List.map (fun f -> f.Ch.Chaos.o_label) o.Ch.Chaos.faults);
  check
    Alcotest.(list (option (float 1e-9)))
    "the named link-up heals both" [ Some 1.0; Some 0.5 ]
    (List.map (fun f -> f.Ch.Chaos.o_recovery) o.Ch.Chaos.faults);
  check Alcotest.int "both heals verified" 2 o.Ch.Chaos.heals_ok;
  check Alcotest.int "no heal rejected" 0 o.Ch.Chaos.heals_rejected;
  let logged line =
    List.length
      (List.filter (String.ends_with ~suffix:line) o.Ch.Chaos.log)
  in
  check Alcotest.int "the link is restored once" 1 (logged "] link-up 4-5");
  check Alcotest.int "the symbolic link-up is ignored" 1
    (logged "] link-up: nothing to heal; ignored");
  let soak =
    {
      (Apple_soak.Soak.default_config (B.internet2 ())) with
      Apple_soak.Soak.seed = 7;
      epochs = 40;
      reopt_every = 12;
      cycle = 24;
      total_rate = 2500.0;
      max_classes = 10;
      schedule = sched [ "20"; "25"; "30"; "35" ];
    }
  in
  match Apple_soak.Soak.create soak with
  | Error e -> fail ("Soak.create: " ^ e)
  | Ok sess ->
      let stream = (Apple_soak.Soak.run sess).Apple_soak.Soak.stream in
      check
        Alcotest.(list string)
        "soak resolves the same sequence"
        [
          "F 20 link-down 4-5";
          "F 25 link-down 4-5";
          "F 30 link-up 4-5";
          "F 35 link-up ignored";
        ]
        (List.filter
           (String.starts_with ~prefix:"F ")
           (String.split_on_char '\n' stream))

(* The busiest link (4-5) fails symbolically, then again by name; the
   symbolic link-up heals only the symbolic fault, so the link stays
   failed until the named link-up.  Chaos: the held link-up is logged,
   and the named fault keeps losing packets for its whole 1.25 s, about
   2.5x what the symbolic fault lost in its 0.5 s alone.  Soak: every
   epoch from 25 to 44 loses traffic, before and after the
   re-optimization at 36. *)
let test_held_element_stays_down () =
  let sched times =
    parse_ok
      (String.concat ""
         (List.map2
            (Printf.sprintf "at %s %s\n")
            times
            [
              "link-down busiest";
              "link-down 4-5";
              "link-up busiest";
              "link-up 4-5";
            ]))
  in
  let o =
    Ch.Chaos.run ~seed:7
      ~schedule:(sched [ "0.5"; "1.0"; "1.5"; "2.25" ])
      (chaos_scenario (B.internet2 ()) 7)
  in
  let logged line =
    List.length
      (List.filter (String.ends_with ~suffix:line) o.Ch.Chaos.log)
  in
  check Alcotest.int "the symbolic link-up leaves 4-5 held" 1
    (logged "] link-up 4-5 held");
  check Alcotest.int "the named link-up restores it" 1
    (logged "] link-up 4-5");
  (match o.Ch.Chaos.faults with
  | [ sym; named ] ->
      check
        Alcotest.(list (option (float 1e-9)))
        "each fault heals at its own up" [ Some 1.0; Some 1.25 ]
        [ sym.Ch.Chaos.o_recovery; named.Ch.Chaos.o_recovery ];
      if named.Ch.Chaos.o_lost < 2 * sym.Ch.Chaos.o_lost then
        fail
          (Printf.sprintf
             "4-5 came back early: the named fault lost %d packets, the \
              symbolic one %d"
             named.Ch.Chaos.o_lost sym.Ch.Chaos.o_lost)
  | fs -> fail (Printf.sprintf "%d faults, expected 2" (List.length fs)));
  let soak =
    {
      (Apple_soak.Soak.default_config (B.internet2 ())) with
      Apple_soak.Soak.seed = 7;
      epochs = 50;
      reopt_every = 12;
      cycle = 24;
      total_rate = 2500.0;
      max_classes = 10;
      schedule = sched [ "20"; "25"; "30"; "45" ];
    }
  in
  match Apple_soak.Soak.create soak with
  | Error e -> fail ("Soak.create: " ^ e)
  | Ok sess ->
      let lines =
        String.split_on_char '\n'
          (Apple_soak.Soak.run sess).Apple_soak.Soak.stream
      in
      check
        Alcotest.(list string)
        "soak holds 4-5 at the symbolic link-up"
        [
          "F 20 link-down 4-5";
          "F 25 link-down 4-5";
          "F 30 link-up 4-5 held";
          "F 45 link-up 4-5";
        ]
        (List.filter (String.starts_with ~prefix:"F ") lines);
      List.iter
        (fun line ->
          match Scanf.sscanf_opt line "E %d loss=%f" (fun e l -> (e, l)) with
          | Some (e, loss) when e >= 25 && e < 45 && loss < 0.1 ->
              fail (Printf.sprintf "4-5 up at epoch %d: loss %f" e loss)
          | Some _ | None -> ())
        lines

(* A TCAM loss names a switch the topology lacks: both harnesses ignore
   it instead of indexing past the switch tables. *)
let test_unknown_switch_ignored () =
  let sched = parse_ok "at 1 tcam-loss 99 0.3\n" in
  let o =
    Ch.Chaos.run ~seed:7 ~schedule:sched (chaos_scenario (B.internet2 ()) 7)
  in
  check Alcotest.int "no fault opened" 0 (List.length o.Ch.Chaos.faults);
  check Alcotest.bool "chaos ignores it" true
    (List.exists
       (String.ends_with ~suffix:"] tcam-loss: no eligible switch; ignored")
       o.Ch.Chaos.log);
  let soak =
    {
      (Apple_soak.Soak.default_config (B.internet2 ())) with
      Apple_soak.Soak.seed = 7;
      epochs = 4;
      schedule = sched;
    }
  in
  match Apple_soak.Soak.create soak with
  | Error e -> fail ("Soak.create: " ^ e)
  | Ok sess ->
      let stream = (Apple_soak.Soak.run sess).Apple_soak.Soak.stream in
      check Alcotest.bool "soak ignores it" true
        (List.mem "F 1 tcam-loss ignored" (String.split_on_char '\n' stream))

let suite =
  [
    Alcotest.test_case "schedule parse roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "example file matches goldens drill" `Quick
      test_parse_matches_example;
    Alcotest.test_case "parse rejects bad input" `Quick test_parse_rejects;
    Alcotest.test_case "add keeps time order" `Quick test_add_keeps_order;
    Alcotest.test_case "validate rejects bad schedules" `Quick
      test_validate_rejects;
    Alcotest.test_case "walk honours the failure mask" `Quick
      test_walk_mask_faults;
    Alcotest.test_case "walk error codes" `Quick test_walk_error_codes;
    Alcotest.test_case "backoff is capped" `Quick test_backoff_capping;
    Alcotest.test_case "respawn blackout model" `Quick test_respawn_blackout;
    Alcotest.test_case "kill hottest, heal, verify (Internet2)" `Quick
      (kill_heal_e2e (B.internet2 ()));
    Alcotest.test_case "kill hottest, heal, verify (GEANT)" `Quick
      (kill_heal_e2e (B.geant ()));
    Alcotest.test_case "chaos and soak pair a double fault alike" `Quick
      test_double_fault_one_semantics;
    Alcotest.test_case "an element stays down while a fault holds it" `Quick
      test_held_element_stays_down;
    Alcotest.test_case "a TCAM loss on an unknown switch is ignored" `Quick
      test_unknown_switch_ignored;
    QCheck_alcotest.to_alcotest prop_deterministic;
    QCheck_alcotest.to_alcotest prop_unaffected_paths_stable;
    QCheck_alcotest.to_alcotest prop_recovery_monotone_in_boot;
  ]
