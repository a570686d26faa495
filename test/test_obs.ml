(* Observability subsystem: counters, flight recorder, poller, the
   polled Fig-9 detection mode, and the determinism property (enabling
   observability never changes placements, rule tables or simulation
   results). *)

module C = Apple_core
module H = Helpers
module B = Apple_topology.Builders
module Obs = Apple_obs.Counters
module Flight = Apple_obs.Flight
module Poller = Apple_obs.Poller
module Provenance = Apple_obs.Provenance
module Top = Apple_obs.Top
module Tcam = Apple_dataplane.Tcam
module Rule = Apple_dataplane.Rule
module Walk = Apple_dataplane.Walk
module Nf = Apple_vnf.Nf
module PS = Apple_packetsim.Packet_sim

(* Every test leaves the global switch off and the stores empty. *)
let with_obs f =
  let saved = Obs.enabled () in
  Obs.reset ();
  Flight.clear ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled saved;
      Obs.reset ();
      Flight.clear ())
    f

(* --- counters ------------------------------------------------------- *)

let test_counters_basic () =
  with_obs @@ fun () ->
  Obs.rule_hit ~sw:3 ~uid:7 ~bytes:100;
  Obs.rule_hit ~sw:3 ~uid:7 ~bytes:50;
  Obs.rule_hit ~sw:1 ~uid:2 ~bytes:0;
  let s = Obs.rule_stats ~sw:3 ~uid:7 in
  Alcotest.(check int) "matches" 2 s.Obs.r_matches;
  Alcotest.(check int) "bytes" 150 s.Obs.r_bytes;
  let snap = Obs.rule_snapshot () in
  Alcotest.(check (list (pair (pair int int) int)))
    "snapshot sorted by (sw, uid)"
    [ ((1, 2), 1); ((3, 7), 2) ]
    (List.map (fun (k, st) -> (k, st.Obs.r_matches)) snap);
  let totals = Obs.switch_totals () in
  Alcotest.(check (list (pair int int)))
    "switch totals"
    [ (1, 1); (3, 2) ]
    (List.map (fun (sw, st) -> (sw, st.Obs.r_matches)) totals);
  Obs.inst_packet ~id:5 ~bytes:1500;
  Obs.inst_traffic ~id:5 ~packets:3 ~bytes:4500;
  Obs.inst_drop ~id:5;
  Obs.inst_queue ~id:5 ~depth:4;
  Obs.inst_queue ~id:5 ~depth:2;
  let i = Obs.inst_stats ~id:5 in
  Alcotest.(check int) "inst packets" 4 i.Obs.i_packets;
  Alcotest.(check int) "inst bytes" 6000 i.Obs.i_bytes;
  Alcotest.(check int) "inst drops" 1 i.Obs.i_drops;
  Alcotest.(check int) "queue depth" 2 i.Obs.i_queue_depth;
  Alcotest.(check int) "queue peak" 4 i.Obs.i_queue_peak;
  Obs.reset ();
  Alcotest.(check int) "reset clears rules" 0
    (List.length (Obs.rule_snapshot ()));
  Alcotest.(check int) "reset clears instances" 0
    (List.length (Obs.inst_snapshot ()))

let test_counters_disabled_noop () =
  Obs.reset ();
  Obs.set_enabled false;
  Obs.rule_hit ~sw:0 ~uid:0 ~bytes:99;
  Obs.inst_packet ~id:0 ~bytes:99;
  Flight.clear ();
  Flight.record Flight.Note ~a:1 ();
  Alcotest.(check int) "no rule counted" 0
    (Obs.rule_stats ~sw:0 ~uid:0).Obs.r_matches;
  Alcotest.(check int) "no inst counted" 0
    (Obs.inst_stats ~id:0).Obs.i_packets;
  Alcotest.(check int) "no flight event" 0 (Flight.length ())

(* --- flight recorder ------------------------------------------------ *)

let test_flight_ring_wrap () =
  with_obs @@ fun () ->
  let saved_cap = Flight.capacity () in
  Fun.protect ~finally:(fun () -> Flight.set_capacity saved_cap)
  @@ fun () ->
  Flight.set_capacity 4;
  for i = 0 to 9 do
    Flight.record Flight.Note ~a:i ()
  done;
  Alcotest.(check int) "length capped" 4 (Flight.length ());
  Alcotest.(check int) "total keeps counting" 10 (Flight.total ());
  let survivors = Flight.events () in
  Alcotest.(check (list int)) "oldest evicted, order kept" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Flight.a) survivors);
  List.iteri
    (fun i e ->
      Alcotest.(check int) "seq matches operand" (6 + i) e.Flight.seq)
    survivors

let test_flight_dump_load () =
  with_obs @@ fun () ->
  Flight.record Flight.Walk_start ~a:1 ~b:2 ~c:3 ~d:4 ();
  Flight.record Flight.Rule_match ~a:1 ~b:0 ~c:12 ~d:1 ();
  Flight.record Flight.Violation ~a:2 ~b:1 ();
  let path = Filename.temp_file "apple-flight" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
  @@ fun () ->
  Flight.dump ~path;
  match Flight.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok loaded ->
      Alcotest.(check int) "all events survive" 3 (List.length loaded);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "event round-trips" true
            (a.Flight.seq = b.Flight.seq
            && a.Flight.kind = b.Flight.kind
            && a.Flight.a = b.Flight.a
            && a.Flight.b = b.Flight.b
            && a.Flight.c = b.Flight.c
            && a.Flight.d = b.Flight.d
            && abs_float (a.Flight.time -. b.Flight.time) < 1e-12))
        (Flight.events ()) loaded

let test_flight_load_errors () =
  (match Flight.load ~path:"/nonexistent/apple-flight.bin" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must not load");
  let path = Filename.temp_file "apple-flight" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
  @@ fun () ->
  let load_bytes contents =
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    Flight.load ~path
  in
  (match load_bytes "NOTMAGIC and then some garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic must not load");
  (* A forged count of 2^58 slots: count * slot size overflows. *)
  let count = Bytes.create 8 in
  Bytes.set_int64_le count 0 (Int64.shift_left 1L 58);
  match load_bytes ("APPLFR1\n" ^ Bytes.to_string count ^ String.make 56 '\000') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a count beyond the file must not load"

(* --- poller --------------------------------------------------------- *)

let test_poller_rates () =
  with_obs @@ fun () ->
  let p = Poller.create ~period:0.1 ~alpha:0.5 () in
  Alcotest.(check bool) "stale before first poll" true
    (Poller.staleness p ~now:5.0 = infinity);
  (* First sight: baseline only. *)
  Obs.inst_traffic ~id:9 ~packets:100 ~bytes:150_000;
  Poller.poll p ~now:0.0;
  Alcotest.(check (float 1e-9)) "no rate from one sample" 0.0
    (Poller.inst_rate_pps p 9);
  (* First delta seeds the estimate directly: 100 pkts / 0.1 s. *)
  Obs.inst_traffic ~id:9 ~packets:100 ~bytes:150_000;
  Poller.poll p ~now:0.1;
  Alcotest.(check (float 1e-6)) "seeded rate" 1000.0 (Poller.inst_rate_pps p 9);
  Alcotest.(check (float 1e-6))
    "bps follows bytes"
    (150_000.0 *. 8.0 /. 0.1)
    (Poller.inst_rate_bps p 9);
  (* Steady state stays put; a halved rate moves halfway (alpha 0.5). *)
  Obs.inst_traffic ~id:9 ~packets:50 ~bytes:75_000;
  Poller.poll p ~now:0.2;
  Alcotest.(check (float 1e-6)) "EWMA halfway" 750.0 (Poller.inst_rate_pps p 9);
  Alcotest.(check (float 1e-9)) "staleness" 0.05 (Poller.staleness p ~now:0.25);
  Alcotest.(check int) "three polls" 3 (Poller.polls p);
  Alcotest.(check (list int)) "known instances" [ 9 ] (Poller.known_instances p)

let test_poller_switch_rates () =
  with_obs @@ fun () ->
  let p = Poller.create ~period:1.0 () in
  Obs.rule_hit ~sw:2 ~uid:0 ~bytes:0;
  Poller.poll p ~now:0.0;
  Obs.rule_hit ~sw:2 ~uid:0 ~bytes:0;
  Obs.rule_hit ~sw:2 ~uid:1 ~bytes:0;
  Poller.poll p ~now:1.0;
  Alcotest.(check (float 1e-6)) "switch match rate" 2.0
    (Poller.switch_match_pps p 2);
  Alcotest.(check (list int)) "known switches" [ 2 ] (Poller.known_switches p)

(* --- polled Fig. 9 -------------------------------------------------- *)

let kinds_of (run : C.Prototype.detection_run) =
  List.map (fun e -> e.C.Prototype.kind) run.C.Prototype.det_events

let test_fig9_polled_parity () =
  let seed = 42 in
  let oracle = C.Prototype.overload_detection_experiment ~seed () in
  let polled =
    C.Prototype.overload_detection_experiment ~load_source:(`Polled 0.05) ~seed
      ()
  in
  Alcotest.(check bool) "oracle sees the overload" true
    (List.mem `Overload_detected (kinds_of oracle));
  Alcotest.(check bool) "same event sequence" true
    (kinds_of oracle = kinds_of polled);
  (* Every overload the oracle saw, the polled detector saw — later. *)
  let first_detect run =
    match C.Prototype.detection_latency run with
    | Some l -> l
    | None -> Alcotest.fail "no detection"
  in
  let lo = first_detect oracle and lp = first_detect polled in
  Alcotest.(check bool) "polled detection is delayed" true (lp >= lo);
  Alcotest.(check bool) "but bounded (< 0.5 s)" true (lp < 0.5);
  (* Counters were experiment-local: restored off and empty. *)
  Alcotest.(check bool) "counters restored off" false (Obs.enabled ());
  Alcotest.(check int) "counter store drained" 0
    (List.length (Obs.inst_snapshot ()))

let test_fig9_latency_monotone () =
  let periods = [ 0.01; 0.02; 0.05; 0.1; 0.2 ] in
  let lat = C.Prototype.detection_latency_vs_poll ~seed:42 ~periods in
  Alcotest.(check int) "one latency per period" (List.length periods)
    (List.length lat);
  List.iter
    (fun (p, l) ->
      if l = infinity then Alcotest.failf "period %.2f missed the overload" p)
    lat;
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) ->
        Alcotest.(check bool) "latency non-decreasing in poll period" true
          (a <= b +. 1e-9);
        monotone rest
    | _ -> ()
  in
  monotone lat;
  (* Detection needs the EWMA to warm up: at least one full period, and
     not absurdly many. *)
  List.iter
    (fun (p, l) ->
      Alcotest.(check bool) "latency at least one period" true (l >= p -. 1e-9);
      Alcotest.(check bool) "latency under six periods" true (l <= 6.0 *. p))
    lat

(* --- determinism: observability never changes results ---------------- *)

let test_determinism_rules () =
  let build () =
    let s = H.small_scenario ~seed:77 ~total:3000.0 ~max_classes:20 () in
    let p = C.Optimization_engine.solve s in
    let asg = C.Subclass.assign s p in
    C.Rule_generator.build s asg
  in
  Obs.set_enabled false;
  let plain = build () in
  let observed = with_obs (fun () -> build ()) in
  Alcotest.(check int) "same TCAM size" plain.C.Rule_generator.tcam_with_tagging
    observed.C.Rule_generator.tcam_with_tagging;
  let tables b = b.C.Rule_generator.network in
  Array.iteri
    (fun i t ->
      Alcotest.(check bool)
        (Printf.sprintf "switch %d rules byte-identical" i)
        true
        (Tcam.phys_entries t = Tcam.phys_entries (tables observed).(i))
      ;
      Alcotest.(check bool)
        (Printf.sprintf "switch %d vswitch identical" i)
        true
        (Tcam.vswitch_rules t = Tcam.vswitch_rules (tables observed).(i)))
    (tables plain)

let test_determinism_fig9_oracle () =
  let run () = C.Prototype.overload_detection_experiment ~seed:7 () in
  Obs.set_enabled false;
  let plain = run () in
  let observed = with_obs (fun () -> run ()) in
  Alcotest.(check bool) "oracle fig9 unchanged under observability" true
    (plain = observed)

(* --- provenance from a violation dump ------------------------------- *)

let test_violation_dump_provenance () =
  let s = H.small_scenario ~seed:77 ~total:3000.0 ~max_classes:20 () in
  let p = C.Optimization_engine.solve s in
  let asg = C.Subclass.assign s p in
  let built = C.Rule_generator.build s asg in
  let network = built.C.Rule_generator.network in
  (* Inject a fault: drop one switch's vSwitch pipeline, so every walk
     delivered there dies with a vswitch miss. *)
  let victim =
    match
      Array.to_seq network
      |> Seq.filter (fun t -> Tcam.vswitch_rules t <> [])
      |> Seq.uncons
    with
    | Some (t, _) -> t
    | None -> Alcotest.fail "no vswitch rules installed"
  in
  Tcam.set_vswitch victim [];
  let path = Filename.temp_file "apple-flight" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
  @@ fun () ->
  let failed_flow =
    with_obs @@ fun () ->
    (* Re-walk every sub-class representative with flow labels, the way
       [apple verify --flight-out] does on a violation. *)
    let failed = ref None in
    Array.iter
      (fun c ->
        let subs = H.subclasses_of asg c.C.Types.id in
        if subs <> [] then begin
          let prefixes =
            C.Rule_generator.subclass_prefixes c subs
              ~depth:built.C.Rule_generator.split_depth
          in
          List.iteri
            (fun idx sub ->
              match prefixes.(idx) with
              | [] -> ()
              | pfx :: _ -> (
                  let flow = C.Subclass.key sub in
                  match
                    Walk.run network
                      ~path:(Array.to_list c.C.Types.path)
                      ~cls:c.C.Types.id ~src_ip:pfx.C.Types.Prefix.addr ~flow ()
                  with
                  | Ok _ -> ()
                  | Error _ ->
                      if !failed = None then failed := Some flow;
                      Flight.record Flight.Violation ~a:2 ~b:c.C.Types.id
                        ~c:sub.C.Subclass.sub_id ()))
            subs
        end)
      s.C.Types.classes;
    Flight.dump ~path;
    match !failed with
    | Some flow -> flow
    | None -> Alcotest.fail "fault injection produced no failing walk"
  in
  match Flight.load ~path with
  | Error e -> Alcotest.failf "dump did not load: %s" e
  | Ok events ->
      let chain = Provenance.of_events events ~flow:failed_flow in
      Alcotest.(check bool) "chain has matched rules" true
        (chain.Provenance.rules <> []);
      (match chain.Provenance.outcome with
      | `Failed _ -> ()
      | `Ok -> Alcotest.fail "walk into a dead host must not be Ok"
      | `Unknown -> Alcotest.fail "walk end event missing from dump");
      let listing = Provenance.flows events in
      Alcotest.(check bool) "flow listed" true
        (List.mem_assoc failed_flow listing);
      let report = Provenance.render chain in
      Alcotest.(check bool) "render mentions the flow" true
        (String.length report > 0)

(* --- packet sim counters + top -------------------------------------- *)

let test_packetsim_counters_and_top () =
  with_obs @@ fun () ->
  let net = Tcam.network ~num_switches:1 in
  let pfx = C.Types.Prefix.prefix_of_string "10.0.0.0/24" in
  Tcam.add_phys net.(0)
    {
      Rule.priority = 100;
      pmatch = { Rule.m_host = `Empty; m_subclass = `Any; m_prefixes = [ pfx ] };
      action = Rule.Tag_and_deliver { subclass = 0; host = 0 };
    };
  Tcam.add_phys net.(0)
    {
      Rule.priority = 0;
      pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
      action = Rule.Goto_next;
    };
  Tcam.add_vswitch net.(0)
    {
      Rule.v_port = Rule.From_network;
      v_key = Rule.Per_class { cls = 0; subclass = 0 };
      v_action = Rule.To_instance 1;
    };
  Tcam.add_vswitch net.(0)
    {
      Rule.v_port = Rule.From_instance 1;
      v_key = Rule.Per_class { cls = 0; subclass = 0 };
      v_action = Rule.Back_to_network Apple_dataplane.Tag.Fin;
    };
  let inst =
    Apple_vnf.Instance.create ~id:1 ~spec:(Nf.spec Nf.Firewall) ~host:0
  in
  let poller = Poller.create ~period:0.05 () in
  let flows =
    [
      {
        PS.flow_name = "probe";
        cls = 0;
        src_ip = pfx.C.Types.Prefix.addr + 5;
        path = [ 0 ];
        source = PS.Cbr 10_000.0;
        start_at = 0.0;
        stop_at = 0.5;
      };
    ]
  in
  let r =
    PS.run ~seed:3 ~network:net ~instances:[ inst ] ~flows ~duration:0.5
      ~poll:(0.05, fun now -> Poller.poll poller ~now)
      ()
  in
  Alcotest.(check bool) "packets flowed" true (r.PS.total_delivered > 0);
  let st = Obs.inst_stats ~id:1 in
  Alcotest.(check bool) "instance counted its packets" true
    (st.Obs.i_packets > 0);
  Alcotest.(check bool) "rule counters credited" true
    (List.exists
       (fun (_, rs) -> rs.Obs.r_bytes > 0)
       (Obs.rule_snapshot ()));
  Alcotest.(check bool) "poller sampled" true (Poller.polls poller > 0);
  Alcotest.(check bool) "poller sees the instance rate" true
    (Poller.inst_rate_pps poller 1 > 0.0);
  let screen =
    Top.render ~capacities:[ (1, 900.0) ] ~now:0.5 poller
  in
  Alcotest.(check bool) "top shows the instance table" true
    (String.length screen > 0);
  let summary = Top.summary ~now:0.5 poller in
  Alcotest.(check bool) "summary non-empty" true (String.length summary > 0)

let suite =
  [
    Alcotest.test_case "counters: basic accounting" `Quick test_counters_basic;
    Alcotest.test_case "counters: disabled is a no-op" `Quick
      test_counters_disabled_noop;
    Alcotest.test_case "flight: ring wraps, keeps newest" `Quick
      test_flight_ring_wrap;
    Alcotest.test_case "flight: dump/load round-trip" `Quick
      test_flight_dump_load;
    Alcotest.test_case "flight: load rejects bad files" `Quick
      test_flight_load_errors;
    Alcotest.test_case "poller: EWMA rates and staleness" `Quick
      test_poller_rates;
    Alcotest.test_case "poller: switch match rates" `Quick
      test_poller_switch_rates;
    Alcotest.test_case "fig9: polled mode matches the oracle" `Slow
      test_fig9_polled_parity;
    Alcotest.test_case "fig9: latency monotone in poll period" `Slow
      test_fig9_latency_monotone;
    Alcotest.test_case "determinism: rule tables unchanged" `Quick
      test_determinism_rules;
    Alcotest.test_case "determinism: oracle fig9 unchanged" `Quick
      test_determinism_fig9_oracle;
    Alcotest.test_case "provenance: violation dump reconstructs" `Quick
      test_violation_dump_provenance;
    Alcotest.test_case "packetsim: counters, poller and top" `Quick
      test_packetsim_counters_and_top;
  ]
