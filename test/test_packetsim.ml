module PS = Apple_packetsim.Packet_sim
module Tcam = Apple_dataplane.Tcam
module Rule = Apple_dataplane.Rule
module Tag = Apple_dataplane.Tag
module I = Apple_vnf.Instance
module Nf = Apple_vnf.Nf
module C = Apple_core

(* Single switch, single firewall monitor (900 Mbps = 75 Kpps at 1500 B). *)
let monitor_net () =
  let net = Tcam.network ~num_switches:1 in
  let pfx = Apple_classifier.Prefix_split.prefix_of_string "10.0.0.0/24" in
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
    { Rule.v_port = Rule.From_network; v_key = Rule.Per_class { cls = 0; subclass = 0 };
      v_action = Rule.To_instance 1 };
  Tcam.add_vswitch net.(0)
    { Rule.v_port = Rule.From_instance 1; v_key = Rule.Per_class { cls = 0; subclass = 0 };
      v_action = Rule.Back_to_network Tag.Fin };
  (net, I.create ~id:1 ~spec:(Nf.spec Nf.Firewall) ~host:0)

let flow ?(name = "f") ?(pps = 10_000.0) ?(src = "10.0.0.5") () =
  {
    PS.flow_name = name;
    cls = 0;
    src_ip = Apple_classifier.Header.ip_of_string src;
    path = [ 0 ];
    source = PS.Cbr pps;
    start_at = 0.0;
    stop_at = 1.0;
  }

let test_no_loss_below_capacity () =
  let net, inst = monitor_net () in
  let r =
    PS.run ~network:net ~instances:[ inst ] ~flows:[ flow ~pps:50_000.0 () ]
      ~duration:1.0 ()
  in
  Alcotest.(check (float 1e-9)) "no loss" 0.0 (PS.loss_of r "f");
  Alcotest.(check bool) "packets flowed" true (r.PS.total_sent > 40_000)

let test_loss_above_capacity_matches_analytic () =
  let net, inst = monitor_net () in
  List.iter
    (fun pps ->
      let r =
        PS.run ~network:net ~instances:[ inst ] ~flows:[ flow ~pps () ]
          ~duration:1.0 ()
      in
      let measured = PS.loss_of r "f" in
      let analytic = 1.0 -. (75_000.0 /. pps) in
      Alcotest.(check bool)
        (Printf.sprintf "knee shape at %.0f pps" pps)
        true
        (abs_float (measured -. analytic) < 0.04))
    [ 90_000.0; 110_000.0; 150_000.0 ]

let test_latency_grows_with_load () =
  let net, inst = monitor_net () in
  let p50 pps =
    let r =
      PS.run ~network:net ~instances:[ inst ] ~flows:[ flow ~pps () ]
        ~duration:0.5 ()
    in
    PS.latency_percentile r "f" 50.0
  in
  Alcotest.(check bool) "queueing delay appears at saturation" true
    (p50 100_000.0 > 10.0 *. p50 20_000.0)

let test_conservation () =
  let net, inst = monitor_net () in
  let r =
    PS.run ~network:net ~instances:[ inst ] ~flows:[ flow ~pps:100_000.0 () ]
      ~duration:0.5 ()
  in
  let f = List.hd r.PS.flows in
  (* Everything sent is delivered, dropped, or (a handful) still queued at
     the end of the drain window. *)
  Alcotest.(check bool) "conservation" true
    (f.PS.sent - f.PS.delivered - f.PS.dropped <= 70)

let test_two_flows_share () =
  let net, inst = monitor_net () in
  (* Poisson sources: synchronized CBR phase-locks the drop pattern onto
     one flow (a real artifact of deterministic traffic), Poisson mixing
     exposes the fair FIFO share. *)
  let flows =
    [
      { (flow ~name:"a" ~pps:0.0 ~src:"10.0.0.10" ()) with PS.source = PS.Poisson 60_000.0 };
      { (flow ~name:"b" ~pps:0.0 ~src:"10.0.0.20" ()) with PS.source = PS.Poisson 60_000.0 };
    ]
  in
  let r = PS.run ~network:net ~instances:[ inst ] ~flows ~duration:0.5 () in
  (* 120 Kpps offered on a 75 Kpps server: both flows lose, roughly
     equally. *)
  let la = PS.loss_of r "a" and lb = PS.loss_of r "b" in
  Alcotest.(check bool) "both lose" true (la > 0.2 && lb > 0.2);
  Alcotest.(check bool) "even split" true (abs_float (la -. lb) < 0.1)

let test_poisson_some_loss_near_capacity () =
  let net, inst = monitor_net () in
  (* A small buffer makes the M/D/1 overflow probability visible at 97%
     utilization (CBR at the same rate would lose nothing). *)
  let config = { PS.default_config with PS.queue_packets = 8 } in
  let flows =
    [ { (flow ~pps:0.0 ()) with PS.source = PS.Poisson 73_000.0 } ]
  in
  let r = PS.run ~config ~network:net ~instances:[ inst ] ~flows ~duration:1.0 () in
  Alcotest.(check bool) "stochastic loss visible" true (PS.loss_of r "f" > 0.0);
  let cbr =
    PS.run ~config ~network:net ~instances:[ inst ]
      ~flows:[ flow ~pps:73_000.0 () ]
      ~duration:1.0 ()
  in
  Alcotest.(check (float 1e-9)) "CBR at same rate loses nothing" 0.0
    (PS.loss_of cbr "f")

let test_onoff_bursts () =
  let net, inst = monitor_net () in
  let flows =
    [
      {
        (flow ~pps:0.0 ()) with
        PS.source = PS.On_off { pps = 150_000.0; on_s = 0.05; off_s = 0.05 };
      };
    ]
  in
  let r = PS.run ~network:net ~instances:[ inst ] ~flows ~duration:1.0 () in
  (* During bursts the instance is 2x oversubscribed; averaged with the
     silences, loss sits between 0 and the burst-time 50%. *)
  let loss = PS.loss_of r "f" in
  Alcotest.(check bool) "bursty loss" true (loss > 0.2 && loss < 0.6)

let test_unroutable () =
  let net = Tcam.network ~num_switches:1 in
  (* no rules at all -> the walk fails *)
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (PS.run ~network:net ~instances:[] ~flows:[ flow () ] ~duration:0.1 ());
       false
     with PS.Unroutable _ -> true)

let test_end_to_end_generated_dataplane () =
  (* Drive packets through tables generated by the real pipeline. *)
  let s = Helpers.tiny_scenario () in
  let p = C.Engine_select.solve s in
  let asg = C.Subclass.assign s p in
  let built = C.Rule_generator.build s asg in
  let c = s.C.Types.classes.(0) in
  let flows =
    [
      {
        PS.flow_name = "cls0";
        cls = c.C.Types.id;
        src_ip = c.C.Types.src_block.C.Types.Prefix.addr + 3;
        path = Array.to_list c.C.Types.path;
        (* 500 Mbps at 1500B ~ 41.7 Kpps: the provisioned rate *)
        source = PS.Cbr 41_000.0;
        start_at = 0.0;
        stop_at = 0.5;
      };
    ]
  in
  let r =
    PS.run ~network:built.C.Rule_generator.network
      ~instances:asg.C.Subclass.instances ~flows ~duration:0.5 ()
  in
  Alcotest.(check (float 1e-9)) "no loss at provisioned rate" 0.0
    (PS.loss_of r "cls0");
  (* end-to-end latency = 3 links + fw + ids service, well under 1 ms *)
  Alcotest.(check bool) "latency sane" true
    (PS.latency_percentile r "cls0" 99.0 < 1e-3)

let suite =
  [
    Alcotest.test_case "no loss below capacity" `Quick test_no_loss_below_capacity;
    Alcotest.test_case "knee matches analytic" `Quick test_loss_above_capacity_matches_analytic;
    Alcotest.test_case "latency vs load" `Quick test_latency_grows_with_load;
    Alcotest.test_case "conservation" `Quick test_conservation;
    Alcotest.test_case "two flows share" `Quick test_two_flows_share;
    Alcotest.test_case "poisson loss" `Quick test_poisson_some_loss_near_capacity;
    Alcotest.test_case "on-off bursts" `Quick test_onoff_bursts;
    Alcotest.test_case "unroutable" `Quick test_unroutable;
    Alcotest.test_case "generated data plane" `Quick test_end_to_end_generated_dataplane;
  ]
