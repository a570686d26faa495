module Tag = Apple_dataplane.Tag
module Rule = Apple_dataplane.Rule
module Tcam = Apple_dataplane.Tcam
module Walk = Apple_dataplane.Walk
module Failmask = Apple_dataplane.Failmask
module Counters = Apple_obs.Counters
module Flight = Apple_obs.Flight
module Rng = Apple_prelude.Rng
module Pfx = Apple_classifier.Prefix_split

let prefix s = Pfx.prefix_of_string s

(* Hand-built data plane: class 5 (block 10.5.0.0/24), path 0 -> 1 -> 2,
   chain of two stages processed in the APPLE host at switch 1 (instances
   11 then 12). *)
let build_simple_network () =
  let net = Tcam.network ~num_switches:3 in
  (* ingress classification at switch 0 *)
  Tcam.add_phys net.(0)
    {
      Rule.priority = 100;
      pmatch =
        { Rule.m_host = `Empty; m_subclass = `Any; m_prefixes = [ prefix "10.5.0.0/24" ] };
      action = Rule.Tag_and_forward { subclass = 0; host = Tag.Host 1 };
    };
  (* host match at switch 1 *)
  Tcam.add_phys net.(1)
    {
      Rule.priority = 200;
      pmatch = { Rule.m_host = `Host 1; m_subclass = `Any; m_prefixes = [] };
      action = Rule.Fwd_to_host 1;
    };
  (* pass-by everywhere *)
  Array.iter
    (fun table ->
      Tcam.add_phys table
        {
          Rule.priority = 0;
          pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
          action = Rule.Goto_next;
        })
    net;
  (* vSwitch pipeline at switch 1: net -> 11 -> 12 -> out(Fin) *)
  Tcam.add_vswitch net.(1)
    { Rule.v_port = Rule.From_network; v_key = Rule.Per_class { cls = 5; subclass = 0 }; v_action = Rule.To_instance 11 };
  Tcam.add_vswitch net.(1)
    { Rule.v_port = Rule.From_instance 11; v_key = Rule.Per_class { cls = 5; subclass = 0 }; v_action = Rule.To_instance 12 };
  Tcam.add_vswitch net.(1)
    { Rule.v_port = Rule.From_instance 12; v_key = Rule.Per_class { cls = 5; subclass = 0 }; v_action = Rule.Back_to_network Tag.Fin };
  net

let src_ip = Apple_classifier.Header.ip_of_string "10.5.0.77"

let test_walk_happy_path () =
  let net = build_simple_network () in
  match Walk.run net ~path:[ 0; 1; 2 ] ~cls:5 ~src_ip () with
  | Error e -> Alcotest.failf "walk error: %a" Walk.pp_error e
  | Ok trace ->
      Alcotest.(check (list int)) "visits routing path" [ 0; 1; 2 ] trace.Walk.visited;
      Alcotest.(check (list int)) "instances in order" [ 11; 12 ] trace.Walk.instances;
      Alcotest.(check bool) "finished" true (trace.Walk.final_host_tag = Tag.Fin);
      Alcotest.(check (option int)) "tagged" (Some 0) trace.Walk.subclass_tag

let test_walk_policy_check () =
  let net = build_simple_network () in
  let kind_of = function
    | 11 -> Apple_vnf.Nf.Firewall
    | 12 -> Apple_vnf.Nf.Ids
    | _ -> Apple_vnf.Nf.Proxy
  in
  match Walk.run net ~path:[ 0; 1; 2 ] ~cls:5 ~src_ip () with
  | Error e -> Alcotest.failf "walk error: %a" Walk.pp_error e
  | Ok trace ->
      Alcotest.(check bool) "fw->ids enforced" true
        (Walk.policy_enforced trace ~instance_kind:kind_of
           ~chain:[ Apple_vnf.Nf.Firewall; Apple_vnf.Nf.Ids ]);
      Alcotest.(check bool) "wrong chain rejected" false
        (Walk.policy_enforced trace ~instance_kind:kind_of
           ~chain:[ Apple_vnf.Nf.Ids; Apple_vnf.Nf.Firewall ]);
      Alcotest.(check bool) "interference free" true
        (Walk.interference_free trace ~path:[ 0; 1; 2 ]);
      Alcotest.(check bool) "path deviation detected" false
        (Walk.interference_free trace ~path:[ 0; 2 ])

let test_walk_unmatched_packet () =
  let net = build_simple_network () in
  (* a packet outside the class block falls through to pass-by rules and
     is never processed *)
  let other = Apple_classifier.Header.ip_of_string "11.0.0.1" in
  match Walk.run net ~path:[ 0; 1; 2 ] ~cls:5 ~src_ip:other () with
  | Error _ -> Alcotest.fail "pass-by should not error"
  | Ok trace ->
      Alcotest.(check (list int)) "no processing" [] trace.Walk.instances;
      Alcotest.(check (option int)) "untagged" None trace.Walk.subclass_tag

let test_walk_vswitch_miss () =
  let net = build_simple_network () in
  (* Remove the middle rule by rebuilding with a broken pipeline. *)
  let broken = Tcam.network ~num_switches:3 in
  Tcam.add_phys broken.(0)
    {
      Rule.priority = 100;
      pmatch =
        { Rule.m_host = `Empty; m_subclass = `Any; m_prefixes = [ prefix "10.5.0.0/24" ] };
      action = Rule.Tag_and_forward { subclass = 0; host = Tag.Host 1 };
    };
  Tcam.add_phys broken.(1)
    {
      Rule.priority = 200;
      pmatch = { Rule.m_host = `Host 1; m_subclass = `Any; m_prefixes = [] };
      action = Rule.Fwd_to_host 1;
    };
  Array.iter
    (fun table ->
      Tcam.add_phys table
        {
          Rule.priority = 0;
          pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
          action = Rule.Goto_next;
        })
    broken;
  ignore net;
  match Walk.run broken ~path:[ 0; 1; 2 ] ~cls:5 ~src_ip () with
  | Error (Walk.Vswitch_miss 1) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Walk.pp_error e
  | Ok _ -> Alcotest.fail "expected vswitch miss"

let test_walk_host_loop_detected () =
  let net = Tcam.network ~num_switches:1 in
  Tcam.add_phys net.(0)
    {
      Rule.priority = 100;
      pmatch =
        { Rule.m_host = `Empty; m_subclass = `Any; m_prefixes = [ prefix "10.5.0.0/24" ] };
      action = Rule.Tag_and_deliver { subclass = 0; host = 0 };
    };
  (* cyclic vswitch rules *)
  Tcam.add_vswitch net.(0)
    { Rule.v_port = Rule.From_network; v_key = Rule.Per_class { cls = 5; subclass = 0 }; v_action = Rule.To_instance 1 };
  Tcam.add_vswitch net.(0)
    { Rule.v_port = Rule.From_instance 1; v_key = Rule.Per_class { cls = 5; subclass = 0 }; v_action = Rule.To_instance 1 };
  match Walk.run net ~path:[ 0 ] ~cls:5 ~src_ip () with
  | Error (Walk.Host_loop 0) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Walk.pp_error e
  | Ok _ -> Alcotest.fail "expected loop detection"

let test_tcam_priority_order () =
  let table = Tcam.create ~switch:0 in
  Tcam.add_phys table
    {
      Rule.priority = 0;
      pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
      action = Rule.Goto_next;
    };
  Tcam.add_phys table
    {
      Rule.priority = 100;
      pmatch = { Rule.m_host = `Empty; m_subclass = `Any; m_prefixes = [ prefix "10.5.0.0/24" ] };
      action = Rule.Tag_and_forward { subclass = 3; host = Tag.Fin };
    };
  let tags = Tag.fresh () in
  match Tcam.lookup_phys table tags ~src_ip with
  | Some (Rule.Tag_and_forward { subclass; _ }) ->
      Alcotest.(check int) "high priority wins" 3 subclass
  | _ -> Alcotest.fail "expected classification match"

let test_tcam_entry_accounting () =
  let r prefixes =
    {
      Rule.priority = 1;
      pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = prefixes };
      action = Rule.Goto_next;
    }
  in
  Alcotest.(check int) "wildcard costs 1" 1 (Rule.tcam_entries (r []));
  Alcotest.(check int) "3 prefixes cost 3" 3
    (Rule.tcam_entries (r [ prefix "10.0.0.0/25"; prefix "10.0.0.128/26"; prefix "10.0.0.192/26" ]));
  let table = Tcam.create ~switch:0 in
  Tcam.add_phys table (r []);
  Tcam.add_phys table (r [ prefix "10.0.0.0/25"; prefix "10.0.0.128/25" ]);
  Alcotest.(check int) "table total" 3 (Tcam.tcam_entries table);
  Alcotest.(check int) "cross product" 15
    (Tcam.tcam_entries_crossproduct table ~other_table:5)

let test_tag_defaults () =
  let t = Tag.fresh () in
  Alcotest.(check bool) "empty host" true (t.Tag.host = Tag.Empty);
  Alcotest.(check bool) "no subclass" true (t.Tag.subclass = None);
  Alcotest.(check int) "12-bit subclass space" 4096 Tag.max_subclasses

let test_network_totals () =
  let net = build_simple_network () in
  Alcotest.(check int) "vswitch rules" 3 (Tcam.total_vswitch net);
  Alcotest.(check bool) "tcam entries counted" true (Tcam.total_tcam net >= 5)

(* ---- table mutation and rule uids --------------------------------- *)

(* TCAM loss through retain_phys keeps the survivors' uids: the next
   lookup sees the shrunken table and credits the surviving rule under
   its original uid. *)
let test_retain_phys_keeps_uids () =
  let table = Tcam.create ~switch:0 in
  Tcam.add_phys table
    {
      Rule.priority = 100;
      pmatch = { Rule.m_host = `Empty; m_subclass = `Any; m_prefixes = [ prefix "10.5.0.0/24" ] };
      action = Rule.Tag_and_forward { subclass = 7; host = Tag.Fin };
    };
  Tcam.add_phys table
    {
      Rule.priority = 0;
      pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
      action = Rule.Goto_next;
    };
  let tags = Tag.fresh () in
  (match Tcam.lookup_phys_entry table tags ~src_ip with
  | Some (0, Rule.Tag_and_forward { subclass = 7; _ }) -> ()
  | _ -> Alcotest.fail "expected the classification rule (uid 0) to match");
  (* TCAM loss: drop the classification rule (uid 0), keep the pass-by. *)
  let lost = Tcam.retain_phys table ~keep:(fun uid -> uid <> 0) in
  Alcotest.(check int) "one rule lost" 1 lost;
  match Tcam.lookup_phys_entry table tags ~src_ip with
  | Some (1, Rule.Goto_next) -> ()
  | Some (uid, _) -> Alcotest.failf "lost rule still matches: uid %d" uid
  | None -> Alcotest.fail "expected the surviving pass-by rule"

(* set_phys re-installs: the replacement rules get fresh uids. *)
let test_set_phys_renumbers () =
  let table = Tcam.create ~switch:3 in
  Tcam.add_phys table
    {
      Rule.priority = 0;
      pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
      action = Rule.Goto_next;
    };
  let tags = Tag.fresh () in
  (match Tcam.lookup_phys_entry table tags ~src_ip with
  | Some (0, Rule.Goto_next) -> ()
  | _ -> Alcotest.fail "expected pass-by");
  Tcam.set_phys table
    [
      {
        Rule.priority = 50;
        pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
        action = Rule.Fwd_to_host 3;
      };
    ];
  match Tcam.lookup_phys_entry table tags ~src_ip with
  | Some (1, Rule.Fwd_to_host 3) -> ()
  | _ -> Alcotest.fail "set_phys must replace the table under a fresh uid"

(* ---- host_matches / crossproduct edges ---------------------------- *)

let tags_with host =
  let t = Tag.fresh () in
  t.Tag.host <- host;
  t

let test_host_matches_edges () =
  (* `Any admits every tag value *)
  List.iter
    (fun h -> Alcotest.(check bool) "any admits" true (Tcam.host_matches `Any (tags_with h)))
    [ Tag.Empty; Tag.Fin; Tag.Host 0; Tag.Host 41 ];
  (* `Empty admits exactly the empty tag *)
  Alcotest.(check bool) "empty vs empty" true (Tcam.host_matches `Empty (tags_with Tag.Empty));
  Alcotest.(check bool) "empty vs fin" false (Tcam.host_matches `Empty (tags_with Tag.Fin));
  Alcotest.(check bool) "empty vs host" false (Tcam.host_matches `Empty (tags_with (Tag.Host 0)));
  (* `Fin admits exactly the fin tag *)
  Alcotest.(check bool) "fin vs fin" true (Tcam.host_matches `Fin (tags_with Tag.Fin));
  Alcotest.(check bool) "fin vs empty" false (Tcam.host_matches `Fin (tags_with Tag.Empty));
  Alcotest.(check bool) "fin vs host" false (Tcam.host_matches `Fin (tags_with (Tag.Host 2)));
  (* `Host h admits exactly host h *)
  Alcotest.(check bool) "host vs same" true (Tcam.host_matches (`Host 2) (tags_with (Tag.Host 2)));
  Alcotest.(check bool) "host vs other" false (Tcam.host_matches (`Host 2) (tags_with (Tag.Host 3)));
  Alcotest.(check bool) "host vs empty" false (Tcam.host_matches (`Host 2) (tags_with Tag.Empty));
  Alcotest.(check bool) "host vs fin" false (Tcam.host_matches (`Host 2) (tags_with Tag.Fin))

let test_crossproduct_edges () =
  let empty = Tcam.create ~switch:0 in
  Alcotest.(check int) "empty table, empty next" 0
    (Tcam.tcam_entries_crossproduct empty ~other_table:0);
  Alcotest.(check int) "empty table, big next" 0
    (Tcam.tcam_entries_crossproduct empty ~other_table:1000);
  let table = Tcam.create ~switch:0 in
  Tcam.add_phys table
    {
      Rule.priority = 1;
      pmatch =
        { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [ prefix "10.0.0.0/25"; prefix "10.0.0.128/25" ] };
      action = Rule.Goto_next;
    };
  (* other_table = 0 clamps to 1: a missing next table costs no product *)
  Alcotest.(check int) "next-table floor is 1" 2
    (Tcam.tcam_entries_crossproduct table ~other_table:0);
  Alcotest.(check int) "product with 7-rule next" 14
    (Tcam.tcam_entries_crossproduct table ~other_table:7)

(* Colliding priorities: add_phys prepends the new entry before the
   stable re-sort, so within a priority band the most recently installed
   rule sorts (and matches) first.  The test pins that tie-break for
   phys_entries and for lookups. *)
let test_colliding_priorities_stable () =
  let table = Tcam.create ~switch:0 in
  (* uid 0 and uid 1 both at priority 10 and both matching: uid 1 wins *)
  Tcam.add_phys table
    {
      Rule.priority = 10;
      pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
      action = Rule.Fwd_to_host 0;
    };
  Tcam.add_phys table
    {
      Rule.priority = 10;
      pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
      action = Rule.Fwd_to_host 1;
    };
  (* a later, higher-priority band still lands on top *)
  Tcam.add_phys table
    {
      Rule.priority = 20;
      pmatch = { Rule.m_host = `Empty; m_subclass = `Any; m_prefixes = [ prefix "10.5.0.0/24" ] };
      action = Rule.Goto_next;
    };
  Alcotest.(check (list int)) "descending priority, newest first in a band"
    [ 2; 1; 0 ]
    (List.map fst (Tcam.phys_entries table));
  let miss = Apple_classifier.Header.ip_of_string "11.0.0.1" in
  match Tcam.lookup_phys_entry table (Tag.fresh ()) ~src_ip:miss with
  | Some (1, Rule.Fwd_to_host 1) -> ()
  | _ -> Alcotest.fail "last-installed rule must win the tie"

(* ---- batches and the seven walk errors ---------------------------- *)

let gen_prefix rng =
  let len = 4 + Rng.int rng 21 (* /4 .. /24 *) in
  let addr =
    (Rng.int rng 256 lsl 24)
    lor (Rng.int rng 256 lsl 16)
    lor (Rng.int rng 256 lsl 8)
    lor Rng.int rng 256
  in
  let addr = addr land lnot ((1 lsl (32 - len)) - 1) in
  { Pfx.addr; len }

let gen_host_field rng ~n =
  match Rng.int rng 3 with
  | 0 -> Tag.Empty
  | 1 -> Tag.Fin
  | _ -> Tag.Host (Rng.int rng n)

let gen_host_pattern rng ~n =
  match Rng.int rng 4 with
  | 0 -> `Any
  | 1 -> `Empty
  | 2 -> `Fin
  | _ -> `Host (Rng.int rng n)

let gen_subclass_pattern rng =
  if Rng.int rng 2 = 0 then `Any else `Subclass (Rng.int rng 6)

let gen_action rng ~n =
  match Rng.int rng 5 with
  | 0 -> Rule.Fwd_to_host (Rng.int rng n)
  | 1 -> Rule.Tag_and_deliver { subclass = Rng.int rng 6; host = Rng.int rng n }
  | 2 ->
      Rule.Tag_and_forward
        { subclass = Rng.int rng 6; host = gen_host_field rng ~n }
  | 3 -> Rule.Set_host_and_forward (gen_host_field rng ~n)
  | _ -> Rule.Goto_next

let gen_phys_rule rng ~n =
  let n_prefixes = Rng.int rng 4 in
  {
    (* Priorities drawn from a tiny range so collisions (and the stable
       sort's install-order tie-break) are the common case, not the
       exception. *)
    Rule.priority = Rng.int rng 4;
    pmatch =
      {
        Rule.m_host = gen_host_pattern rng ~n;
        m_subclass = gen_subclass_pattern rng;
        m_prefixes = List.init n_prefixes (fun _ -> gen_prefix rng);
      };
    action = gen_action rng ~n;
  }

let gen_vswitch_rule rng ~n =
  let port =
    match Rng.int rng 3 with
    | 0 -> Rule.From_network
    | 1 -> Rule.From_production_vm
    | _ -> Rule.From_instance (Rng.int rng 5)
  in
  let key =
    if Rng.int rng 2 = 0 then
      Rule.Per_class { cls = Rng.int rng 4; subclass = Rng.int rng 6 }
    else Rule.Global (Rng.int rng 6)
  in
  let action =
    if Rng.int rng 3 = 0 then
      Rule.Back_to_network (gen_host_field rng ~n)
    else Rule.To_instance (Rng.int rng 5)
  in
  { Rule.v_port = port; v_key = key; v_action = action }

let gen_network rng =
  let n = 2 + Rng.int rng 3 in
  let net = Tcam.network ~num_switches:n in
  Array.iter
    (fun table ->
      for _ = 1 to Rng.int rng 9 do
        Tcam.add_phys table (gen_phys_rule rng ~n)
      done;
      for _ = 1 to Rng.int rng 7 do
        Tcam.add_vswitch table (gen_vswitch_rule rng ~n)
      done)
    net;
  (net, n)

(* A mask drawn to actually bite: elements of the walked path and the
   instance id range, not arbitrary ints. *)
let gen_mask rng ~n =
  let m = Failmask.create () in
  if Rng.int rng 2 = 0 then begin
    if Rng.int rng 3 = 0 then Failmask.fail_switch m (Rng.int rng n);
    if Rng.int rng 3 = 0 then
      Failmask.fail_link m (Rng.int rng n) (Rng.int rng n);
    if Rng.int rng 3 = 0 then Failmask.fail_instance m (Rng.int rng 5)
  end;
  m

let gen_ip rng =
  (Rng.int rng 256 lsl 24)
  lor (Rng.int rng 256 lsl 16)
  lor (Rng.int rng 256 lsl 8)
  lor Rng.int rng 256

let event_tuple (e : Flight.event) = (e.Flight.kind, e.a, e.b, e.c, e.d)

(* Run [f] with counters + flight recording on, from a clean slate, and
   return (result, rule counter snapshot, flight event tuples). *)
let observed f =
  Counters.reset ();
  Flight.clear ();
  Counters.set_enabled true;
  let r =
    Fun.protect ~finally:(fun () -> Counters.set_enabled false) f
  in
  (r, Counters.rule_snapshot (), List.map event_tuple (Flight.events ()))

(* Batching must not change observable behaviour. *)
let prop_batch =
  QCheck.Test.make ~name:"run_batch ≡ sequential runs" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let net, n = gen_network rng in
      let mask = gen_mask rng ~n in
      let requests =
        Array.init
          (1 + Rng.int rng 6)
          (fun i ->
            {
              Walk.rq_path = List.init (1 + Rng.int rng n) (fun _ -> Rng.int rng n);
              rq_cls = Rng.int rng 4;
              rq_src_ip = gen_ip rng;
              rq_start_in_host = Rng.int rng 4 = 0;
              rq_flow = i;
            })
      in
      let batched, bc, be =
        observed (fun () -> Walk.run_batch net ~requests ~mask ())
      in
      let sequential, sc, se =
        observed (fun () ->
            Array.map
              (fun rq ->
                Walk.run net ~path:rq.Walk.rq_path ~cls:rq.Walk.rq_cls
                  ~src_ip:rq.Walk.rq_src_ip
                  ~start_in_host:rq.Walk.rq_start_in_host
                  ~flow:rq.Walk.rq_flow ~mask ())
              requests)
      in
      batched = sequential && bc = sc && be = se)

(* The seven error variants, deterministically. *)

let classify ~to_host =
  {
    Rule.priority = 100;
    pmatch =
      { Rule.m_host = `Empty; m_subclass = `Any; m_prefixes = [ prefix "10.0.0.0/8" ] };
    action = to_host;
  }

(* One network per error variant. *)
let error_scenarios () =
  let src_ip = Apple_classifier.Header.ip_of_string "10.1.2.3" in
  let scenarios = ref [] in
  let add name net ?mask path expect_code =
    scenarios := (name, net, mask, path, expect_code) :: !scenarios
  in
  (* 1: no matching rule — empty table *)
  add "no_matching_rule" (Tcam.network ~num_switches:2) [ 0; 1 ] 1;
  (* 2: vswitch miss — delivered to a host with no vswitch pipeline *)
  let net2 = Tcam.network ~num_switches:1 in
  Tcam.add_phys net2.(0)
    (classify ~to_host:(Rule.Tag_and_deliver { subclass = 0; host = 0 }));
  add "vswitch_miss" net2 [ 0 ] 2;
  (* 3: host loop — a vswitch cycle *)
  let net3 = Tcam.network ~num_switches:1 in
  Tcam.add_phys net3.(0)
    (classify ~to_host:(Rule.Tag_and_deliver { subclass = 0; host = 0 }));
  Tcam.add_vswitch net3.(0)
    {
      Rule.v_port = Rule.From_network;
      v_key = Rule.Global 0;
      v_action = Rule.To_instance 1;
    };
  Tcam.add_vswitch net3.(0)
    {
      Rule.v_port = Rule.From_instance 1;
      v_key = Rule.Global 0;
      v_action = Rule.To_instance 1;
    };
  add "host_loop" net3 [ 0 ] 3;
  (* 4: wrong host — deliver names a non-local host *)
  let net4 = Tcam.network ~num_switches:2 in
  Tcam.add_phys net4.(0)
    (classify ~to_host:(Rule.Tag_and_deliver { subclass = 0; host = 1 }));
  add "wrong_host" net4 [ 0; 1 ] 4;
  (* 5/6/7: blackholes via the failmask *)
  let healthy () =
    let net = Tcam.network ~num_switches:2 in
    Tcam.add_phys net.(0)
      (classify ~to_host:(Rule.Tag_and_deliver { subclass = 0; host = 0 }));
    Array.iter
      (fun table ->
        Tcam.add_phys table
          {
            Rule.priority = 0;
            pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
            action = Rule.Goto_next;
          })
      net;
    Tcam.add_vswitch net.(0)
      {
        Rule.v_port = Rule.From_network;
        v_key = Rule.Global 0;
        v_action = Rule.To_instance 7;
      };
    Tcam.add_vswitch net.(0)
      {
        Rule.v_port = Rule.From_instance 7;
        v_key = Rule.Global 0;
        v_action = Rule.Back_to_network Tag.Fin;
      };
    net
  in
  let m5 = Failmask.create () in
  Failmask.fail_link m5 0 1;
  add "link_dead" (healthy ()) ~mask:m5 [ 0; 1 ] 5;
  let m6 = Failmask.create () in
  Failmask.fail_switch m6 1;
  add "switch_dead" (healthy ()) ~mask:m6 [ 0; 1 ] 6;
  let m7 = Failmask.create () in
  Failmask.fail_instance m7 7;
  add "instance_dead" (healthy ()) ~mask:m7 [ 0; 1 ] 7;
  (List.rev !scenarios, src_ip)

let test_all_error_variants () =
  let scenarios, src_ip = error_scenarios () in
  List.iter
    (fun (name, net, mask, path, expect_code) ->
      match Walk.run net ~path ~cls:0 ~src_ip ?mask () with
      | Error e ->
          Alcotest.(check int)
            (name ^ ": the expected variant")
            expect_code (Walk.error_code e)
      | Ok _ -> Alcotest.failf "%s: walk unexpectedly succeeded" name)
    scenarios

(* ---- the keyed vSwitch lookup and the in-place physical insert ----- *)

(* First match in install order: the definition the keyed lookup must
   reproduce. *)
let reference_vswitch rules port ~cls ~subclass =
  List.find_map
    (fun r ->
      let key_matches =
        match r.Rule.v_key with
        | Rule.Per_class { cls = c; subclass = s } ->
            (match cls with Some c' -> c' = c && s = subclass | None -> false)
        | Rule.Global g -> g = subclass
      in
      if r.Rule.v_port = port && key_matches then Some r.Rule.v_action
      else None)
    rules

let gen_vswitch_port rng =
  match Rng.int rng 3 with
  | 0 -> Rule.From_network
  | 1 -> Rule.From_production_vm
  | _ -> Rule.From_instance (Rng.int rng 5)

(* Adds, whole-table replacements and lookups interleaved, so a lookup
   also follows rules installed after an earlier lookup. *)
let prop_vswitch_lookup =
  QCheck.Test.make ~name:"vSwitch lookup = first match in install order"
    ~count:300 ~long_factor:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 in
      let t = Tcam.create ~switch:0 in
      let model = ref [] in
      let ok = ref true in
      for _ = 1 to 10 + Rng.int rng 60 do
        match Rng.int rng 10 with
        | 0 ->
            let rules =
              List.init (Rng.int rng 12) (fun _ -> gen_vswitch_rule rng ~n)
            in
            Tcam.set_vswitch t rules;
            model := rules
        | 1 | 2 | 3 | 4 ->
            let r = gen_vswitch_rule rng ~n in
            Tcam.add_vswitch t r;
            model := !model @ [ r ]
        | _ ->
            let port = gen_vswitch_port rng in
            let cls =
              if Rng.int rng 3 = 0 then None else Some (Rng.int rng 4)
            in
            let subclass = Rng.int rng 6 in
            if
              Tcam.lookup_vswitch t port ~cls ~subclass
              <> reference_vswitch !model port ~cls ~subclass
            then ok := false
      done;
      !ok
      && Tcam.vswitch_rules t = !model
      && Tcam.vswitch_entries t = List.length !model)

(* The old add: prepend, then stable-sort by descending priority. *)
let reference_sort entries =
  List.stable_sort
    (fun (_, a) (_, b) -> Int.compare b.Rule.priority a.Rule.priority)
    entries

let prop_phys_insert =
  QCheck.Test.make ~name:"add_phys = stable sort of the old table"
    ~count:300 ~long_factor:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 in
      let t = Tcam.create ~switch:0 in
      let model = ref [] and next_uid = ref 0 in
      let fresh r =
        let uid = !next_uid in
        incr next_uid;
        (uid, r)
      in
      let ok = ref true in
      for _ = 1 to 5 + Rng.int rng 40 do
        (match Rng.int rng 8 with
        | 0 ->
            let rules =
              List.init (Rng.int rng 8) (fun _ -> gen_phys_rule rng ~n)
            in
            Tcam.set_phys t rules;
            model := reference_sort (List.map fresh rules)
        | 1 ->
            let k = 1 + Rng.int rng 3 and m = Rng.int rng 3 in
            let keep uid = uid mod k <> m in
            let lost = Tcam.retain_phys t ~keep in
            let kept = List.filter (fun (uid, _) -> keep uid) !model in
            if lost <> List.length !model - List.length kept then ok := false;
            model := kept
        | _ ->
            let r = gen_phys_rule rng ~n in
            Tcam.add_phys t r;
            model := reference_sort (fresh r :: !model));
        if Tcam.phys_entries t <> !model then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "walk happy path" `Quick test_walk_happy_path;
    Alcotest.test_case "walk policy check" `Quick test_walk_policy_check;
    Alcotest.test_case "walk unmatched" `Quick test_walk_unmatched_packet;
    Alcotest.test_case "walk vswitch miss" `Quick test_walk_vswitch_miss;
    Alcotest.test_case "walk loop detection" `Quick test_walk_host_loop_detected;
    Alcotest.test_case "tcam priority" `Quick test_tcam_priority_order;
    Alcotest.test_case "tcam accounting" `Quick test_tcam_entry_accounting;
    Alcotest.test_case "tag defaults" `Quick test_tag_defaults;
    Alcotest.test_case "network totals" `Quick test_network_totals;
    Alcotest.test_case "retain_phys keeps survivor uids" `Quick
      test_retain_phys_keeps_uids;
    Alcotest.test_case "set_phys renumbers rules" `Quick test_set_phys_renumbers;
    Alcotest.test_case "host_matches edges" `Quick test_host_matches_edges;
    Alcotest.test_case "crossproduct edges" `Quick test_crossproduct_edges;
    Alcotest.test_case "colliding priorities stable" `Quick
      test_colliding_priorities_stable;
    QCheck_alcotest.to_alcotest prop_batch;
    QCheck_alcotest.to_alcotest prop_vswitch_lookup;
    QCheck_alcotest.to_alcotest prop_phys_insert;
    Alcotest.test_case "all seven error variants" `Quick test_all_error_variants;
  ]
