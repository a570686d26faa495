module Tag = Apple_dataplane.Tag
module Rule = Apple_dataplane.Rule
module Tcam = Apple_dataplane.Tcam
module Walk = Apple_dataplane.Walk
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

(* ---- compiled-table lifecycle (stale-compile hazard) -------------- *)

module Compiled = Apple_dataplane.Compiled

let with_compiled f =
  let saved = Compiled.mode () in
  Compiled.set_mode Compiled.Compiled;
  Fun.protect ~finally:(fun () -> Compiled.set_mode saved) f

(* Mutating a table through retain_phys after its first compiled lookup
   must invalidate the compiled structure: the second lookup has to see
   the shrunken table (and be a fresh compile, not a stale cache hit). *)
let test_compiled_invalidated_by_retain_phys () =
  with_compiled @@ fun () ->
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
  Compiled.reset_stats ();
  (match Compiled.lookup_phys_entry table tags ~src_ip with
  | Some (0, Rule.Tag_and_forward { subclass = 7; _ }) -> ()
  | _ -> Alcotest.fail "expected the classification rule (uid 0) to match");
  let compiles_after_first = Compiled.stats () in
  Alcotest.(check int) "first lookup compiled the table" 1 compiles_after_first;
  (* Second lookup from the warm cache: no recompile. *)
  ignore (Compiled.lookup_phys_entry table tags ~src_ip);
  let compiles_warm = Compiled.stats () in
  Alcotest.(check int) "warm lookup reuses the compile" 1 compiles_warm;
  (* TCAM loss: drop the classification rule (uid 0), keep the pass-by. *)
  let lost = Tcam.retain_phys table ~keep:(fun uid -> uid <> 0) in
  Alcotest.(check int) "one rule lost" 1 lost;
  (match Compiled.lookup_phys_entry table tags ~src_ip with
  | Some (1, Rule.Goto_next) -> ()
  | Some (uid, _) -> Alcotest.failf "stale compile: matched uid %d" uid
  | None -> Alcotest.fail "expected the surviving pass-by rule");
  let compiles_after_mutation = Compiled.stats () in
  Alcotest.(check int) "mutation forced a recompile" 2 compiles_after_mutation

(* set_phys must equally invalidate (fresh uids, fresh structure). *)
let test_compiled_invalidated_by_set_phys () =
  with_compiled @@ fun () ->
  let table = Tcam.create ~switch:3 in
  Tcam.add_phys table
    {
      Rule.priority = 0;
      pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
      action = Rule.Goto_next;
    };
  let tags = Tag.fresh () in
  (match Compiled.lookup_phys_entry table tags ~src_ip with
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
  match Compiled.lookup_phys_entry table tags ~src_ip with
  | Some (1, Rule.Fwd_to_host 3) -> ()
  | _ -> Alcotest.fail "stale compile survived set_phys"

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
   rule sorts (and matches) first.  The test pins that tie-break — for
   phys_entries, for lookups, and for the compiled engine, which must
   inherit it exactly. *)
let test_colliding_priorities_stable () =
  let build () =
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
    table
  in
  let table = build () in
  Alcotest.(check (list int)) "descending priority, newest first in a band"
    [ 2; 1; 0 ]
    (List.map fst (Tcam.phys_entries table));
  let miss = Apple_classifier.Header.ip_of_string "11.0.0.1" in
  (match Tcam.lookup_phys_entry table (Tag.fresh ()) ~src_ip:miss with
  | Some (1, Rule.Fwd_to_host 1) -> ()
  | _ -> Alcotest.fail "last-installed rule must win the tie");
  match
    with_compiled (fun () ->
        Compiled.lookup_phys_entry (build ()) (Tag.fresh ()) ~src_ip:miss)
  with
  | Some (1, Rule.Fwd_to_host 1) -> ()
  | _ -> Alcotest.fail "compiled engine broke the stable tie-break"

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
    Alcotest.test_case "compiled invalidated by retain_phys" `Quick
      test_compiled_invalidated_by_retain_phys;
    Alcotest.test_case "compiled invalidated by set_phys" `Quick
      test_compiled_invalidated_by_set_phys;
    Alcotest.test_case "host_matches edges" `Quick test_host_matches_edges;
    Alcotest.test_case "crossproduct edges" `Quick test_crossproduct_edges;
    Alcotest.test_case "colliding priorities stable" `Quick
      test_colliding_priorities_stable;
  ]
