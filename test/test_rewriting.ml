(* Header-rewriting NFs (Sec. X): NAT invalidates header-based class
   matching downstream; the global sub-class tag mode keeps the data
   plane working. *)

module C = Apple_core
module Rule = Apple_dataplane.Rule
module Tcam = Apple_dataplane.Tcam
module Walk = Apple_dataplane.Walk
module Tag = Apple_dataplane.Tag
module Pfx = Apple_classifier.Prefix_split
module Nf = Apple_vnf.Nf

let prefix s = Pfx.prefix_of_string s

(* One switch, pipeline nat(7) -> fw(8), with either key mode. *)
let tiny_net key =
  let net = Tcam.network ~num_switches:1 in
  Tcam.add_phys net.(0)
    {
      Rule.priority = 100;
      pmatch =
        { Rule.m_host = `Empty; m_subclass = `Any; m_prefixes = [ prefix "10.5.0.0/24" ] };
      action = Rule.Tag_and_deliver { subclass = 0; host = 0 };
    };
  Tcam.add_phys net.(0)
    {
      Rule.priority = 0;
      pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
      action = Rule.Goto_next;
    };
  Tcam.add_vswitch net.(0)
    { Rule.v_port = Rule.From_network; v_key = key; v_action = Rule.To_instance 7 };
  Tcam.add_vswitch net.(0)
    { Rule.v_port = Rule.From_instance 7; v_key = key; v_action = Rule.To_instance 8 };
  Tcam.add_vswitch net.(0)
    { Rule.v_port = Rule.From_instance 8; v_key = key; v_action = Rule.Back_to_network Tag.Fin };
  net

let src_ip = Apple_classifier.Header.ip_of_string "10.5.0.9"
let nat_rewrites i = i = 7

let test_local_tags_break_after_nat () =
  let net = tiny_net (Rule.Per_class { cls = 5; subclass = 0 }) in
  (* Without a rewriter everything works... *)
  (match Walk.run net ~path:[ 0 ] ~cls:5 ~src_ip () with
  | Ok trace -> Alcotest.(check (list int)) "clean walk" [ 7; 8 ] trace.Walk.instances
  | Error e -> Alcotest.failf "unexpected: %a" Walk.pp_error e);
  (* ...but the NAT rewrite kills the post-NAT lookup. *)
  match Walk.run net ~path:[ 0 ] ~cls:5 ~src_ip ~rewriters:nat_rewrites () with
  | Error (Walk.Vswitch_miss 0) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Walk.pp_error e
  | Ok _ -> Alcotest.fail "local tags must break after a rewrite"

let test_global_tags_survive_nat () =
  let net = tiny_net (Rule.Global 0) in
  match Walk.run net ~path:[ 0 ] ~cls:5 ~src_ip ~rewriters:nat_rewrites () with
  | Ok trace ->
      Alcotest.(check (list int)) "full chain applied" [ 7; 8 ] trace.Walk.instances
  | Error e -> Alcotest.failf "global tags should survive: %a" Walk.pp_error e

let nat_scenario () =
  (* All chains start with NAT so rewriting is pervasive. *)
  let mix = C.Policy.mix_of_strings [ ("nat -> firewall", 0.6); ("nat -> firewall -> ids", 0.4) ] in
  let config = { C.Scenario.default_config with C.Scenario.policy_mix = mix; max_classes = 25 } in
  let named = Apple_topology.Builders.internet2 () in
  let rng = Apple_prelude.Rng.create 5 in
  let tm = Apple_traffic.Synth.gravity rng ~n:12 ~total:4000.0 in
  C.Scenario.build ~config ~seed:5 named tm

let test_needs_global_detection () =
  let s = nat_scenario () in
  Alcotest.(check bool) "NAT chains need global tags" true
    (C.Rule_generator.needs_global_tags s);
  let pure =
    {
      s with
      C.Types.classes =
        Array.map
          (fun c -> { c with C.Types.chain = [| Nf.Firewall |] })
          s.C.Types.classes;
    }
  in
  Alcotest.(check bool) "firewall-only chains do not" false
    (C.Rule_generator.needs_global_tags pure)

let test_auto_mode_selects_global () =
  let s = nat_scenario () in
  let p = C.Engine_select.solve s in
  let asg = C.Subclass.assign s p in
  let built = C.Rule_generator.build s asg in
  Alcotest.(check bool) "auto -> global" true
    (built.C.Rule_generator.tag_mode = `Global);
  Alcotest.(check bool) "ids allocated" true
    (built.C.Rule_generator.global_tags_used > 0);
  Alcotest.(check bool) "ids fit the VLAN field" true
    (built.C.Rule_generator.global_tags_used <= Tag.max_subclasses)

let test_end_to_end_with_rewriting () =
  let s = nat_scenario () in
  let p = C.Engine_select.solve s in
  let asg = C.Subclass.assign s p in
  let built = C.Rule_generator.build s asg in
  let rewriters i =
    List.exists
      (fun inst ->
        Apple_vnf.Instance.id inst = i
        && Nf.rewrites_header (Apple_vnf.Instance.kind inst))
      asg.C.Subclass.instances
  in
  let inst_kind = Hashtbl.create 64 in
  List.iter
    (fun i -> Hashtbl.replace inst_kind (Apple_vnf.Instance.id i) (Apple_vnf.Instance.kind i))
    asg.C.Subclass.instances;
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
              let path = Array.to_list c.C.Types.path in
              match
                Walk.run built.C.Rule_generator.network ~path ~cls:c.C.Types.id
                  ~src_ip:pfx.Pfx.addr ~rewriters ()
              with
              | Error e ->
                  Alcotest.failf "class %d: %a" c.C.Types.id Walk.pp_error e
              | Ok trace ->
                  Alcotest.(check bool) "policy enforced despite NAT" true
                    (Walk.policy_enforced trace
                       ~instance_kind:(Hashtbl.find inst_kind)
                       ~chain:(Array.to_list c.C.Types.chain));
                  Alcotest.(check bool) "interference free" true
                    (Walk.interference_free trace ~path)))
        subs)
    s.C.Types.classes

let test_local_mode_fails_end_to_end () =
  (* Forcing Local mode on a NAT scenario must produce walks that break
     once rewriting is modelled — the negative control. *)
  let s = nat_scenario () in
  let p = C.Engine_select.solve s in
  let asg = C.Subclass.assign s p in
  let built = C.Rule_generator.build ~tag_mode:`Local s asg in
  let rewriters i =
    List.exists
      (fun inst ->
        Apple_vnf.Instance.id inst = i
        && Nf.rewrites_header (Apple_vnf.Instance.kind inst))
      asg.C.Subclass.instances
  in
  let failures = ref 0 and total = ref 0 in
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
              incr total;
              let path = Array.to_list c.C.Types.path in
              match
                Walk.run built.C.Rule_generator.network ~path ~cls:c.C.Types.id
                  ~src_ip:pfx.Pfx.addr ~rewriters ()
              with
              | Error (Walk.Vswitch_miss _) -> incr failures
              | Error e -> Alcotest.failf "unexpected: %a" Walk.pp_error e
              | Ok _ -> ()))
        subs)
    s.C.Types.classes;
  Alcotest.(check bool) "every NAT walk breaks in local mode" true
    (!failures = !total && !total > 0)

let suite =
  [
    Alcotest.test_case "local tags break after NAT" `Quick test_local_tags_break_after_nat;
    Alcotest.test_case "global tags survive NAT" `Quick test_global_tags_survive_nat;
    Alcotest.test_case "needs_global_tags detection" `Quick test_needs_global_detection;
    Alcotest.test_case "auto selects global" `Quick test_auto_mode_selects_global;
    Alcotest.test_case "end-to-end with rewriting" `Quick test_end_to_end_with_rewriting;
    Alcotest.test_case "local mode negative control" `Quick test_local_mode_fails_end_to_end;
  ]
