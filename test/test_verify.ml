(* Static verifier tests: clean configurations certify with zero
   violations, and mutation tests prove each fault class is caught with a
   concrete witness.  Every mutation starts from a freshly generated
   known-good configuration and corrupts exactly one aspect of it through
   the fault-injection hooks (Tcam.set_phys / set_vswitch, the pinning
   table, the tag map). *)

module H = Helpers
module C = Apple_core
module B = Apple_topology.Builders
module V = Apple_verify.Verify
module R = Apple_dataplane.Rule
module Tcam = Apple_dataplane.Tcam
module I = Apple_vnf.Instance
module Nf = Apple_vnf.Nf

let fresh ?(seed = 77) ?(named = B.internet2 ()) () =
  let s = H.small_scenario ~seed ~total:3000.0 ~max_classes:20 ~named () in
  let p = C.Optimization_engine.solve s in
  let asg = C.Subclass.assign s p in
  let built = C.Rule_generator.build s asg in
  (s, asg, built)

(* A 2-node line whose second host has no cores: both chain stages are
   forced onto switch 0, giving a vSwitch pipeline with two instances
   (needed to test stage reordering inside one pipeline). *)
let colocated () =
  let named = B.linear ~n:2 in
  let s =
    {
      C.Types.topo = named;
      classes =
        [|
          {
            C.Types.id = 0;
            src = 0;
            dst = 1;
            path = [| 0; 1 |];
            chain = [| Nf.Firewall; Nf.Ids |];
            src_block = C.Scenario.src_block_of_class_id 0;
            rate = 200.0;
          };
        |];
      host_cores = [| C.Types.default_host_cores; 0 |];
      seed = 0;
    }
  in
  let p = C.Optimization_engine.solve s in
  let asg = C.Subclass.assign s p in
  let built = C.Rule_generator.build s asg in
  (s, asg, built)

let check (s, asg, built) = V.check s asg built

let assert_certified name cfg =
  let r = check cfg in
  Alcotest.(check string) (name ^ " certifies") ""
    (if V.ok r then ""
     else Format.asprintf "%a" V.pp_report r);
  Alcotest.(check bool) (name ^ " walked") true (r.V.walks > 0)

let assert_flags code (s, asg, built) =
  let r = V.check s asg built in
  if V.count r code = 0 then
    Alcotest.failf "expected a %s violation, got: %s" (V.code_name code)
      (V.summary r);
  r

(* Every reported violation must carry a usable witness. *)
let assert_witnesses r =
  List.iter
    (fun v ->
      match v.V.witness with
      | V.Packet _ | V.Block _ -> ()
      | V.Note n ->
          Alcotest.(check bool) "note witness non-empty" true
            (String.length n > 0))
    r.V.violations

(* --- clean certification ------------------------------------------- *)

let test_certify_engines () =
  let s = H.small_scenario ~seed:77 ~total:3000.0 ~max_classes:20 () in
  let solvers =
    [
      ("shortest-paths", fun () -> C.Optimization_engine.solve s);
      ( "lp-round",
        fun () ->
          C.Optimization_engine.solve ~method_:C.Optimization_engine.Lp_round
            s );
      ("greedy", fun () -> C.Heuristic_engine.solve s);
    ]
  in
  List.iter
    (fun (name, solve) ->
      let asg = C.Subclass.assign s (solve ()) in
      let built = C.Rule_generator.build s asg in
      assert_certified ("internet2/" ^ name) (s, asg, built))
    solvers

let test_certify_topologies () =
  List.iter
    (fun named -> assert_certified named.B.label (fresh ~named ()))
    [ B.internet2 (); B.geant () ]

let test_certify_tag_modes () =
  let s = H.small_scenario ~seed:77 ~total:3000.0 ~max_classes:20 () in
  let asg = C.Subclass.assign s (C.Optimization_engine.solve s) in
  (* `Auto resolves to `Global here (the default mix has NAT chains);
     force `Local on a NAT-free scenario to cover the other mode. *)
  let built = C.Rule_generator.build s asg in
  Alcotest.(check bool) "seed mix needs global tags" true
    (built.C.Rule_generator.tag_mode = `Global);
  assert_certified "global" (s, asg, built);
  let s2, asg2, built2 = colocated () in
  Alcotest.(check bool) "nat-free chain stays local" true
    (built2.C.Rule_generator.tag_mode = `Local);
  assert_certified "local" (s2, asg2, built2)

(* --- mutation: dropped chain hop ----------------------------------- *)

(* Bypass the first instance of some vSwitch pipeline: the entry rule
   jumps straight to wherever that instance's own rule pointed. *)
let drop_hop net =
  let injected = ref false in
  Array.iter
    (fun t ->
      if not !injected then begin
        let rules = Tcam.vswitch_rules t in
        let next_of key i =
          List.find_opt
            (fun r -> r.R.v_key = key && r.R.v_port = R.From_instance i)
            rules
        in
        let rules' =
          List.map
            (fun r ->
              if !injected then r
              else
                match r.R.v_action with
                | R.To_instance i -> (
                    match next_of r.R.v_key i with
                    | Some nxt ->
                        injected := true;
                        { r with R.v_action = nxt.R.v_action }
                    | None -> r)
                | R.Back_to_network _ -> r)
            rules
        in
        if !injected then Tcam.set_vswitch t rules'
      end)
    net;
  Alcotest.(check bool) "mutation injected" true !injected

let test_dropped_hop () =
  let ((_, _, built) as cfg) = fresh () in
  drop_hop built.C.Rule_generator.network;
  let r = assert_flags V.Chain_order cfg in
  assert_witnesses r;
  (* The walk that skipped an NF must name the class it belongs to and
     carry a concrete packet from its source block. *)
  let v =
    List.find (fun v -> v.V.code = V.Chain_order) r.V.violations
  in
  Alcotest.(check bool) "violation names a class" true (v.V.class_id <> None);
  match v.V.witness with
  | V.Packet _ -> ()
  | _ -> Alcotest.fail "chain-order witness should be a packet"

(* --- mutation: reordered chain hops -------------------------------- *)

let test_reordered_hops () =
  let ((_, _, built) as cfg) = colocated () in
  (* Reverse the two-instance pipeline at switch 0:
     entry->i1->i2->out becomes entry->i2->i1->out. *)
  let t = built.C.Rule_generator.network.(0) in
  let rules = Tcam.vswitch_rules t in
  let entry_target =
    List.find_map
      (fun r ->
        match (r.R.v_port, r.R.v_action) with
        | R.From_network, R.To_instance i -> Some i
        | _ -> None)
      rules
  in
  let i1 = Option.get entry_target in
  let i2 =
    Option.get
      (List.find_map
         (fun r ->
           match (r.R.v_port, r.R.v_action) with
           | R.From_instance i, R.To_instance j when i = i1 -> Some j
           | _ -> None)
         rules)
  in
  let out =
    Option.get
      (List.find_map
         (fun r ->
           match (r.R.v_port, r.R.v_action) with
           | R.From_instance i, (R.Back_to_network _ as a) when i = i2 ->
               Some a
           | _ -> None)
         rules)
  in
  let rules' =
    List.map
      (fun r ->
        match r.R.v_port with
        | R.From_network | R.From_production_vm ->
            { r with R.v_action = R.To_instance i2 }
        | R.From_instance i when i = i2 ->
            { r with R.v_action = R.To_instance i1 }
        | R.From_instance i when i = i1 -> { r with R.v_action = out }
        | R.From_instance _ -> r)
      rules
  in
  Tcam.set_vswitch t rules';
  let r = assert_flags V.Chain_order cfg in
  assert_witnesses r

(* --- mutation: shadowed rule --------------------------------------- *)

let test_shadowed_rule () =
  let ((_, _, built) as cfg) = fresh () in
  let t =
    Array.to_list built.C.Rule_generator.network
    |> List.find (fun t -> Tcam.phys_rules t <> [])
  in
  (match Tcam.phys_rules t with
  | r :: _ as rules ->
      Tcam.set_phys t ({ r with R.priority = r.R.priority + 1 } :: rules)
  | [] -> assert false);
  let r = assert_flags V.Shadowed_rule cfg in
  assert_witnesses r

(* --- mutation: next hop rewired off the routing path ---------------- *)

let test_rewired_next_hop () =
  let ((_, _, built) as cfg) = fresh () in
  let net = built.C.Rule_generator.network in
  let injected = ref false in
  Array.iter
    (fun t ->
      if not !injected then
        let sw = Tcam.switch t in
        let rules' =
          List.map
            (fun r ->
              if !injected then r
              else
                match r.R.action with
                | R.Tag_and_forward { subclass; host = Apple_dataplane.Tag.Host _ } ->
                    (* The path is loopless, so pointing the forwarding
                       tag back at the current switch is always off the
                       remaining path. *)
                    injected := true;
                    { r with
                      R.action =
                        R.Tag_and_forward
                          { subclass; host = Apple_dataplane.Tag.Host sw } }
                | R.Fwd_to_host h when not !injected ->
                    injected := true;
                    { r with R.action = R.Fwd_to_host (h + 1) }
                | _ -> r)
            (Tcam.phys_rules t)
        in
        if !injected then Tcam.set_phys t rules')
    net;
  Alcotest.(check bool) "mutation injected" true !injected;
  let r = assert_flags V.Path_deviation cfg in
  assert_witnesses r

(* --- mutation: tag collision ---------------------------------------- *)

let test_tag_collision_duplicate () =
  let ((_, asg, built) as cfg) = fresh () in
  (* Allocate the same tag value to two different sub-classes. *)
  let subs = asg.C.Subclass.subclasses in
  (match subs with
  | a :: b :: _ ->
      let ta =
        Hashtbl.find built.C.Rule_generator.tag_of (C.Subclass.key a)
      in
      Hashtbl.replace built.C.Rule_generator.tag_of (C.Subclass.key b) ta
  | _ -> Alcotest.fail "need at least two sub-classes");
  let r = assert_flags V.Tag_collision cfg in
  assert_witnesses r

let test_tag_collision_overlap () =
  let ((_, _, built) as cfg) = fresh () in
  (* Duplicate a classification rule but stamp a different tag: the two
     overlapping rules now classify the same packets differently. *)
  let injected = ref false in
  Array.iter
    (fun t ->
      if not !injected then
        let rules = Tcam.phys_rules t in
        match
          List.find_opt
            (fun r ->
              match r.R.action with
              | R.Tag_and_forward _ | R.Tag_and_deliver _ -> true
              | _ -> false)
            rules
        with
        | Some r ->
            injected := true;
            let action' =
              match r.R.action with
              | R.Tag_and_forward { subclass; host } ->
                  R.Tag_and_forward { subclass = subclass + 1; host }
              | R.Tag_and_deliver { subclass; host } ->
                  R.Tag_and_deliver { subclass = subclass + 1; host }
              | a -> a
            in
            Tcam.set_phys t ({ r with R.action = action' } :: rules)
        | None -> ())
    built.C.Rule_generator.network;
  Alcotest.(check bool) "mutation injected" true !injected;
  let r = assert_flags V.Tag_collision cfg in
  assert_witnesses r;
  let v = List.find (fun v -> v.V.code = V.Tag_collision) r.V.violations in
  match v.V.witness with
  | V.Packet _ -> ()
  | _ -> Alcotest.fail "overlap witness should be a concrete packet"

(* --- mutation: overloaded instance ---------------------------------- *)

let test_overloaded_instance () =
  let ((s, _, _) as cfg) = fresh () in
  s.C.Types.classes.(0).C.Types.rate <-
    s.C.Types.classes.(0).C.Types.rate *. 50.0;
  let r = assert_flags V.Capacity cfg in
  assert_witnesses r

(* --- mutation: blackhole -------------------------------------------- *)

let test_blackhole () =
  let ((s, _, built) as cfg) = fresh () in
  (* Wipe the APPLE table of class 0's ingress switch: its traffic can
     match nothing there. *)
  let sw = s.C.Types.classes.(0).C.Types.path.(0) in
  Tcam.set_phys built.C.Rule_generator.network.(sw) [];
  let r = assert_flags V.Blackhole cfg in
  assert_witnesses r;
  (* The witness packet must come from the class's own source block. *)
  let v =
    List.find
      (fun v -> v.V.code = V.Blackhole && v.V.class_id <> None)
      r.V.violations
  in
  match (v.V.witness, v.V.class_id) with
  | V.Packet p, Some cid ->
      let b = s.C.Types.classes.(cid).C.Types.src_block in
      let shift = 32 - b.C.Types.Prefix.len in
      Alcotest.(check int) "witness src in class block"
        (b.C.Types.Prefix.addr lsr shift)
        (p.Apple_classifier.Header.src_ip lsr shift)
  | _ -> Alcotest.fail "blackhole witness should be a packet with a class"

(* --- mutation: forwarding loop -------------------------------------- *)

let test_forwarding_loop () =
  let ((_, _, built) as cfg) = fresh () in
  let injected = ref false in
  Array.iter
    (fun t ->
      if not !injected then
        let rules' =
          List.map
            (fun r ->
              match r.R.v_port with
              | R.From_instance i when not !injected ->
                  injected := true;
                  { r with R.v_action = R.To_instance i }
              | _ -> r)
            (Tcam.vswitch_rules t)
        in
        if !injected then Tcam.set_vswitch t rules')
    built.C.Rule_generator.network;
  Alcotest.(check bool) "mutation injected" true !injected;
  let r = assert_flags V.Forwarding_loop cfg in
  assert_witnesses r

(* --- mutation: isolation -------------------------------------------- *)

let test_isolation () =
  let ((_, asg, _) as cfg) = fresh () in
  (* Re-pin one sub-class stage to an instance of a different kind. *)
  let sub =
    List.find
      (fun sub -> Array.length sub.C.Subclass.hops > 0)
      asg.C.Subclass.subclasses
  in
  let key = C.Subclass.key sub in
  let current = Hashtbl.find asg.C.Subclass.instance_of (key, 0) in
  let wrong =
    List.find
      (fun i -> I.kind i <> I.kind current)
      asg.C.Subclass.instances
  in
  Hashtbl.replace asg.C.Subclass.instance_of (key, 0) wrong;
  let r = assert_flags V.Isolation cfg in
  assert_witnesses r

(* --- the host pipeline bound ----------------------------------------- *)

(* Stretch one sub-class's first vSwitch pipeline to [k] instances
   (1_000_000 .. 1_000_000 + k - 1, none provisioned) and ask both the
   gate and a concrete walk whether the pipeline is too long.  The
   unprovisioned instances make the gate report isolation and chain
   order either way; the pipeline-length verdicts are a forwarding loop
   from the gate and [Host_loop] from the walk, and they must agree:
   62 instances (63 lookups) pass, 63 fail. *)
let test_pipeline_bound () =
  let s, asg, built = fresh () in
  let net = built.C.Rule_generator.network in
  let c, sub, (src : Apple_classifier.Prefix_split.prefix) =
    List.concat_map
      (fun (c, reps) -> List.map (fun (sub, p) -> (c, sub, p)) reps)
      (C.Rule_generator.representatives s asg built)
    |> List.find (fun (_, sub, _) -> Array.length sub.C.Subclass.hops > 0)
  in
  let sw = c.C.Types.path.(sub.C.Subclass.hops.(0)) in
  let tag = Hashtbl.find built.C.Rule_generator.tag_of (C.Subclass.key sub) in
  let own r =
    match r.R.v_key with
    | R.Per_class { cls; subclass } -> cls = c.C.Types.id && subclass = tag
    | R.Global g -> g = tag
  in
  let mine, others = List.partition own (Tcam.vswitch_rules net.(sw)) in
  let key = (List.hd mine).R.v_key in
  let exit =
    List.find_map
      (fun r ->
        match r.R.v_action with
        | R.Back_to_network target -> Some target
        | R.To_instance _ -> None)
      mine
    |> Option.get
  in
  let inst j = 1_000_000 + j in
  let pipeline k =
    List.init (k + 1) (fun j ->
        {
          R.v_port =
            (if j = 0 then R.From_network else R.From_instance (inst (j - 1)));
          v_key = key;
          v_action =
            (if j = k then R.Back_to_network exit else R.To_instance (inst j));
        })
  in
  List.iter
    (fun k ->
      Tcam.set_vswitch net.(sw) (others @ pipeline k);
      let r = V.check s asg built in
      let gate_loop =
        List.exists
          (fun v ->
            v.V.code = V.Forwarding_loop
            && v.V.class_id = Some c.C.Types.id
            && v.V.sub_id = Some sub.C.Subclass.sub_id)
          r.V.violations
      in
      let walk =
        Apple_dataplane.Walk.run net ~path:(Array.to_list c.C.Types.path)
          ~cls:c.C.Types.id ~src_ip:src.Apple_classifier.Prefix_split.addr ()
      in
      let name = Printf.sprintf "%d instances" k in
      Alcotest.(check bool) (name ^ ": gate finds the pipeline too long")
        (k > 62) gate_loop;
      Alcotest.(check bool) (name ^ ": walk finds the pipeline too long")
        (k > 62)
        (match walk with
        | Error (Apple_dataplane.Walk.Host_loop _) -> true
        | Ok _ | Error _ -> false);
      if k <= 62 then
        Alcotest.(check bool) (name ^ ": walk completes") true
          (Result.is_ok walk))
    [ 62; 63 ]

(* --- shadowed rules against the pairwise definition ------------------ *)

module S = Apple_classifier.Src_set

let subsumes (a : R.phys_match) (b : R.phys_match) =
  (match (a.R.m_host, b.R.m_host) with
  | `Any, _ -> true
  | `Empty, `Empty | `Fin, `Fin -> true
  | `Host x, `Host y -> x = y
  | _ -> false)
  &&
  match (a.R.m_subclass, b.R.m_subclass) with
  | `Any, _ -> true
  | `Subclass x, `Subclass y -> x = y
  | `Subclass _, `Any -> false

(* Rule i is shadowed when the rules before it whose tag pattern
   subsumes its own claim its whole source set. *)
let pairwise_shadowed sw rules =
  let pred (r : R.phys_rule) =
    match r.R.pmatch.R.m_prefixes with [] -> S.full | ps -> S.of_prefixes ps
  in
  let rules = Array.of_list rules in
  List.concat
    (List.init (Array.length rules) (fun i ->
         let covered = ref S.empty in
         for j = 0 to i - 1 do
           if subsumes rules.(j).R.pmatch rules.(i).R.pmatch then
             covered := S.union !covered (pred rules.(j))
         done;
         if S.subset (pred rules.(i)) !covered then
           [ (sw, Format.asprintf "%a" R.pp_phys_rule rules.(i)) ]
         else []))

let installed = lazy (fresh ())

let prop_shadowed_pairwise =
  QCheck.Test.make ~name:"shadowed rules = pairwise definition" ~count:100
    ~long_factor:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let s, asg, _ = Lazy.force installed in
      let built = C.Rule_generator.build s asg in
      let net = built.C.Rule_generator.network in
      let rng = Apple_prelude.Rng.create seed in
      let n = Array.length net in
      let sw = Apple_prelude.Rng.int rng n in
      Tcam.set_phys net.(sw)
        (List.init (Apple_prelude.Rng.int rng 14) (fun _ ->
             Test_dataplane.gen_phys_rule rng ~n));
      let expected =
        List.concat
          (List.init n (fun sw ->
               pairwise_shadowed sw (Tcam.phys_rules net.(sw))))
      in
      let found =
        List.filter_map
          (fun v ->
            match (v.V.code, v.V.switch, v.V.witness) with
            | V.Shadowed_rule, Some sw, V.Note rule
              when String.starts_with ~prefix:"rule can never match"
                     v.V.detail ->
                Some (sw, rule)
            | _ -> None)
          (V.check s asg built).V.violations
      in
      found = expected)

(* --- the controller gate -------------------------------------------- *)

let test_gate () =
  let s, asg, built = fresh () in
  (match V.gate s asg built with
  | Ok () -> ()
  | Error e -> Alcotest.failf "clean configuration rejected: %s" e);
  Tcam.set_phys built.C.Rule_generator.network.(s.C.Types.classes.(0).C.Types.path.(0)) [];
  (match V.gate s asg built with
  | Ok () -> Alcotest.fail "corrupted configuration admitted"
  | Error e ->
      Alcotest.(check bool) "rejection names the fault" true
        (let rec contains i =
           i + 9 <= String.length e
           && (String.sub e i 9 = "blackhole" || contains (i + 1))
         in
         contains 0))

let test_controller_gate () =
  let s = H.small_scenario ~seed:77 ~total:3000.0 ~max_classes:20 () in
  (* A real verify gate admits the epoch... *)
  let c = C.Controller.create ~gate:V.gate s in
  let _report = C.Controller.run_epoch c in
  (* ...and a refusing gate rejects it without installing anything. *)
  let c2 = C.Controller.create ~gate:(fun ?changed:_ _ _ _ -> Error "nope") s in
  (match C.Controller.run_epoch c2 with
  | exception C.Controller.Rejected m ->
      Alcotest.(check string) "rejection message" "nope" m
  | _ -> Alcotest.fail "refusing gate did not reject the epoch");
  Alcotest.(check bool) "no netstate installed" true
    (C.Controller.netstate c2 = None)

let suite =
  [
    Alcotest.test_case "clean configs certify (engines)" `Quick
      test_certify_engines;
    Alcotest.test_case "clean configs certify (topologies)" `Quick
      test_certify_topologies;
    Alcotest.test_case "clean configs certify (tag modes)" `Quick
      test_certify_tag_modes;
    Alcotest.test_case "mutation: dropped chain hop" `Quick test_dropped_hop;
    Alcotest.test_case "mutation: reordered chain hops" `Quick
      test_reordered_hops;
    Alcotest.test_case "mutation: shadowed rule" `Quick test_shadowed_rule;
    Alcotest.test_case "mutation: next hop off the path" `Quick
      test_rewired_next_hop;
    Alcotest.test_case "mutation: duplicate tag" `Quick
      test_tag_collision_duplicate;
    Alcotest.test_case "mutation: overlapping classification" `Quick
      test_tag_collision_overlap;
    Alcotest.test_case "mutation: overloaded instance" `Quick
      test_overloaded_instance;
    Alcotest.test_case "mutation: blackhole" `Quick test_blackhole;
    Alcotest.test_case "mutation: forwarding loop" `Quick
      test_forwarding_loop;
    Alcotest.test_case "mutation: foreign instance pinned" `Quick
      test_isolation;
    Alcotest.test_case "gate and walk share the host pipeline bound" `Quick
      test_pipeline_bound;
    QCheck_alcotest.to_alcotest prop_shadowed_pairwise;
    Alcotest.test_case "gate rejects corrupted tables" `Quick test_gate;
    Alcotest.test_case "controller honors the gate" `Quick
      test_controller_gate;
  ]
