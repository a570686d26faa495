module Header = Apple_classifier.Header
module Prefix = Apple_classifier.Prefix_split
module S = Apple_classifier.Src_set
module Rule = Apple_dataplane.Rule
module Tag = Apple_dataplane.Tag
module Tcam = Apple_dataplane.Tcam
module Walk = Apple_dataplane.Walk
module Nf = Apple_vnf.Nf
module Instance = Apple_vnf.Instance
module Types = Apple_core.Types
module Subclass = Apple_core.Subclass
module Rule_generator = Apple_core.Rule_generator
module T = Apple_telemetry.Telemetry

let tr_check = Apple_trace.Trace.span ~cat:"verify" "verify.check"
let m_walks = T.Counter.create "apple.verify.walks"
let m_violations = T.Counter.create "apple.verify.violations"
let m_certified = T.Counter.create "apple.verify.certified"

type code =
  | Chain_order
  | Path_deviation
  | Blackhole
  | Forwarding_loop
  | Shadowed_rule
  | Tag_collision
  | Isolation
  | Capacity
  | Unverified

let code_name = function
  | Chain_order -> "chain-order"
  | Path_deviation -> "path-deviation"
  | Blackhole -> "blackhole"
  | Forwarding_loop -> "forwarding-loop"
  | Shadowed_rule -> "shadowed-rule"
  | Tag_collision -> "tag-collision"
  | Isolation -> "isolation"
  | Capacity -> "capacity"
  | Unverified -> "unverified"

let all_codes =
  [
    Chain_order; Path_deviation; Blackhole; Forwarding_loop; Shadowed_rule;
    Tag_collision; Isolation; Capacity; Unverified;
  ]

type witness =
  | Packet of Header.packet
  | Block of Prefix.prefix
  | Note of string

type violation = {
  code : code;
  class_id : int option;
  sub_id : int option;
  switch : int option;
  witness : witness;
  detail : string;
}

type report = {
  violations : violation list;
  subclasses : int;
  walks : int;
  phys_rules : int;
  vswitch_rules : int;
  instances : int;
}

let pp_witness ppf = function
  | Packet p -> Format.fprintf ppf "packet %a" Header.pp_packet p
  | Block b -> Format.fprintf ppf "block %a" Prefix.pp_prefix b
  | Note s -> Format.pp_print_string ppf s

let pp_violation ppf v =
  Format.fprintf ppf "[%s]" (code_name v.code);
  Option.iter (fun c -> Format.fprintf ppf " class %d" c) v.class_id;
  Option.iter (fun s -> Format.fprintf ppf " sub %d" s) v.sub_id;
  Option.iter (fun sw -> Format.fprintf ppf " switch %d" sw) v.switch;
  Format.fprintf ppf ": %s (witness: %a)" v.detail pp_witness v.witness

let ok r = r.violations = []
let count r code = List.length (List.filter (fun v -> v.code = code) r.violations)

let summary r =
  if ok r then
    Printf.sprintf
      "certified: %d sub-classes, %d walks, %d+%d rules, %d instances — 0 \
       violations"
      r.subclasses r.walks r.phys_rules r.vswitch_rules r.instances
  else
    let tally =
      List.filter_map
        (fun c ->
          match count r c with
          | 0 -> None
          | n -> Some (Printf.sprintf "%d %s" n (code_name c)))
        all_codes
    in
    Printf.sprintf "%d violation(s): %s"
      (List.length r.violations)
      (String.concat ", " tally)

let pp_report ppf r =
  Format.fprintf ppf "%s@." (summary r);
  List.iter (fun v -> Format.fprintf ppf "  %a@." pp_violation v) r.violations

(* ------------------------------------------------------------------ *)

(* Symbolic walk state: the source-address set is the only symbolic
   dimension (rules stamp concrete tags), so tags/instances stay concrete
   per branch. *)
type walk_state = {
  pred : S.t;  (* source addresses still following this branch *)
  host : Tag.host_field;
  subcls : int option;
  header_valid : bool;  (* false once a rewriting NF touched the packet *)
  insts : int list;  (* visited instances, reverse order *)
}

let host_matches pattern (host : Tag.host_field) =
  match (pattern, host) with
  | `Any, _ -> true
  | `Empty, Tag.Empty -> true
  | `Fin, Tag.Fin -> true
  | `Host h, Tag.Host h' -> h = h'
  | (`Empty | `Fin | `Host _), _ -> false

let subclass_matches pattern sub =
  match (pattern, sub) with
  | `Any, _ -> true
  | `Subclass s, Some s' -> s = s'
  | `Subclass _, None -> false

(* [a] claims every packet [b] can match, over the tag dimensions. *)
let pattern_subsumes (a : Rule.phys_match) (b : Rule.phys_match) =
  (match (a.Rule.m_host, b.Rule.m_host) with
  | `Any, _ -> true
  | `Empty, `Empty | `Fin, `Fin -> true
  | `Host x, `Host y -> x = y
  | (`Empty | `Fin | `Host _), _ -> false)
  &&
  match (a.Rule.m_subclass, b.Rule.m_subclass) with
  | `Any, _ -> true
  | `Subclass x, `Subclass y -> x = y
  | `Subclass _, `Any -> false

(* Some packet can match both [a] and [b] (tag dimensions only). *)
let patterns_overlap (a : Rule.phys_match) (b : Rule.phys_match) =
  (match (a.Rule.m_host, b.Rule.m_host) with
  | `Any, _ | _, `Any -> true
  | `Empty, `Empty | `Fin, `Fin -> true
  | `Host x, `Host y -> x = y
  | (`Empty | `Fin | `Host _), _ -> false)
  &&
  match (a.Rule.m_subclass, b.Rule.m_subclass) with
  | `Any, _ | _, `Any -> true
  | `Subclass x, `Subclass y -> x = y

let phys_action_equal (a : Rule.phys_action) (b : Rule.phys_action) =
  match (a, b) with
  | Rule.Fwd_to_host x, Rule.Fwd_to_host y -> x = y
  | ( Rule.Tag_and_deliver { subclass = s1; host = h1 },
      Rule.Tag_and_deliver { subclass = s2; host = h2 } ) ->
      s1 = s2 && h1 = h2
  | ( Rule.Tag_and_forward { subclass = s1; host = h1 },
      Rule.Tag_and_forward { subclass = s2; host = h2 } ) ->
      s1 = s2 && h1 = h2
  | Rule.Set_host_and_forward x, Rule.Set_host_and_forward y -> x = y
  | Rule.Goto_next, Rule.Goto_next -> true
  | ( ( Rule.Fwd_to_host _ | Rule.Tag_and_deliver _ | Rule.Tag_and_forward _
      | Rule.Set_host_and_forward _ | Rule.Goto_next ),
      _ ) ->
      false

let vswitch_key_id = function
  | Rule.Per_class { cls; subclass } -> (cls, subclass)
  | Rule.Global g -> (-1, g)

let walk_branch_budget = 4096

(* Multiplicative headroom allowed on instance capacity, matching
   [Subclass.instance_load_ok]. *)
let slack = 1.0001

(* Each section below reports through a [finding] and returns its
   violations in detection order; [check] concatenates the sections. *)
type finding =
  ?class_id:int ->
  ?sub_id:int ->
  ?switch:int ->
  witness:witness ->
  code ->
  string ->
  unit

let collect (section : finding -> unit) =
  let out = ref [] in
  section (fun ?class_id ?sub_id ?switch ~witness code detail ->
      out := { code; class_id; sub_id; switch; witness; detail } :: !out);
  List.rev !out

(* A rule with no prefixes matches any source address; a sub-class with
   no prefixes owns no traffic ([S.of_prefixes []] is empty). *)
let rule_pred = function [] -> S.full | ps -> S.of_prefixes ps

let packet_witness pred =
  match S.witness pred with
  | Some p -> Packet p
  | None -> Note "empty header set"

(* Per-switch (rule, predicate) arrays in match order, built on first
   use. *)
type table_preds = (Rule.phys_rule * S.t) array Lazy.t array

let table_preds net : table_preds =
  Array.map
    (fun table ->
      lazy
        (Array.of_list
           (List.map
              (fun r -> (r, rule_pred r.Rule.pmatch.Rule.m_prefixes))
              (Tcam.phys_rules table))))
    net

let same_pattern a b = pattern_subsumes a b && pattern_subsumes b a

(* --- table well-formedness: fully-shadowed physical rules ----------- *)

(* A rule is shadowed when the earlier rules whose tag pattern subsumes
   its own claim its whole source set.  One running union per distinct
   (m_host, m_subclass) pattern seen so far makes a table's pass
   O(rules x patterns) set operations. *)
let shadowed_rules ~in_scope (preds : table_preds) =
  collect @@ fun add ->
  Array.iteri
    (fun sw table ->
      if in_scope sw then begin
        let unions = ref [] in
        Array.iter
          (fun ((r : Rule.phys_rule), p) ->
            let m = r.Rule.pmatch in
            let covered =
              List.fold_left
                (fun acc (m', u) ->
                  if pattern_subsumes m' m then S.union acc !u else acc)
                S.empty !unions
            in
            if S.subset p covered then
              add ~switch:sw
                ~witness:(Note (Format.asprintf "%a" Rule.pp_phys_rule r))
                Shadowed_rule
                "rule can never match: higher-priority rules claim its \
                 entire match set";
            match List.find_opt (fun (m', _) -> same_pattern m' m) !unions with
            | Some (_, u) -> u := S.union !u p
            | None -> unions := (m, ref p) :: !unions)
          (Lazy.force table)
      end)
    preds

(* --- table well-formedness: vSwitch pipelines ----------------------- *)

(* The action of a key's rule for [port]; a group holds one per port. *)
let rec port_action port = function
  | [] -> None
  | (r : Rule.vswitch_rule) :: rest ->
      if Rule.vswitch_port_id r.v_port = port then Some r.v_action
      else port_action port rest

(* Repeated (port, key) rules in match order, then each key's pipelines
   from its entry ports, keys in first-seen order. *)
let vswitch_pipelines ~in_scope (net : Tcam.network) =
  collect @@ fun add ->
  Array.iteri
    (fun sw table ->
      match if in_scope sw then Tcam.vswitch_rules table else [] with
      | [] -> ()
      | rules ->
          (* Each key's rules, the first of each port only, newest first. *)
          let groups = Hashtbl.create 16 and keys = ref [] in
          List.iter
            (fun (r : Rule.vswitch_rule) ->
              match Hashtbl.find_opt groups r.v_key with
              | None ->
                  Hashtbl.add groups r.v_key (ref [ r ]);
                  keys := r.v_key :: !keys
              | Some group -> (
                  match port_action (Rule.vswitch_port_id r.v_port) !group with
                  | None -> group := r :: !group
                  | Some _ ->
                      add ~switch:sw
                        ~witness:
                          (Note (Format.asprintf "%a" Rule.pp_vswitch_rule r))
                        Shadowed_rule
                        "vSwitch rule repeats an earlier (port, key) match \
                         and can never fire"))
            rules;
          List.iter
            (fun key ->
              let group = !(Hashtbl.find groups key) in
              let note what port =
                let k1, k2 = vswitch_key_id key in
                Note (Printf.sprintf "key (%d,%d) %s %d" k1 k2 what port)
              in
              let rec follow visited port =
                if List.mem port visited then
                  add ~switch:sw
                    ~witness:(note "revisits port" port)
                    Forwarding_loop "vSwitch pipeline loops between instances"
                else
                  match port_action port group with
                  | None ->
                      add ~switch:sw
                        ~witness:(note "has no rule for instance port" port)
                        Blackhole
                        "vSwitch pipeline dead-ends before Back_to_network"
                  | Some (Rule.To_instance i) -> follow (port :: visited) i
                  | Some (Rule.Back_to_network _) -> ()
              in
              (* The entry ports, From_network (-1) and From_production_vm
                 (-2), in install order. *)
              List.fold_left
                (fun entries (r : Rule.vswitch_rule) ->
                  match Rule.vswitch_port_id r.v_port with
                  | (-1 | -2) as port -> port :: entries
                  | _ -> entries)
                [] group
              |> List.iter (follow []))
            (List.rev !keys))
    net

(* --- tag space ------------------------------------------------------ *)

let tag_of (built : Rule_generator.built) sub =
  match Hashtbl.find_opt built.Rule_generator.tag_of (Subclass.key sub) with
  | Some t -> t
  | None -> (
      match built.Rule_generator.tag_mode with
      | `Local -> sub.Subclass.sub_id
      | `Global -> -1)

let tag_space (built : Rule_generator.built) (asg : Subclass.assignment) =
  collect @@ fun add ->
  let seen_tags : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (sub : Subclass.subclass) ->
      let t = tag_of built sub in
      let class_id = sub.Subclass.class_id and sub_id = sub.Subclass.sub_id in
      if t < 0 || t >= Tag.max_subclasses then
        add ~class_id ~sub_id
          ~witness:(Note (Printf.sprintf "tag value %d" t))
          Tag_collision
          (Printf.sprintf "sub-class tag outside the %d-bit tag field"
             Tag.subclass_bits);
      let bucket =
        match built.Rule_generator.tag_mode with
        | `Global -> (-1, t)
        | `Local -> (class_id, t)
      in
      match Hashtbl.find_opt seen_tags bucket with
      | Some owner when owner <> Subclass.key sub ->
          add ~class_id ~sub_id
            ~witness:(Note (Printf.sprintf "tag value %d" t))
            Tag_collision
            (Printf.sprintf
               "tag already stamped for sub-class key %d: pipelines would mix"
               owner)
      | Some _ -> ()
      | None -> Hashtbl.add seen_tags bucket (Subclass.key sub))
    asg.Subclass.subclasses

(* --- classifier overlaps -------------------------------------------- *)

(* Overlapping classification rules stamping different tags capture
   each other's traffic no matter the priority tie-break. *)
let classifier_overlaps ~in_scope (preds : table_preds) =
  collect @@ fun add ->
  Array.iteri
    (fun sw table ->
      let classify =
        if not (in_scope sw) then []
        else
          Array.to_list (Lazy.force table)
          |> List.filter (fun ((r : Rule.phys_rule), _) ->
                 match r.Rule.action with
                 | Rule.Tag_and_deliver _ | Rule.Tag_and_forward _ -> true
                 | Rule.Fwd_to_host _ | Rule.Set_host_and_forward _
                 | Rule.Goto_next ->
                     false)
      in
      let rec pairs = function
        | [] -> ()
        | (r1, p1) :: rest ->
            List.iter
              (fun (r2, p2) ->
                if
                  patterns_overlap r1.Rule.pmatch r2.Rule.pmatch
                  && not (phys_action_equal r1.Rule.action r2.Rule.action)
                then begin
                  let inter = S.inter p1 p2 in
                  if not (S.is_empty inter) then
                    add ~switch:sw ~witness:(packet_witness inter)
                      Tag_collision
                      (Format.asprintf
                         "classification rules overlap with different \
                          actions: {%a} vs {%a}"
                         Rule.pp_phys_rule r1 Rule.pp_phys_rule r2)
                end)
              rest;
            pairs rest
      in
      pairs classify)
    preds

(* --- per-sub-class symbolic walks ----------------------------------- *)

let rec crosses in_scope (path : int array) i =
  i < Array.length path && (in_scope path.(i) || crosses in_scope path (i + 1))

(* Walks every sub-class of the classes whose path crosses a switch in
   scope; returns the violations and the number of walks completed. *)
let subclass_walks ~in_scope (s : Types.scenario) (asg : Subclass.assignment)
    (built : Rule_generator.built) (preds : table_preds) =
  let net = built.Rule_generator.network in
  let inst_by_id = Hashtbl.create 64 in
  List.iter
    (fun i -> Hashtbl.replace inst_by_id (Instance.id i) i)
    asg.Subclass.instances;
  let by_class = Rule_generator.by_class s asg in
  let walks = ref 0 in
  let violations =
    collect @@ fun add ->
    Array.iter
      (fun (c : Types.flow_class) ->
        let class_id = c.Types.id in
        let subs = by_class.(class_id) in
        if subs <> [] && crosses in_scope c.Types.path 0 then begin
          let prefixes =
            Rule_generator.subclass_prefixes c subs
              ~depth:built.Rule_generator.split_depth
          in
          let chain = Array.to_list c.Types.chain in
          let some_class = Some class_id in
          let plen = Array.length c.Types.path in
          let on_remaining_path h i =
            let rec go j = j < plen && (c.Types.path.(j) = h || go (j + 1)) in
            go (i + 1)
          in
          List.iteri
            (fun s_idx (sub : Subclass.subclass) ->
              let sub_id = sub.Subclass.sub_id in
              let pred0 = S.of_prefixes prefixes.(s_idx) in
              if not (S.is_empty pred0) then begin
                let expected_tag = tag_of built sub in
                let expected_insts = Subclass.pinned asg sub in
                let budget = ref walk_branch_budget in
                let deviation st sw detail =
                  add ~class_id ~sub_id ~switch:sw
                    ~witness:(packet_witness st.pred) Path_deviation detail
                in
                let finish st =
                  incr walks;
                  let got = List.rev st.insts in
                  List.iter
                    (fun id ->
                      if not (Hashtbl.mem inst_by_id id) then
                        add ~class_id ~sub_id ~witness:(packet_witness st.pred)
                          Isolation
                          (Printf.sprintf
                             "walk visits instance %d, which the assignment \
                              never provisioned"
                             id))
                    got;
                  let kinds =
                    List.filter_map
                      (fun id ->
                        Option.map Instance.kind
                          (Hashtbl.find_opt inst_by_id id))
                      got
                  in
                  if kinds <> chain then
                    add ~class_id ~sub_id ~witness:(packet_witness st.pred)
                      Chain_order
                      (Printf.sprintf "chain %s enforced as %s"
                         (Nf.chain_to_string chain)
                         (Nf.chain_to_string kinds));
                  (match st.subcls with
                  | Some t when t <> expected_tag ->
                      add ~class_id ~sub_id ~witness:(packet_witness st.pred)
                        Tag_collision
                        (Printf.sprintf
                           "traffic classified with tag %d but this sub-class \
                            owns tag %d"
                           t expected_tag)
                  | Some _ ->
                      (* Correctly tagged: the walk must use exactly the
                         pinned instances (isolation at the walk level). *)
                      if List.length got = Array.length expected_insts then
                        List.iteri
                          (fun j id ->
                            match expected_insts.(j) with
                            | Some inst when Instance.id inst <> id ->
                                add ~class_id ~sub_id
                                  ~witness:(packet_witness st.pred) Isolation
                                  (Printf.sprintf
                                     "stage %d served by instance %d instead \
                                      of pinned instance %d"
                                     j id (Instance.id inst))
                            | Some _ | None -> ())
                          got
                  | None -> ());
                  match (st.subcls, st.host) with
                  | Some _, Tag.Fin -> ()
                  | Some _, h ->
                      add ~class_id ~sub_id
                        ~witness:(packet_witness st.pred) Path_deviation
                        (Format.asprintf
                           "classified walk ends with host tag %a instead of \
                            fin: remaining processing would leave the routing \
                            path"
                           Tag.pp_host_field h)
                  | None, _ -> ()
                in
                let rec hop st i =
                  if !budget <= 0 then ()
                  else if i >= plen then finish st
                  else begin
                    let sw = c.Types.path.(i) in
                    let preds = Lazy.force preds.(sw) in
                    let residual = ref st.pred in
                    Array.iter
                      (fun ((r : Rule.phys_rule), rp) ->
                        if
                          (not (S.is_empty !residual))
                          && host_matches r.Rule.pmatch.Rule.m_host st.host
                          && subclass_matches r.Rule.pmatch.Rule.m_subclass
                               st.subcls
                        then begin
                          let hit = S.inter !residual rp in
                          if not (S.is_empty hit) then begin
                            residual := S.diff !residual hit;
                            decr budget;
                            apply { st with pred = hit } r.Rule.action sw i
                          end
                        end)
                      preds;
                    if not (S.is_empty !residual) then
                      add ~class_id ~sub_id ~switch:sw
                        ~witness:(packet_witness !residual) Blackhole
                        (Printf.sprintf "no rule matches at switch %d (hop %d)"
                           sw i)
                  end
                and apply st action sw i =
                  match action with
                  | Rule.Goto_next -> hop st (i + 1)
                  | Rule.Fwd_to_host h ->
                      if h <> sw then
                        deviation st sw
                          (Printf.sprintf
                             "switch %d asked to deliver to non-local host %d"
                             sw h)
                      else host_walk st sw i
                  | Rule.Tag_and_deliver { subclass; host } ->
                      let st = { st with subcls = Some subclass } in
                      if host <> sw then
                        deviation st sw
                          (Printf.sprintf
                             "switch %d asked to deliver to non-local host %d"
                             sw host)
                      else host_walk st sw i
                  | Rule.Tag_and_forward { subclass; host } ->
                      forward { st with subcls = Some subclass } host sw i
                  | Rule.Set_host_and_forward host -> forward st host sw i
                and forward st target sw i =
                  match target with
                  | Tag.Host h when not (on_remaining_path h i) ->
                      deviation st sw
                        (Printf.sprintf
                           "forwarding tag rewires the next hop to host %d, \
                            off the remaining routing path"
                           h)
                  | _ -> hop { st with host = target } (i + 1)
                and host_walk st sw i =
                  match st.subcls with
                  | None ->
                      add ~class_id ~sub_id ~switch:sw
                        ~witness:(packet_witness st.pred) Blackhole
                        "untagged packet delivered to an APPLE host"
                  | Some tag ->
                      let table = net.(sw) in
                      let insts = ref st.insts in
                      let header_valid = ref st.header_valid in
                      let lookups = ref 0 in
                      let rec step port =
                        incr lookups;
                        if !lookups > Walk.host_lookup_limit then
                          add ~class_id ~sub_id ~switch:sw
                            ~witness:(packet_witness st.pred) Forwarding_loop
                            "vSwitch pipeline never returns the packet to the \
                             network"
                        else begin
                          let cls = if !header_valid then some_class else None in
                          match
                            Tcam.lookup_vswitch table port ~cls ~subclass:tag
                          with
                          | None ->
                              add ~class_id ~sub_id ~switch:sw
                                ~witness:(packet_witness st.pred) Blackhole
                                (Printf.sprintf
                                   "vSwitch miss at switch %d for tag %d" sw
                                   tag)
                          | Some (Rule.To_instance inst) ->
                              insts := inst :: !insts;
                              (match Hashtbl.find_opt inst_by_id inst with
                              | Some i
                                when Nf.rewrites_header (Instance.kind i) ->
                                  header_valid := false
                              | Some _ | None -> ());
                              step (Rule.From_instance inst)
                          | Some (Rule.Back_to_network target) ->
                              forward
                                {
                                  st with
                                  insts = !insts;
                                  header_valid = !header_valid;
                                }
                                target sw i
                        end
                      in
                      step Rule.From_network
                in
                hop
                  {
                    pred = pred0;
                    host = Tag.Empty;
                    subcls = None;
                    header_valid = true;
                    insts = [];
                  }
                  0;
                if !budget <= 0 then
                  add ~class_id ~sub_id
                    ~witness:(Block (List.hd prefixes.(s_idx)))
                    Unverified
                    "symbolic branch budget exhausted before certifying the \
                     sub-class"
              end)
            subs
        end)
      s.Types.classes
  in
  (violations, !walks)

(* --- isolation & capacity ------------------------------------------- *)

let isolation_and_capacity (s : Types.scenario) (asg : Subclass.assignment) =
  collect @@ fun add ->
  let offered : (int, float ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (sub : Subclass.subclass) ->
      let class_id = sub.Subclass.class_id and sub_id = sub.Subclass.sub_id in
      let c = s.Types.classes.(class_id) in
      let share = c.Types.rate *. sub.Subclass.weight in
      let pins = Subclass.pinned asg sub in
      let seen_stage = ref [] in
      Array.iteri
        (fun j pin ->
          match pin with
          | None ->
              add ~class_id ~sub_id
                ~witness:(Note (Printf.sprintf "stage %d" j))
                Isolation "chain stage has no pinned instance"
          | Some inst ->
              let id = Instance.id inst in
              if Instance.kind inst <> c.Types.chain.(j) then
                add ~class_id ~sub_id
                  ~witness:
                    (Note
                       (Printf.sprintf "instance %d is a %s" id
                          (Nf.name (Instance.kind inst))))
                  Isolation
                  (Printf.sprintf "stage %d needs a %s instance" j
                     (Nf.name c.Types.chain.(j)));
              let hop_sw = c.Types.path.(sub.Subclass.hops.(j)) in
              if Instance.host inst <> hop_sw then
                add ~class_id ~sub_id ~switch:hop_sw
                  ~witness:
                    (Note
                       (Printf.sprintf "instance %d lives at switch %d" id
                          (Instance.host inst)))
                  Isolation
                  (Printf.sprintf
                     "stage %d pinned to an instance off its hop switch %d" j
                     hop_sw);
              if List.mem id !seen_stage then
                add ~class_id ~sub_id
                  ~witness:(Note (Printf.sprintf "instance %d" id))
                  Isolation "one instance serves two positions of the chain";
              seen_stage := id :: !seen_stage;
              let cell =
                match Hashtbl.find_opt offered id with
                | Some r -> r
                | None ->
                    let r = ref 0.0 in
                    Hashtbl.add offered id r;
                    r
              in
              cell := !cell +. share)
        pins)
    asg.Subclass.subclasses;
  List.iter
    (fun inst ->
      let id = Instance.id inst in
      let load =
        match Hashtbl.find_opt offered id with Some r -> !r | None -> 0.0
      in
      let cap = (Instance.spec inst).Nf.capacity_mbps in
      if load > (slack *. cap) +. 1e-6 then
        add
          ~witness:
            (Note
               (Printf.sprintf "instance %d at switch %d: %.1f / %.1f Mbps" id
                  (Instance.host inst) load cap))
          Capacity
          "summed sub-class portions exceed the instance's capacity")
    asg.Subclass.instances

(* Membership in [changed]; every switch when it is absent. *)
let scope net = function
  | None -> fun _ -> true
  | Some changed ->
      let member = Array.make (Array.length net) false in
      List.iter
        (fun sw -> if sw >= 0 && sw < Array.length member then member.(sw) <- true)
        changed;
      fun sw -> member.(sw)

let check ?changed (s : Types.scenario) (asg : Subclass.assignment)
    (built : Rule_generator.built) =
  Apple_trace.Trace.with_ tr_check @@ fun () ->
  let net = built.Rule_generator.network in
  let in_scope = scope net changed in
  let preds = table_preds net in
  let shadowed = shadowed_rules ~in_scope preds in
  let pipelines = vswitch_pipelines ~in_scope net in
  let tags = tag_space built asg in
  let overlaps = classifier_overlaps ~in_scope preds in
  let walked, walks = subclass_walks ~in_scope s asg built preds in
  let capacity = isolation_and_capacity s asg in
  let report =
    {
      violations =
        List.concat [ shadowed; pipelines; tags; overlaps; walked; capacity ];
      subclasses = List.length asg.Subclass.subclasses;
      walks;
      phys_rules =
        Array.fold_left
          (fun acc t -> acc + List.length (Tcam.phys_entries t))
          0 net;
      vswitch_rules = Tcam.total_vswitch net;
      instances = List.length asg.Subclass.instances;
    }
  in
  if T.enabled () then begin
    T.Counter.add m_walks report.walks;
    T.Counter.add m_violations (List.length report.violations);
    if ok report then T.Counter.incr m_certified
  end;
  report

let gate ?changed s asg built =
  let r = check ?changed s asg built in
  if ok r then Ok ()
  else
    let head =
      match r.violations with
      | v :: _ -> Format.asprintf " — first: %a" pp_violation v
      | [] -> ""
    in
    Error (summary r ^ head)
