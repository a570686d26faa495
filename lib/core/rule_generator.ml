module Prefix = Apple_classifier.Prefix_split
module Tcam = Apple_dataplane.Tcam
module Rule = Apple_dataplane.Rule
module Tag = Apple_dataplane.Tag
module Graph = Apple_topology.Graph
module Builders = Apple_topology.Builders
module Instance = Apple_vnf.Instance
module T = Apple_telemetry.Telemetry

let m_tcam_tagged = T.Counter.create "apple.rules.tcam_tagged"
let m_tcam_untagged = T.Counter.create "apple.rules.tcam_untagged"
let m_vswitch = T.Counter.create "apple.rules.vswitch"

type tag_mode = [ `Local | `Global ]

type built = {
  network : Tcam.network;
  tcam_with_tagging : int;
  tcam_without_tagging : int;
  vswitch_rules : int;
  split_depth : int;
  tag_mode : tag_mode;
  global_tags_used : int;
  tag_of : (int, int) Hashtbl.t;
}

let needs_global_tags (s : Types.scenario) =
  Array.exists
    (fun c -> Array.exists Apple_vnf.Nf.rewrites_header c.Types.chain)
    s.Types.classes

let subclass_prefixes (cls : Types.flow_class) subs ~depth =
  let weights = Array.of_list (List.map (fun s -> s.Subclass.weight) subs) in
  Prefix.split ~base:cls.Types.src_block ~weights ~depth

(* The assignment's sub-classes grouped by class id, each group in
   assignment order: filled from the end of the assignment, so every
   cell is allocated once. *)
let by_class (s : Types.scenario) (assignment : Subclass.assignment) =
  let groups = Array.make (Array.length s.Types.classes) [] in
  List.fold_right
    (fun sub () ->
      groups.(sub.Subclass.class_id) <- sub :: groups.(sub.Subclass.class_id))
    assignment.Subclass.subclasses ();
  groups

let representatives s assignment built =
  let groups = by_class s assignment in
  Array.to_list s.Types.classes
  |> List.filter_map (fun (c : Types.flow_class) ->
         match groups.(c.Types.id) with
         | [] -> None
         | subs ->
             let prefixes = subclass_prefixes c subs ~depth:built.split_depth in
             let first i sub =
               match prefixes.(i) with [] -> None | p :: _ -> Some (sub, p)
             in
             Some (c, List.filter_map Fun.id (List.mapi first subs)))

(* Distinct hops of a sub-class, in traversal order, with per-hop stage
   lists (consecutive stages processed in the same host). *)
let hop_groups (sub : Subclass.subclass) =
  let groups = ref [] in
  Array.iteri
    (fun j i ->
      match !groups with
      | (i', stages) :: rest when i' = i -> groups := (i', j :: stages) :: rest
      | _ -> groups := (i, [ j ]) :: !groups)
    sub.Subclass.hops;
  List.rev_map (fun (i, stages) -> (i, List.rev stages)) !groups

let tr_build = Apple_trace.Trace.span ~cat:"rulegen" "rulegen.build"

let build ?(split_depth = 6) ?(tag_mode = `Auto) (s : Types.scenario)
    (assignment : Subclass.assignment) =
  Apple_trace.Trace.with_ tr_build @@ fun () ->
  let mode : tag_mode =
    match tag_mode with
    | `Local -> `Local
    | `Global -> `Global
    | `Auto -> if needs_global_tags s then `Global else `Local
  in
  let g = s.Types.topo.Builders.graph in
  let n = Graph.num_nodes g in
  let network = Tcam.network ~num_switches:n in
  let classes = s.Types.classes in
  (* Dense global sub-class ids, allocated lazily in [`Global] mode so
     they fit the 12-bit tag field. *)
  let global_ids : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let tag_table : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let next_global = ref 0 in
  let tag_value (sub : Subclass.subclass) =
    let key = Subclass.key sub in
    let value =
      match mode with
      | `Local -> sub.Subclass.sub_id
      | `Global -> (
          match Hashtbl.find_opt global_ids key with
          | Some gid -> gid
          | None ->
              let gid = !next_global in
              incr next_global;
              Hashtbl.add global_ids key gid;
              gid)
    in
    if not (Hashtbl.mem tag_table key) then Hashtbl.add tag_table key value;
    value
  in
  let vswitch_key (c : Types.flow_class) sub =
    match mode with
    | `Local ->
        Rule.Per_class { cls = c.Types.id; subclass = sub.Subclass.sub_id }
    | `Global -> Rule.Global (tag_value sub)
  in
  let by_class = by_class s assignment in
  (* Which hosts are referenced at each switch (for host-match rules). *)
  let host_used = Array.make n false in
  let vswitch_count = ref 0 in
  let no_tag_entries = ref 0 in
  (* Pre-compute ECMP sibling groups: classes sharing an (src,dst) pair. *)
  let siblings = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      let kp = Types.pair_group c in
      Hashtbl.replace siblings kp
        (c :: Option.value ~default:[] (Hashtbl.find_opt siblings kp)))
    classes;
  Array.iteri
    (fun h c ->
      let subs = by_class.(h) in
      if subs <> [] then begin
        let prefixes = subclass_prefixes c subs ~depth:split_depth in
        let ingress = c.Types.path.(0) in
        let ingress_table = network.(ingress) in
        List.iteri
          (fun s_idx sub ->
            let groups = hop_groups sub in
            (match groups with
            | [] ->
                (* Empty chain: tag Fin at ingress; forwarding continues. *)
                Tcam.add_phys ingress_table
                  {
                    Rule.priority = 100;
                    pmatch =
                      {
                        Rule.m_host = `Empty;
                        m_subclass = `Any;
                        m_prefixes = prefixes.(s_idx);
                      };
                    action =
                      Rule.Tag_and_forward
                        { subclass = tag_value sub; host = Tag.Fin };
                  }
            | (first_hop, _) :: _ ->
                let first_switch = c.Types.path.(first_hop) in
                let action =
                  if first_switch = ingress then
                    Rule.Tag_and_deliver
                      { subclass = tag_value sub; host = ingress }
                  else
                    Rule.Tag_and_forward
                      {
                        subclass = tag_value sub;
                        host = Tag.Host first_switch;
                      }
                in
                Tcam.add_phys ingress_table
                  {
                    Rule.priority = 100;
                    pmatch =
                      {
                        Rule.m_host = `Empty;
                        m_subclass = `Any;
                        m_prefixes = prefixes.(s_idx);
                      };
                    action;
                  });
            (* vSwitch pipelines per visited host. *)
            let rec emit_groups = function
              | [] -> ()
              | (hop, stages) :: rest ->
                  let v = c.Types.path.(hop) in
                  host_used.(v) <- true;
                  let next_host =
                    match rest with
                    | [] -> Tag.Fin
                    | (hop', _) :: _ -> Tag.Host c.Types.path.(hop')
                  in
                  let table = network.(v) in
                  let inst_of stage =
                    match
                      Hashtbl.find_opt assignment.Subclass.instance_of
                        (Subclass.key sub, stage)
                    with
                    | Some inst -> Instance.id inst
                    | None ->
                        invalid_arg
                          "Rule_generator.build: sub-class stage missing an instance"
                  in
                  let rec chain_rules port = function
                    | [] ->
                        Tcam.add_vswitch table
                          {
                            Rule.v_port = port;
                            v_key = vswitch_key c sub;
                            v_action = Rule.Back_to_network next_host;
                          };
                        incr vswitch_count
                    | stage :: more ->
                        let inst = inst_of stage in
                        Tcam.add_vswitch table
                          {
                            Rule.v_port = port;
                            v_key = vswitch_key c sub;
                            v_action = Rule.To_instance inst;
                          };
                        incr vswitch_count;
                        chain_rules (Rule.From_instance inst) more
                  in
                  chain_rules Rule.From_network stages;
                  (* Traffic born in a production VM inside the ingress
                     host (Fig. 3, ip3 -> ip4) enters the pipeline from a
                     VM port instead of the network port; the vSwitch
                     classifies it with a mirrored rule. *)
                  if v = ingress then begin
                    match stages with
                    | first_stage :: _ ->
                        Tcam.add_vswitch table
                          {
                            Rule.v_port = Rule.From_production_vm;
                            v_key = vswitch_key c sub;
                            v_action = Rule.To_instance (inst_of first_stage);
                          };
                        incr vswitch_count
                    | [] -> ()
                  end;
                  emit_groups rest
            in
            emit_groups groups;
            (* No-tagging baseline accounting (SIMPLE-style steering):
               without tags, every switch from the ingress to the last
               processing hop must recognize the sub-class by its prefix
               rules to keep steering it, processing hops additionally
               need a second copy to tell diverted from resumed traffic,
               and the rules are replicated on every ECMP sibling path of
               the pair because wildcard rules cannot tell siblings
               apart. *)
            let sibling_count =
              List.length
                (Option.value ~default:[ c ]
                   (Hashtbl.find_opt siblings (Types.pair_group c)))
            in
            let n_prefixes = max 1 (List.length prefixes.(s_idx)) in
            let processing_hops = List.length groups in
            let span =
              match List.rev groups with
              | [] -> 0
              | (last_hop, _) :: _ -> last_hop + 1
            in
            no_tag_entries :=
              !no_tag_entries
              + (n_prefixes * (span + processing_hops) * sibling_count))
          subs
      end)
    classes;
  (* Host-match and pass-by rules per switch. *)
  for v = 0 to n - 1 do
    if host_used.(v) then
      Tcam.add_phys network.(v)
        {
          Rule.priority = 200;
          pmatch = { Rule.m_host = `Host v; m_subclass = `Any; m_prefixes = [] };
          action = Rule.Fwd_to_host v;
        };
    Tcam.add_phys network.(v)
      {
        Rule.priority = 0;
        pmatch = { Rule.m_host = `Any; m_subclass = `Any; m_prefixes = [] };
        action = Rule.Goto_next;
      }
  done;
  let built =
    {
      network;
      tcam_with_tagging = Tcam.total_tcam network;
      tcam_without_tagging = !no_tag_entries;
      vswitch_rules = !vswitch_count;
      split_depth;
      tag_mode = mode;
      global_tags_used = !next_global;
      tag_of = tag_table;
    }
  in
  if T.enabled () then begin
    T.Counter.add m_tcam_tagged built.tcam_with_tagging;
    T.Counter.add m_tcam_untagged built.tcam_without_tagging;
    T.Counter.add m_vswitch built.vswitch_rules
  end;
  Apple_obs.Flight.record Apple_obs.Flight.Rules ~a:built.tcam_with_tagging
    ~b:built.vswitch_rules ~c:built.global_tags_used ();
  built

let reduction_ratio built =
  if built.tcam_with_tagging = 0 then 0.0
  else float_of_int built.tcam_without_tagging /. float_of_int built.tcam_with_tagging

let tags_left built =
  match built.tag_mode with
  | `Global -> Tag.max_subclasses - built.global_tags_used
  | `Local ->
      (* lint: L3 — commutative max over tag ids *)
      let max_tag = Hashtbl.fold (fun _ v acc -> max acc v) built.tag_of (-1) in
      Tag.max_subclasses - (max_tag + 1)
