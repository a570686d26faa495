module Nf = Apple_vnf.Nf
module Graph = Apple_topology.Graph
module Builders = Apple_topology.Builders
module Rng = Apple_prelude.Rng

let ingress_placement (s : Types.scenario) =
  let n = Graph.num_nodes s.Types.topo.Builders.graph in
  let classes = s.Types.classes in
  (* Everything at hop 0. *)
  let distribution =
    Array.map
      (fun c ->
        let plen = Array.length c.Types.path in
        let clen = Array.length c.Types.chain in
        Array.init plen (fun i ->
            Array.init clen (fun _ -> if i = 0 then 1.0 else 0.0)))
      classes
  in
  (* Loads per (ingress, kind). *)
  let load = Array.make_matrix n Nf.num_kinds 0.0 in
  Array.iter
    (fun c ->
      let v = c.Types.path.(0) in
      Array.iter
        (fun kind ->
          let k = Nf.kind_index kind in
          load.(v).(k) <- load.(v).(k) +. c.Types.rate)
        c.Types.chain)
    classes;
  let counts = Array.make_matrix n Nf.num_kinds 0 in
  for v = 0 to n - 1 do
    for k = 0 to Nf.num_kinds - 1 do
      let cap = (Nf.spec (Nf.kind_of_index k)).Nf.capacity_mbps in
      if load.(v).(k) > 1e-9 then
        counts.(v).(k) <- int_of_float (ceil ((load.(v).(k) /. cap) -. 1e-9))
    done
  done;
  let objective_value =
    Array.fold_left
      (fun acc row -> Array.fold_left (fun a c -> a +. float_of_int c) acc row)
      0.0 counts
  in
  {
    Optimization_engine.counts;
    distribution;
    objective_value;
    lp_objective = objective_value;
    solve_seconds = 0.0;
    model_size = "ingress strawman (no optimization)";
  }

type steering_stats = {
  flows_rerouted : float;
  mean_stretch : float;
  max_stretch : float;
}

let steering_stats ?(instances_per_kind = 2) ~seed (s : Types.scenario) =
  let g = s.Types.topo.Builders.graph in
  let n = Graph.num_nodes g in
  let rng = Rng.create seed in
  (* Static NF sites, as a hardware-middlebox deployment would have. *)
  let sites =
    Array.init Nf.num_kinds (fun _ ->
        Array.init instances_per_kind (fun _ -> Rng.int rng n))
  in
  let dist_cache = Hashtbl.create 64 in
  let path_between u v =
    match Hashtbl.find_opt dist_cache (u, v) with
    | Some p -> p
    | None ->
        let p = Graph.shortest_path g u v in
        Hashtbl.add dist_cache (u, v) p;
        p
  in
  let hops p = float_of_int (List.length p - 1) in
  let rerouted = ref 0.0 and total = ref 0.0 in
  let stretches = ref [] in
  Array.iter
    (fun c ->
      total := !total +. c.Types.rate;
      let src = c.Types.src and dst = c.Types.dst in
      let direct =
        match path_between src dst with Some p -> p | None -> [ src ]
      in
      (* Steer through the nearest instance of each chain NF in order. *)
      let rec thread current acc_len = function
        | [] -> (
            match path_between current dst with
            | Some p -> Some (acc_len +. hops p)
            | None -> None)
        | kind :: rest ->
            let k = Nf.kind_index kind in
            let best =
              Array.fold_left
                (fun best site ->
                  match path_between current site with
                  | None -> best
                  | Some p -> (
                      match best with
                      | Some (_, len) when len <= hops p -> best
                      | _ -> Some (site, hops p)))
                None sites.(k)
            in
            (match best with
            | None -> None
            | Some (site, len) -> thread site (acc_len +. len) rest)
      in
      match thread src 0.0 (Array.to_list c.Types.chain) with
      | None -> ()
      | Some steered_len ->
          let direct_len = max 1.0 (hops direct) in
          let stretch = max 1.0 (steered_len /. direct_len) in
          stretches := stretch :: !stretches;
          if steered_len > hops direct +. 0.5 then
            rerouted := !rerouted +. c.Types.rate)
    s.Types.classes;
  let stretch_arr = Array.of_list !stretches in
  {
    flows_rerouted = (if !total > 0.0 then !rerouted /. !total else 0.0);
    mean_stretch =
      (if Array.length stretch_arr = 0 then 1.0
       else Apple_prelude.Stats.mean stretch_arr);
    max_stretch =
      (if Array.length stretch_arr = 0 then 1.0
       else Apple_prelude.Stats.maximum stretch_arr);
  }

let properties_table (s : Types.scenario) =
  (* APPLE's three properties are checked mechanically on this scenario;
     the other rows restate each framework's mechanism (Table I). *)
  let apple_ok =
    try
      let placement = Engine_select.solve s in
      let asg = Subclass.assign s placement in
      let built = Rule_generator.build s asg in
      let inst_kind = Hashtbl.create 64 in
      List.iter
        (fun i ->
          Hashtbl.replace inst_kind (Apple_vnf.Instance.id i)
            (Apple_vnf.Instance.kind i))
        asg.Subclass.instances;
      let ok = ref true in
      List.iter
        (fun ((c : Types.flow_class), reps) ->
          List.iter
            (fun (_, p) ->
              let path = Array.to_list c.Types.path in
              match
                Apple_dataplane.Walk.run built.Rule_generator.network ~path
                  ~cls:c.Types.id ~src_ip:p.Types.Prefix.addr ()
              with
              | Error _ -> ok := false
              | Ok trace ->
                  if
                    not
                      (Apple_dataplane.Walk.policy_enforced trace
                         ~instance_kind:(Hashtbl.find inst_kind)
                         ~chain:(Array.to_list c.Types.chain))
                  then ok := false;
                  if not (Apple_dataplane.Walk.interference_free trace ~path)
                  then ok := false)
            reps)
        (Rule_generator.representatives s asg built);
      !ok
    with Optimization_engine.Infeasible _ -> false
  in
  [
    ("StEERING", true, false, true);
    ("SIMPLE", true, false, true);
    ("PACE", false, true, true);
    ("CoMb", true, true, false);
    ("Stratos", true, false, true);
    ("E2", true, false, true);
    ("VNF-OP", true, false, true);
    ("APPLE", apple_ok, apple_ok, true);
  ]
