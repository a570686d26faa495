module Nf = Apple_vnf.Nf
module Model = Apple_lp.Model
module Graph = Apple_topology.Graph
module Builders = Apple_topology.Builders
module T = Apple_telemetry.Telemetry

(* Per-phase spans around the solve pipeline.  Span bodies are the
   existing phase code; the engine never reads telemetry or the trace
   back, so placements are unaffected. *)
module Tr = Apple_trace.Trace

let tr_relax = Tr.span ~cat:"solve" "opt.relax"
let tr_reweight = Tr.span ~cat:"solve" "opt.reweight"
let tr_repair = Tr.span ~cat:"solve" "opt.repair"
let tr_consolidate = Tr.span ~cat:"solve" "opt.consolidate"
let tr_ilp = Tr.span ~cat:"solve" "opt.ilp"
let tr_paths = Tr.span ~cat:"solve" "opt.paths"
let m_pricing_passes = T.Counter.create "apple.opt.pricing_passes"
let m_lp_fallbacks = T.Counter.create "apple.opt.lp_fallbacks"

type objective = Min_instances | Min_cores

type method_ = Shortest_paths | Lp_round | Ilp of int

type placement = {
  counts : int array array;
  distribution : float array array array;
  objective_value : float;
  lp_objective : float;
  solve_seconds : float;
  model_size : string;
}

exception Infeasible of string

let kind_weight objective k =
  match objective with
  | Min_instances -> 1.0
  | Min_cores -> float_of_int (Nf.spec (Nf.kind_of_index k)).Nf.cores

(* Index of NF kind k in class h's chain, or None. *)
let chain_stage (c : Types.flow_class) k =
  let result = ref None in
  Array.iteri
    (fun j kind -> if Nf.kind_index kind = k then result := Some j)
    c.Types.chain;
  !result

(* Every cell of the placement that loads a site: [f h c i j v k] for
   class [h] ([c]), hop [i] at switch [v], and stage [j] of kind [k],
   where [j] is the stage {!chain_stage} names for [k] (a chain that
   repeats a kind loads only its last such stage).  Cells come class by
   class, each stage's hops in ascending order, so a site sees its cells
   in the (class, hop) order a per-site gather visits them. *)
let iter_cells (s : Types.scenario) f =
  Array.iteri
    (fun h c ->
      Array.iteri
        (fun j kind ->
          let k = Nf.kind_index kind in
          if Option.equal Int.equal (chain_stage c k) (Some j) then
            Array.iteri (fun i v -> f h c i j v k) c.Types.path)
        c.Types.chain)
    s.Types.classes

(* The set of (v, k) pairs that can host useful instances: switch v lies on
   the path of some class whose chain contains kind k. *)
let useful_sites (s : Types.scenario) =
  let n = Graph.num_nodes s.Types.topo.Builders.graph in
  let useful = Array.make_matrix n Nf.num_kinds false in
  Array.iter
    (fun c ->
      Array.iter
        (fun v ->
          Array.iter
            (fun kind -> useful.(v).(Nf.kind_index kind) <- true)
            c.Types.chain)
        c.Types.path)
    s.Types.classes;
  useful

let build_model (s : Types.scenario) ~objective ~integer =
  let n = Graph.num_nodes s.Types.topo.Builders.graph in
  let classes = s.Types.classes in
  let model = Model.create () in
  let useful = useful_sites s in
  (* q variables. *)
  let q = Array.make_matrix n Nf.num_kinds None in
  for v = 0 to n - 1 do
    for k = 0 to Nf.num_kinds - 1 do
      if useful.(v).(k) then
        q.(v).(k) <-
          Some
            (Model.add_var model ~integer ~obj:(kind_weight objective k) ())
    done
  done;
  (* d variables: d.(h).(i).(j). *)
  let d =
    Array.map
      (fun c ->
        let plen = Array.length c.Types.path in
        let clen = Array.length c.Types.chain in
        Array.init plen (fun _ ->
            Array.init clen (fun _ -> Model.add_var model ~lb:0.0 ~ub:1.0 ())))
      classes
  in
  (* Chain order, Eq. (3) with sigma substituted: for every prefix of the
     path, stage j-1's cumulative portion dominates stage j's. *)
  Array.iteri
    (fun h c ->
      let plen = Array.length c.Types.path in
      let clen = Array.length c.Types.chain in
      for j = 1 to clen - 1 do
        for i = 0 to plen - 1 do
          let terms = ref [] in
          for i' = 0 to i do
            terms := (1.0, d.(h).(i').(j - 1)) :: (-1.0, d.(h).(i').(j)) :: !terms
          done;
          Model.add_constraint model !terms Model.Ge 0.0
        done
      done;
      (* Completion, Eq. (4): every stage processes 100% of the class. *)
      for j = 0 to clen - 1 do
        let terms = List.init plen (fun i -> (1.0, d.(h).(i).(j))) in
        Model.add_constraint model terms Model.Eq 1.0
      done)
    classes;
  (* Capacity, Eq. (5): per useful (v, k), its cells scattered in one
     pass onto [-cap q], newest first. *)
  let n_kinds = Nf.num_kinds in
  let cap_terms =
    Array.map
      (Array.mapi (fun k -> function
         | None -> []
         | Some qv -> [ (-.(Nf.spec (Nf.kind_of_index k)).Nf.capacity_mbps, qv) ]))
      q
  in
  iter_cells s (fun h c i j v k ->
      cap_terms.(v).(k) <- (c.Types.rate, d.(h).(i).(j)) :: cap_terms.(v).(k));
  for v = 0 to n - 1 do
    for k = 0 to n_kinds - 1 do
      match cap_terms.(v).(k) with
      | [] | [ _ ] -> ()
      | terms -> Model.add_constraint model terms Model.Le 0.0
    done
  done;
  (* Host resources, Eq. (6): core budget per switch. *)
  for v = 0 to n - 1 do
    let terms = ref [] in
    for k = 0 to n_kinds - 1 do
      match q.(v).(k) with
      | None -> ()
      | Some qv ->
          let cores = float_of_int (Nf.spec (Nf.kind_of_index k)).Nf.cores in
          terms := (cores, qv) :: !terms
    done;
    if !terms <> [] then
      Model.add_constraint model !terms Model.Le
        (float_of_int s.Types.host_cores.(v))
  done;
  (model, q, d)

let extract_distribution (s : Types.scenario) d sol =
  Array.mapi
    (fun h c ->
      let plen = Array.length c.Types.path in
      let clen = Array.length c.Types.chain in
      Array.init plen (fun i ->
          Array.init clen (fun j ->
              let v = Model.value sol d.(h).(i).(j) in
              if v < 1e-9 then 0.0 else if v > 1.0 then 1.0 else v)))
    s.Types.classes

let load_of_distribution (s : Types.scenario) dist ~v ~k =
  let acc = ref 0.0 in
  Array.iteri
    (fun h c ->
      match chain_stage c k with
      | None -> ()
      | Some j ->
          Array.iteri
            (fun i sw ->
              if sw = v then acc := !acc +. (c.Types.rate *. dist.(h).(i).(j)))
            c.Types.path)
    s.Types.classes;
  !acc

(* Every site's load at once: [site_loads s dist].(v).(k) equals
   [load_of_distribution s dist ~v ~k] bit for bit, since each site
   adds the same terms in the same (class, hop) order from +0.0.  One
   pass over the cells instead of one per site. *)
let site_loads (s : Types.scenario) dist =
  let n = Graph.num_nodes s.Types.topo.Builders.graph in
  let loads = Array.make_matrix n Nf.num_kinds 0.0 in
  iter_cells s (fun h c i j v k ->
      loads.(v).(k) <- loads.(v).(k) +. (c.Types.rate *. dist.(h).(i).(j)));
  loads

(* Minimal feasible instance counts for given site loads. *)
let counts_of_loads loads =
  Array.map
    (Array.mapi (fun k load ->
         let cap = (Nf.spec (Nf.kind_of_index k)).Nf.capacity_mbps in
         if load > 1e-9 then int_of_float (ceil ((load /. cap) -. 1e-9)) else 0))
    loads

let cores_at counts v =
  let acc = ref 0 in
  for k = 0 to Nf.num_kinds - 1 do
    acc := !acc + (counts.(v).(k) * (Nf.spec (Nf.kind_of_index k)).Nf.cores)
  done;
  !acc

(* Chain-order feasibility of one class's distribution matrix. *)
let order_ok dist_h =
  let plen = Array.length dist_h in
  if plen = 0 then true
  else begin
    let clen = Array.length dist_h.(0) in
    let ok = ref true in
    for j = 1 to clen - 1 do
      let prefix_prev = ref 0.0 and prefix_cur = ref 0.0 in
      for i = 0 to plen - 1 do
        prefix_prev := !prefix_prev +. dist_h.(i).(j - 1);
        prefix_cur := !prefix_cur +. dist_h.(i).(j);
        if !prefix_cur > !prefix_prev +. 1e-6 then ok := false
      done
    done;
    !ok
  end

(* Repair pass: if rounding the counts up violates a host's core budget,
   shed just enough distribution mass from the violating switch to drop
   instances there, moving it to hops whose own budget tolerates the
   arrival, preserving chain order. *)
let repair_resources (s : Types.scenario) dist =
  let n = Graph.num_nodes s.Types.topo.Builders.graph in
  let cap_of k = (Nf.spec (Nf.kind_of_index k)).Nf.capacity_mbps in
  let cores_of k = (Nf.spec (Nf.kind_of_index k)).Nf.cores in
  (* Loads of the current [dist], recomputed on the first read after a
     move, even one taken back: undoing [x +. a] by [-. a] need not give
     [x] back bit for bit. *)
  let loads = ref (site_loads s dist) and stale = ref false in
  let fresh_loads () =
    if !stale then begin
      loads := site_loads s dist;
      stale := false
    end;
    !loads
  in
  let counts = ref (counts_of_loads !loads) in
  let violated v = cores_at !counts v > s.Types.host_cores.(v) in
  let exists_violation () =
    let rec scan v =
      if v >= n then None else if violated v then Some v else scan (v + 1)
    in
    scan 0
  in
  (* Would switch v' stay within budget if its load of kind k grew by
     [extra] Mbps? *)
  let target_fits v' k extra =
    let load = (fresh_loads ()).(v').(k) in
    let new_count = int_of_float (ceil (((load +. extra) /. cap_of k) -. 1e-9)) in
    let delta = new_count - !counts.(v').(k) in
    delta <= 0
    || cores_at !counts v' + (delta * cores_of k) <= s.Types.host_cores.(v')
  in
  (* Move up to [want] Mbps of kind-k mass away from switch v.  Returns the
     amount actually moved. *)
  let shed v k want =
    let moved = ref 0.0 in
    Array.iteri
      (fun h c ->
        if !moved < want -. 1e-9 then
          match chain_stage c k with
          | None -> ()
          | Some j ->
              Array.iteri
                (fun i sw ->
                  if sw = v && dist.(h).(i).(j) > 1e-9 && !moved < want -. 1e-9
                  then begin
                    let portion = dist.(h).(i).(j) in
                    let rate = c.Types.rate in
                    let amount_mass = min (rate *. portion) (want -. !moved) in
                    let amount = if rate > 0.0 then amount_mass /. rate else 0.0 in
                    let plen = Array.length c.Types.path in
                    let rec try_hop i' =
                      if i' >= plen then ()
                      else if i' = i || c.Types.path.(i') = v then try_hop (i' + 1)
                      else begin
                        let v' = c.Types.path.(i') in
                        if target_fits v' k amount_mass then begin
                          dist.(h).(i).(j) <- portion -. amount;
                          dist.(h).(i').(j) <- dist.(h).(i').(j) +. amount;
                          stale := true;
                          if order_ok dist.(h) then begin
                            moved := !moved +. amount_mass;
                            (* Keep counts fresh for later target checks. *)
                            counts := counts_of_loads (fresh_loads ())
                          end
                          else begin
                            dist.(h).(i).(j) <- portion;
                            dist.(h).(i').(j) <- dist.(h).(i').(j) -. amount;
                            try_hop (i' + 1)
                          end
                        end
                        else try_hop (i' + 1)
                      end
                    in
                    try_hop 0
                  end)
                c.Types.path)
      s.Types.classes;
    !moved
  in
  let guard = ref 0 in
  let rec fix () =
    incr guard;
    if !guard > 16 * n then ()
    else
      match exists_violation () with
      | None -> ()
      | Some v ->
          let excess_cores = cores_at !counts v - s.Types.host_cores.(v) in
          (* Kinds at v ordered by how little load must move to drop one
             instance. *)
          let options = ref [] in
          for k = 0 to Nf.num_kinds - 1 do
            if !counts.(v).(k) > 0 then begin
              let load = (fresh_loads ()).(v).(k) in
              let need =
                load -. (float_of_int (!counts.(v).(k) - 1) *. cap_of k)
              in
              options := (need, k) :: !options
            end
          done;
          let progressed = ref false in
          List.iter
            (fun (need, k) ->
              if (not !progressed) && cores_at !counts v > s.Types.host_cores.(v)
              then begin
                let want = max need (1e-6 *. float_of_int excess_cores) in
                let moved = shed v k want in
                if moved > 1e-9 then progressed := true
              end)
            (List.sort
               (fun (n1, k1) (n2, k2) ->
                 match Float.compare n1 n2 with
                 | 0 -> Int.compare k1 k2
                 | c -> c)
               !options);
          if !progressed then fix ()
  in
  fix ();
  match exists_violation () with
  | Some v ->
      raise
        (Infeasible
           (Printf.sprintf
              "host at switch %d needs %d cores but only has %d after repair"
              v (cores_at !counts v) s.Types.host_cores.(v)))
  | None -> !counts

(* Consolidation pass: the LP spreads load thinly, so ceil-rounding wastes
   an instance at every site with a sliver of load.  Greedily try to empty
   lightly-loaded (switch, kind) sites by relocating their class-stage
   contributions into spare capacity at sites that keep their instances,
   preserving chain order.  Each successful relocation can only lower the
   objective, so the loop terminates. *)
let consolidate_pass (s : Types.scenario) dist counts =
  let n = Graph.num_nodes s.Types.topo.Builders.graph in
  let cap_of k = (Nf.spec (Nf.kind_of_index k)).Nf.capacity_mbps in
  let load = site_loads s dist in
  (* Contributions at a site: (mass, class, hop, stage). *)
  let contributions v k =
    let acc = ref [] in
    Array.iteri
      (fun h c ->
        match chain_stage c k with
        | None -> ()
        | Some j ->
            Array.iteri
              (fun i sw ->
                if sw = v && dist.(h).(i).(j) > 1e-9 then
                  acc := (c.Types.rate *. dist.(h).(i).(j), h, i, j) :: !acc)
              c.Types.path)
      s.Types.classes;
    !acc
  in
  (* Move one contribution to any other hop of the class with spare
     capacity at the same kind; returns true on success. *)
  let relocate k (mass, h, i, j) =
    let c = s.Types.classes.(h) in
    let plen = Array.length c.Types.path in
    let rec try_hop i' =
      if i' >= plen then false
      else if i' = i then try_hop (i' + 1)
      else begin
        let v' = c.Types.path.(i') in
        let spare =
          (float_of_int counts.(v').(k) *. cap_of k) -. load.(v').(k)
        in
        if counts.(v').(k) > 0 && spare >= mass -. 1e-9 then begin
          let portion = dist.(h).(i).(j) in
          dist.(h).(i).(j) <- 0.0;
          dist.(h).(i').(j) <- dist.(h).(i').(j) +. portion;
          if order_ok dist.(h) then begin
            load.(c.Types.path.(i)).(k) <- load.(c.Types.path.(i)).(k) -. mass;
            load.(v').(k) <- load.(v').(k) +. mass;
            true
          end
          else begin
            dist.(h).(i').(j) <- dist.(h).(i').(j) -. portion;
            dist.(h).(i).(j) <- portion;
            try_hop (i' + 1)
          end
        end
        else try_hop (i' + 1)
      end
    in
    try_hop 0
  in
  let improved = ref true in
  while !improved do
    improved := false;
    (* Sites ascending by load: cheapest to empty first. *)
    let sites = ref [] in
    for v = 0 to n - 1 do
      for k = 0 to Nf.num_kinds - 1 do
        if counts.(v).(k) > 0 && load.(v).(k) > 0.0 then
          sites := (load.(v).(k), v, k) :: !sites
      done
    done;
    let sorted =
      List.sort
        (fun (l1, v1, k1) (l2, v2, k2) ->
          match Float.compare l1 l2 with
          | 0 -> (
              match Int.compare v1 v2 with 0 -> Int.compare k1 k2 | c -> c)
          | c -> c)
        !sites
    in
    List.iter
      (fun (_, v, k) ->
        if counts.(v).(k) > 0 then begin
          (* Try to empty the site's last instance worth of load. *)
          let over =
            load.(v).(k) -. (float_of_int (counts.(v).(k) - 1) *. cap_of k)
          in
          if over > 0.0 then begin
            let moved = ref 0.0 in
            let contribs =
              List.sort
                (fun (m1, h1, i1, j1) (m2, h2, i2, j2) ->
                  match Float.compare m1 m2 with
                  | 0 -> (
                      match Int.compare h1 h2 with
                      | 0 -> (
                          match Int.compare i1 i2 with
                          | 0 -> Int.compare j1 j2
                          | c -> c)
                      | c -> c)
                  | c -> c)
                (contributions v k)
            in
            List.iter
              (fun ((mass, _, _, _) as contrib) ->
                if !moved < over -. 1e-9 && relocate k contrib then
                  moved := !moved +. mass)
              contribs;
            (* Did the load drop below the next-lower instance count? *)
            let needed =
              if load.(v).(k) <= 1e-9 then 0
              else int_of_float (ceil ((load.(v).(k) /. cap_of k) -. 1e-9))
            in
            if needed < counts.(v).(k) then begin
              counts.(v).(k) <- needed;
              improved := true
            end
          end
        end)
      sorted
  done;
  (* Also shrink any site whose count exceeds its needs (defensive). *)
  for v = 0 to n - 1 do
    for k = 0 to Nf.num_kinds - 1 do
      let needed =
        if load.(v).(k) <= 1e-9 then 0
        else int_of_float (ceil ((load.(v).(k) /. cap_of k) -. 1e-9))
      in
      if needed < counts.(v).(k) then counts.(v).(k) <- needed
    done
  done;
  counts

let objective_of_counts ~objective counts =
  let acc = ref 0.0 in
  Array.iter
    (fun row ->
      Array.iteri (fun k c -> acc := !acc +. (float_of_int c *. kind_weight objective k)) row)
    counts;
  !acc

let check_status (sol : Model.solution) =
  match sol.Model.status with
  | Model.Infeasible ->
      raise (Infeasible "LP relaxation is infeasible: host budgets too small")
  | Model.Unbounded -> raise (Infeasible "unexpected unbounded model")
  | Model.Optimal | Model.Limit -> ()

(* Per-site price of routing a unit of load through (v, k) given the
   current site loads: ceil(load/cap)/(load/cap), the ratio rounding
   pays when the last instance there is nearly empty.  Used by the
   Lp_round reweighting pass and between Shortest_paths passes. *)
let site_prices loads =
  Array.map
    (Array.mapi (fun k load ->
         let cap = (Nf.spec (Nf.kind_of_index k)).Nf.capacity_mbps in
         let units = load /. cap in
         if load <= 1e-9 then 8.0 else min 8.0 (ceil units /. units)))
    loads

(* Start prices before any load is known, the same at every kind of a
   switch: hops that much traffic crosses begin cheap, so the first
   placement already consolidates mass where sharing is likely instead
   of spreading it uniformly. *)
let hub_prices (s : Types.scenario) =
  let n = Graph.num_nodes s.Types.topo.Builders.graph in
  let hub = Array.make n 0.0 in
  Array.iter
    (fun c ->
      Array.iter (fun v -> hub.(v) <- hub.(v) +. c.Types.rate) c.Types.path)
    s.Types.classes;
  let max_hub = Array.fold_left max 1e-9 hub in
  Array.init n (fun v ->
      Array.make Nf.num_kinds (1.0 +. (0.25 *. (1.0 -. (hub.(v) /. max_hub)))))

(* One class's stage-distribution LP under fixed site prices: only the
   class's own order and completion constraints (Eq. 3–4) appear, so the
   model has plen*clen variables instead of the whole scenario's, and
   the capacity coupling (Eq. 5) is priced into the objective instead
   of constrained.  No placement path calls it: it is the simplex
   reference that {!cheapest_sequence}'s optimum is checked against. *)
let solve_class_lp ~objective ~prices (c : Types.flow_class) =
  let plen = Array.length c.Types.path in
  let clen = Array.length c.Types.chain in
  if clen = 0 then Array.init plen (fun _ -> [||])
  else begin
    let model = Model.create () in
    let d =
      Array.init plen (fun i ->
          Array.init clen (fun j ->
              let k = Nf.kind_index c.Types.chain.(j) in
              let cap = (Nf.spec (Nf.kind_of_index k)).Nf.capacity_mbps in
              let v = c.Types.path.(i) in
              let obj =
                kind_weight objective k *. prices.(v).(k) *. c.Types.rate
                /. cap
                (* Tiny hop bias keeps ties deterministic and early. *)
                +. (1e-7 *. float_of_int i)
              in
              Model.add_var model ~lb:0.0 ~ub:1.0 ~obj ()))
    in
    for j = 1 to clen - 1 do
      for i = 0 to plen - 1 do
        let terms = ref [] in
        for i' = 0 to i do
          terms := (1.0, d.(i').(j - 1)) :: (-1.0, d.(i').(j)) :: !terms
        done;
        Model.add_constraint model !terms Model.Ge 0.0
      done
    done;
    for j = 0 to clen - 1 do
      let terms = List.init plen (fun i -> (1.0, d.(i).(j))) in
      Model.add_constraint model terms Model.Eq 1.0
    done;
    let sol = Model.solve_lp model in
    match sol.Model.status with
    | Model.Optimal | Model.Limit ->
        Array.init plen (fun i ->
            Array.init clen (fun j ->
                let v = Model.value sol d.(i).(j) in
                if v < 1e-9 then 0.0 else if v > 1.0 then 1.0 else v))
    | Model.Infeasible | Model.Unbounded ->
        (* The order/completion polytope is never empty; if the solver
           stumbles anyway, park the whole class at its first hop. *)
        Array.init plen (fun i ->
            Array.init clen (fun _ -> if i = 0 then 1.0 else 0.0))
  end

(* One class's cheapest chain-ordered placement under fixed site prices,
   whole stages at single hops: the reweighted LP's objective with q
   substituted.  Stage j of kind k at hop i costs
   weight(k) x price x rate / cap when j is the stage {!chain_stage}
   names for k, and nothing otherwise: such a cell loads no site.
   [best.(j).(i)] is the cheapest placement of stages 0..j with stage j
   at hop i, the running minimum of row j-1 up to hop i keeps each stage
   at or after its predecessor, and [from] remembers where that minimum
   sits.  Strict comparisons give ties to the earliest hop.  A shortest
   path in the class's hop x stage layered graph; O(hops x stages). *)
let cheapest_sequence ~objective ~prices (c : Types.flow_class) =
  let plen = Array.length c.Types.path in
  let clen = Array.length c.Types.chain in
  let dist = Array.init plen (fun _ -> Array.make clen 0.0) in
  if plen > 0 && clen > 0 then begin
    let best = Array.make_matrix clen plen 0.0 in
    let from = Array.make_matrix clen plen 0 in
    for j = 0 to clen - 1 do
      let k = Nf.kind_index c.Types.chain.(j) in
      let loads_site = Option.equal Int.equal (chain_stage c k) (Some j) in
      let cap = (Nf.spec (Nf.kind_of_index k)).Nf.capacity_mbps in
      let low = ref infinity and at = ref 0 in
      for i = 0 to plen - 1 do
        if j > 0 && best.(j - 1).(i) < !low then begin
          low := best.(j - 1).(i);
          at := i
        end;
        let cost =
          if loads_site then
            kind_weight objective k *. prices.(c.Types.path.(i)).(k)
            *. c.Types.rate /. cap
          else 0.0
        in
        best.(j).(i) <- (if j = 0 then cost else cost +. !low);
        from.(j).(i) <- !at
      done
    done;
    let last = clen - 1 in
    let i = ref 0 in
    for i' = 1 to plen - 1 do
      if best.(last).(i') < best.(last).(!i) then i := i'
    done;
    for j = last downto 0 do
      dist.(!i).(j) <- 1.0;
      i := from.(j).(!i)
    done
  end;
  dist

(* The relaxation's optimum, in closed form.  At any optimum of the
   relaxation q = load/cap (the host rows only bound q above), and the
   completion rows fix each class's load of every kind in its chain at
   its rate, so every feasible point costs the same: each class pays
   rate x weight/cap once per distinct kind of its chain. *)
let relaxation_bound ~objective (s : Types.scenario) =
  Array.fold_left
    (fun acc c ->
      let per_mbps = ref 0.0 in
      Array.iteri
        (fun j kind ->
          let k = Nf.kind_index kind in
          if Option.equal Int.equal (chain_stage c k) (Some j) then
            per_mbps :=
              !per_mbps
              +. kind_weight objective k
                 /. (Nf.spec (Nf.kind_of_index k)).Nf.capacity_mbps)
        c.Types.chain;
      acc +. (c.Types.rate *. !per_mbps))
    0.0 s.Types.classes

let load (s : Types.scenario) placement ~v ~k =
  load_of_distribution s placement.distribution ~v ~k

let loads (s : Types.scenario) placement = site_loads s placement.distribution

let check_distribution (s : Types.scenario) placement =
  let tol = 1e-6 in
  let errors = ref [] in
  let fail fmt = Format.kasprintf (fun msg -> errors := msg :: !errors) fmt in
  Array.iteri
    (fun h c ->
      let dist_h = placement.distribution.(h) in
      let plen = Array.length c.Types.path in
      let clen = Array.length c.Types.chain in
      if not (order_ok dist_h) then fail "class %d: chain order violated" h;
      for j = 0 to clen - 1 do
        let total = ref 0.0 in
        for i = 0 to plen - 1 do
          let portion = dist_h.(i).(j) in
          if portion < -.tol || portion > 1.0 +. tol then
            fail "class %d: d[%d][%d]=%f out of [0,1]" h i j portion;
          total := !total +. portion
        done;
        if abs_float (!total -. 1.0) > 1e-4 then
          fail "class %d stage %d: portions sum to %f, not 1" h j !total
      done)
    s.Types.classes;
  let n = Graph.num_nodes s.Types.topo.Builders.graph in
  let loads = loads s placement in
  for v = 0 to n - 1 do
    for k = 0 to Nf.num_kinds - 1 do
      let cap = (Nf.spec (Nf.kind_of_index k)).Nf.capacity_mbps in
      let offered = loads.(v).(k) in
      let provided = float_of_int placement.counts.(v).(k) *. cap in
      if offered > provided +. 1e-3 then
        fail "switch %d kind %d: offered %.3f exceeds provisioned %.3f" v k
          offered provided
    done;
    if cores_at placement.counts v > s.Types.host_cores.(v) then
      fail "switch %d: core budget exceeded" v
  done;
  match !errors with
  | [] -> Ok ()
  | msgs -> Error (String.concat "; " (List.rev msgs))

let solve ?(objective = Min_instances) ?(method_ = Shortest_paths)
    ?(reweight = true) ?(consolidate = true) (s : Types.scenario) =
  let t0 = Unix.gettimeofday () in (* lint: L5 — wall-clock solve timing, reported as perf metadata only *)
  let seconds () = Unix.gettimeofday () -. t0 in (* lint: L5 — wall-clock solve timing, reported as perf metadata only *)
  (* Integral counts for a distribution: the repair pass, then the
     consolidation pass unless it is switched off. *)
  let round dist =
    let counts = Tr.with_ tr_repair (fun () -> repair_resources s dist) in
    if consolidate then
      Tr.with_ tr_consolidate (fun () -> consolidate_pass s dist counts)
    else counts
  in
  let lp_round () =
    let model, q, d = build_model s ~objective ~integer:false in
    let model_size = Format.asprintf "%a" Model.pp_stats model in
    let sol1 = Tr.with_ tr_relax (fun () -> Model.solve_lp model) in
    check_status sol1;
    let dist1 = extract_distribution s d sol1 in
    (* The fractional objective is degenerate — spreading load across
       sites costs the same as consolidating it — so follow-up passes
       make under-utilized sites expensive, steering the LP toward
       vertices that ceil-rounding wastes little on (a concave-cost
       Frank–Wolfe style reweighting).  Only q's costs change, so the
       re-solve reprices the relaxation's own model and starts from its
       feasible start: phase 1 reads only rows and bounds. *)
    let refine dist =
      let w = site_prices (site_loads s dist) in
      Array.iteri
        (fun v row ->
          Array.iteri
            (fun k -> function
              | Some qv ->
                  Model.set_obj model qv (kind_weight objective k *. w.(v).(k))
              | None -> ())
            row)
        q;
      let sol' = Model.solve_lp ?start:sol1.Model.start model in
      match sol'.Model.status with
      | Model.Optimal | Model.Limit -> extract_distribution s d sol'
      | Model.Infeasible | Model.Unbounded -> dist
    in
    let dist =
      if reweight then Tr.with_ tr_reweight (fun () -> refine dist1) else dist1
    in
    let counts = round dist in
    {
      counts;
      distribution = dist;
      objective_value = objective_of_counts ~objective counts;
      lp_objective = sol1.Model.objective;
      solve_seconds = seconds ();
      model_size;
    }
  in
  match method_ with
  | Ilp max_nodes ->
      let model, q, d = build_model s ~objective ~integer:true in
      let model_size = Format.asprintf "%a" Model.pp_stats model in
      let sol = Tr.with_ tr_ilp (fun () -> Model.solve_ilp ~max_nodes model) in
      check_status sol;
      let dist = extract_distribution s d sol in
      let n = Graph.num_nodes s.Types.topo.Builders.graph in
      let counts = Array.make_matrix n Nf.num_kinds 0 in
      for v = 0 to n - 1 do
        for k = 0 to Nf.num_kinds - 1 do
          match q.(v).(k) with
          | None -> ()
          | Some var ->
              counts.(v).(k) <- int_of_float (Float.round (Model.value sol var))
        done
      done;
      {
        counts;
        distribution = dist;
        objective_value = objective_of_counts ~objective counts;
        lp_objective = sol.Model.objective;
        solve_seconds = seconds ();
        model_size;
      }
  | Lp_round -> lp_round ()
  | Shortest_paths -> (
      (* Every class on its cheapest chain-ordered sequence of hops under
         site prices, then the integral counts.  The first pass prices
         hubs; each next one prices the loads of the placement kept so
         far ({!site_prices}) and is kept only when the objective
         strictly falls.  Objectives are sums of integer-weighted
         counts, so the passes end.  The LP pipeline decides what this
         cannot: a first pass whose repair finds no feasible counts, or
         a result that fails {!check_distribution}. *)
      let passes = ref 0 in
      let place prices =
        incr passes;
        T.Counter.incr m_pricing_passes;
        let dist =
          Tr.with_ tr_paths (fun () ->
              Array.map (cheapest_sequence ~objective ~prices) s.Types.classes)
        in
        let counts = round dist in
        (dist, counts, objective_of_counts ~objective counts)
      in
      let rec reprice ((dist, _, value) as kept) =
        match place (site_prices (site_loads s dist)) with
        | (_, _, value') as next when value' < value -> reprice next
        | _ -> kept
        | exception Infeasible _ -> kept
      in
      let fallback () =
        T.Counter.incr m_lp_fallbacks;
        lp_round ()
      in
      match place (hub_prices s) with
      | exception Infeasible _ -> fallback ()
      | first -> (
          let distribution, counts, objective_value =
            if reweight then reprice first else first
          in
          let p =
            {
              counts;
              distribution;
              objective_value;
              lp_objective = relaxation_bound ~objective s;
              solve_seconds = seconds ();
              model_size =
                Printf.sprintf "shortest paths: %d classes x %d pricing passes"
                  (Array.length s.Types.classes)
                  !passes;
            }
          in
          match check_distribution s p with
          | Ok () -> p
          | Error _ -> fallback ()))

let instance_count placement =
  Array.fold_left
    (fun acc row -> Array.fold_left ( + ) acc row)
    0 placement.counts

let core_count placement =
  let acc = ref 0 in
  Array.iter
    (fun row ->
      Array.iteri
        (fun k c -> acc := !acc + (c * (Nf.spec (Nf.kind_of_index k)).Nf.cores))
        row)
    placement.counts;
  !acc
