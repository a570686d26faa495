module C = Apple_core
module OE = C.Optimization_engine
module Nf = Apple_vnf.Nf

let test_tiny_solves () =
  let s = Helpers.tiny_scenario () in
  let p = OE.solve s in
  (match OE.check_distribution s p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* 500 Mbps fw+ids and 400 Mbps fw: one firewall covers 900, one IDS
     covers 500 -> 2 instances is the optimum. *)
  Alcotest.(check int) "optimal count" 2 (OE.instance_count p)

let test_tiny_ilp_matches () =
  let s = Helpers.tiny_scenario () in
  let lp = OE.solve ~method_:OE.Lp_round s in
  let ilp = OE.solve ~method_:(OE.Ilp 2000) s in
  Alcotest.(check int) "heuristic meets exact optimum on the tiny case"
    (OE.instance_count ilp) (OE.instance_count lp);
  match OE.check_distribution s ilp with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("ilp: " ^ e)

let test_lp_bound_respected () =
  let s = Helpers.small_scenario () in
  let p = OE.solve s in
  Alcotest.(check bool) "rounded >= relaxation" true
    (p.OE.objective_value >= p.OE.lp_objective -. 1e-6)

let test_feasibility_small () =
  let s = Helpers.small_scenario () in
  let p = OE.solve s in
  match OE.check_distribution s p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_feasibility_geant () =
  let s = Helpers.small_scenario ~named:(Apple_topology.Builders.geant ()) () in
  let p = OE.solve s in
  match OE.check_distribution s p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_capacity_eq5 () =
  let s = Helpers.small_scenario () in
  let p = OE.solve s in
  let n = Apple_topology.Graph.num_nodes s.C.Types.topo.Apple_topology.Builders.graph in
  for v = 0 to n - 1 do
    for k = 0 to Nf.num_kinds - 1 do
      let offered = OE.load s p ~v ~k in
      let cap = (Nf.spec (Nf.kind_of_index k)).Nf.capacity_mbps in
      Alcotest.(check bool) "Eq. (5)" true
        (offered <= (float_of_int p.OE.counts.(v).(k) *. cap) +. 1e-3)
    done
  done

let test_resource_eq6 () =
  let s = Helpers.small_scenario () in
  let p = OE.solve s in
  Array.iteri
    (fun v row ->
      let cores =
        Array.to_list row
        |> List.mapi (fun k c -> c * (Nf.spec (Nf.kind_of_index k)).Nf.cores)
        |> List.fold_left ( + ) 0
      in
      Alcotest.(check bool) "Eq. (6)" true (cores <= s.C.Types.host_cores.(v)))
    p.OE.counts

let test_infeasible_raises () =
  let s = Helpers.tiny_scenario () in
  let starved = { s with C.Types.host_cores = Array.make 4 2 } in
  Alcotest.(check bool) "raises Infeasible" true
    (try
       ignore (OE.solve starved);
       false
     with OE.Infeasible _ -> true)

let test_min_cores_objective () =
  let s = Helpers.small_scenario () in
  let pi = OE.solve ~objective:OE.Min_instances s in
  let pc = OE.solve ~objective:OE.Min_cores s in
  (* optimizing cores never yields more cores than optimizing counts
     (up to rounding noise, which we bound loosely) *)
  Alcotest.(check bool) "cores objective helps cores" true
    (OE.core_count pc <= OE.core_count pi + 8);
  match OE.check_distribution s pc with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_instances_on_path_only () =
  let s = Helpers.tiny_scenario () in
  let p = OE.solve s in
  (* class paths cover switches 0..3; nothing can be placed elsewhere
     (there is no elsewhere on the line) — but kinds not in any chain must
     have zero instances. *)
  Array.iteri
    (fun _ row ->
      Alcotest.(check int) "no proxy" 0 row.(Nf.kind_index Nf.Proxy);
      Alcotest.(check int) "no nat" 0 row.(Nf.kind_index Nf.Nat))
    p.OE.counts

let test_solve_deterministic () =
  let s1 = Helpers.small_scenario () in
  let s2 = Helpers.small_scenario () in
  let p1 = OE.solve s1 and p2 = OE.solve s2 in
  Alcotest.(check int) "same instances" (OE.instance_count p1) (OE.instance_count p2);
  Alcotest.(check bool) "same counts" true (p1.OE.counts = p2.OE.counts)

let test_zero_rate_class () =
  let s = Helpers.tiny_scenario () in
  s.C.Types.classes.(1).C.Types.rate <- 0.0;
  let p = OE.solve s in
  match OE.check_distribution s p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* The one-pass site loads equal the per-site gather bit for bit.
   Random classes on a 6-switch line: paths that may revisit a switch,
   chains of one to four kinds drawn with repetition (a repeated kind
   loads only its last stage), and arbitrary portions, signed zeros
   included. *)
let gen_loads_case =
  let open QCheck.Gen in
  let n = 6 in
  let gen_class id =
    int_range 1 6 >>= fun plen ->
    int_range 1 4 >>= fun clen ->
    array_size (return plen) (int_range 0 (n - 1)) >>= fun path ->
    array_size (return clen) (oneofl Nf.all_kinds) >>= fun chain ->
    float_range 0.0 1000.0 >>= fun rate ->
    array_size (return plen)
      (array_size (return clen)
         (frequency
            [ (4, float_range 0.0 1.0); (1, oneofl [ 0.0; -0.0; 1.0; 1e-12 ]) ]))
    >>= fun dist ->
    return
      ( {
          C.Types.id;
          src = path.(0);
          dst = path.(plen - 1);
          path;
          chain;
          src_block = C.Scenario.src_block_of_class_id id;
          rate;
        },
        dist )
  in
  int_range 1 8 >>= fun nc ->
  flatten_l (List.init nc gen_class) >>= fun classes ->
  let s =
    {
      C.Types.topo = Apple_topology.Builders.linear ~n;
      classes = Array.of_list (List.map fst classes);
      host_cores = Array.make n C.Types.default_host_cores;
      seed = 0;
    }
  in
  return
    ( s,
      {
        OE.counts = Array.make_matrix n Nf.num_kinds 0;
        distribution = Array.of_list (List.map snd classes);
        objective_value = 0.0;
        lp_objective = 0.0;
        solve_seconds = 0.0;
        model_size = "";
      } )

let print_loads_case ((s : C.Types.scenario), _) =
  String.concat "; "
    (Array.to_list
       (Array.map
          (fun (c : C.Types.flow_class) ->
            Printf.sprintf "path [%s] chain %s rate %h"
              (String.concat " "
                 (Array.to_list (Array.map string_of_int c.C.Types.path)))
              (Nf.chain_to_string (Array.to_list c.C.Types.chain))
              c.C.Types.rate)
          s.C.Types.classes))

let prop_loads_one_pass =
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:"one-pass site loads = per-site load, bit for bit"
    (QCheck.make ~print:print_loads_case gen_loads_case)
    (fun (s, p) ->
      let loads = OE.loads s p in
      Array.for_all Fun.id
        (Array.mapi
           (fun v row ->
             Array.for_all Fun.id
               (Array.mapi
                  (fun k load ->
                    Int64.equal (Int64.bits_of_float load)
                      (Int64.bits_of_float (OE.load s p ~v ~k)))
                  row))
           loads))

(* The shortest-path placement of one class costs what the per-class
   LP's optimum costs, under random positive site prices.  Chains repeat
   no kind, as {!Apple_core.Policy.validate} requires (the per-class LP
   charges every stage, the sequence only the last of each kind); paths
   may revisit a switch.  Costs, not placements, are compared: ties may
   be broken differently.  The LP's optimum carries its 1e-7-per-hop tie
   bias, hence the tolerance. *)
let objective_of_int = function 0 -> OE.Min_instances | _ -> OE.Min_cores

let placement_cost ~objective ~prices (c : C.Types.flow_class) dist =
  let acc = ref 0.0 in
  Array.iteri
    (fun j kind ->
      let k = Nf.kind_index kind in
      let last = ref j in
      Array.iteri
        (fun j' kind' -> if Nf.kind_index kind' = k then last := j')
        c.C.Types.chain;
      if !last = j then begin
        let w =
          match objective with
          | OE.Min_instances -> 1.0
          | OE.Min_cores -> float_of_int (Nf.spec kind).Nf.cores
        in
        Array.iteri
          (fun i v ->
            acc :=
              !acc
              +. dist.(i).(j) *. w *. prices.(v).(k) *. c.C.Types.rate
                 /. (Nf.spec kind).Nf.capacity_mbps)
          c.C.Types.path
      end)
    c.C.Types.chain;
  !acc

(* Each stage whole at one hop, at or after its predecessor's. *)
let is_sequence dist =
  let clen = if Array.length dist = 0 then 0 else Array.length dist.(0) in
  let hop_of j =
    let hops = ref [] in
    Array.iteri
      (fun i row ->
        if row.(j) = 1.0 then hops := i :: !hops
        else if row.(j) <> 0.0 then hops := -1 :: !hops)
      dist;
    match !hops with [ i ] when i >= 0 -> Some i | _ -> None
  in
  let hops = List.init clen hop_of in
  List.for_all Option.is_some hops
  && List.sort compare hops = hops

let gen_priced_class =
  let open QCheck.Gen in
  let n = 6 in
  int_range 1 6 >>= fun plen ->
  int_range 1 4 >>= fun clen ->
  array_size (return plen) (int_range 0 (n - 1)) >>= fun path ->
  shuffle_l Nf.all_kinds >>= fun kinds ->
  let chain = Array.of_list (List.filteri (fun j _ -> j < clen) kinds) in
  float_range 1.0 1000.0 >>= fun rate ->
  array_size (return n) (array_size (return Nf.num_kinds) (float_range 0.05 8.0))
  >>= fun prices ->
  int_range 0 1 >>= fun objective ->
  return
    ( {
        C.Types.id = 0;
        src = path.(0);
        dst = path.(plen - 1);
        path;
        chain;
        src_block = C.Scenario.src_block_of_class_id 0;
        rate;
      },
      prices,
      objective )

let print_priced_class ((c : C.Types.flow_class), _, objective) =
  Printf.sprintf "path [%s] chain %s rate %h objective %d"
    (String.concat " " (Array.to_list (Array.map string_of_int c.C.Types.path)))
    (Nf.chain_to_string (Array.to_list c.C.Types.chain))
    c.C.Types.rate objective

let prop_sequence_is_class_lp_optimum =
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:"cheapest sequence costs the per-class LP's optimum"
    (QCheck.make ~print:print_priced_class gen_priced_class)
    (fun (c, prices, objective) ->
      let objective = objective_of_int objective in
      let dp = OE.cheapest_sequence ~objective ~prices c in
      let lp = OE.solve_class_lp ~objective ~prices c in
      let dp_cost = placement_cost ~objective ~prices c dp in
      let lp_cost = placement_cost ~objective ~prices c lp in
      if not (is_sequence dp) then
        QCheck.Test.fail_reportf "not a chain-ordered 0/1 sequence";
      if Float.abs (dp_cost -. lp_cost) > 1e-5 +. (1e-9 *. dp_cost) then
        QCheck.Test.fail_reportf "sequence costs %h, the LP's optimum %h" dp_cost
          lp_cost;
      true)

(* The default method states the relaxation's optimum in closed form:
   it equals the LP pipeline's relaxation objective, under both
   objectives, on random feasible scenarios. *)
let prop_bound_closed_form =
  QCheck.Test.make ~count:20 ~long_factor:10
    ~name:"closed-form bound = the relaxation's optimum"
    QCheck.(pair (int_range 0 10_000) (int_range 0 1))
    (fun (seed, objective) ->
      let objective = objective_of_int objective in
      let named =
        match seed mod 3 with
        | 0 -> Apple_topology.Builders.internet2 ()
        | 1 -> Apple_topology.Builders.geant ()
        | _ -> Apple_topology.Builders.linear ~n:6
      in
      let s =
        Helpers.small_scenario ~seed ~named
          ~total:(1000.0 +. float_of_int (seed mod 17 * 300))
          ~max_classes:(4 + (seed mod 29)) ()
      in
      match OE.solve ~objective ~method_:OE.Lp_round s with
      | exception OE.Infeasible _ -> QCheck.assume_fail ()
      | lp ->
          let bound = (OE.solve ~objective s).OE.lp_objective in
          let want = lp.OE.lp_objective in
          if Float.abs (bound -. want) > 1e-9 *. Float.max 1.0 (Float.abs want)
          then QCheck.Test.fail_reportf "closed form %h, relaxation %h" bound want;
          true)

let suite =
  [
    Alcotest.test_case "tiny optimum" `Quick test_tiny_solves;
    Alcotest.test_case "tiny ILP agreement" `Quick test_tiny_ilp_matches;
    Alcotest.test_case "LP bound respected" `Quick test_lp_bound_respected;
    Alcotest.test_case "feasible internet2" `Quick test_feasibility_small;
    Alcotest.test_case "feasible geant" `Quick test_feasibility_geant;
    Alcotest.test_case "capacity Eq5" `Quick test_capacity_eq5;
    Alcotest.test_case "resources Eq6" `Quick test_resource_eq6;
    Alcotest.test_case "infeasible raises" `Quick test_infeasible_raises;
    Alcotest.test_case "min-cores objective" `Quick test_min_cores_objective;
    Alcotest.test_case "kind pruning" `Quick test_instances_on_path_only;
    Alcotest.test_case "deterministic" `Quick test_solve_deterministic;
    Alcotest.test_case "zero-rate class" `Quick test_zero_rate_class;
    QCheck_alcotest.to_alcotest prop_loads_one_pass;
    QCheck_alcotest.to_alcotest prop_sequence_is_class_lp_optimum;
    QCheck_alcotest.to_alcotest prop_bound_closed_form;
  ]
