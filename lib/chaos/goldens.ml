module Core_exp = Apple_core.Experiments
module Lifecycle = Apple_vnf.Lifecycle
module Builders = Apple_topology.Builders

(* The drill mirrors examples/chaos_internet2.sched; test_chaos pins the
   two against each other so they cannot drift apart. *)
let drill_schedule =
  List.fold_left
    (fun s (at, fault) -> Fault.add s ~at fault)
    Fault.empty
    [
      (0.5, Fault.Kill_instance Fault.Hottest);
      (0.8, Fault.Link_down Fault.Busiest);
      (1.6, Fault.Link_up Fault.Busiest);
      (2.0, Fault.Switch_crash Fault.Busiest);
      (2.8, Fault.Switch_restart Fault.Busiest);
      (3.2, Fault.Tcam_loss (Fault.Busiest, 0.3));
      (3.6, Fault.Poller_blackout 0.4);
    ]

let chaos_internet2 () =
  let opts = Core_exp.default_opts in
  let s = Experiments.scenario_for opts (Builders.internet2 ()) in
  let config =
    { Chaos.default_config with Chaos.boot = Some Lifecycle.Raw_clickos }
  in
  Chaos.render (Chaos.run ~config ~seed:opts.Core_exp.seed ~schedule:drill_schedule s)

(* The same drill under the causal tracer: the sim-mode Chrome render
   zeroes every host-dependent field (wall stamps, domain ids, GC
   words), so the export is itself a deterministic artifact worth
   pinning — it guards event set, causality links and timestamps at
   once. *)
let trace_sim () =
  let module Trace = Apple_trace.Trace in
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      ignore (chaos_internet2 ());
      Trace.render_chrome ~mode:Trace.Sim ())

let of_rendered (r : Core_exp.rendered) =
  Printf.sprintf "== %s ==\n%s\n" r.Core_exp.title r.Core_exp.body

(* The Fig-6 packet experiment (packet-level ablation), at a reduced
   scale so runtest stays fast. *)
let fig6_packet () =
  of_rendered
    (Core_exp.ablation_packet_level
       { Core_exp.default_opts with Core_exp.scale = 0.1 })

(* The LP kernel corpus: one line per solve, floats as [%h] (exact) and
   vectors as the MD5 of their [%h] rendering, so any change to a pivot
   decision, a primal value or a dual shows up.  Five parts: random
   small LPs shaped like the property tests' cases and degenerate ones
   shaped like their [gen_degenerate] cases, each followed by a
   re-solve from its start under a second objective; the bench micro
   20x30 covering LP; the Optimization Engine on four topologies; and
   the engine on Internet2 scenarios of slice size. *)
module Simplex = Apple_lp.Simplex
module Lp_model = Apple_lp.Model
module T = Apple_telemetry.Telemetry
module Rng = Apple_prelude.Rng

let md5_floats xs =
  let b = Buffer.create 256 in
  List.iter (fun x -> Printf.bprintf b "%h " x) xs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let lp_line b ~status ~pivots ~objective ~primal ~duals =
  Printf.bprintf b "%s pivots=%d obj=%h primal=%s duals=%s\n" status pivots
    objective
    (md5_floats (Array.to_list primal))
    (md5_floats (Array.to_list duals))

let simplex_status = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "limit"

let simplex_line b prefix (r : Simplex.result) =
  lp_line b ~status:(prefix ^ simplex_status r.Simplex.status)
    ~pivots:r.Simplex.iterations ~objective:r.Simplex.objective
    ~primal:r.Simplex.primal ~duals:r.Simplex.duals

(* The solve's line, then the line of its re-solve from the start under
   new costs drawn from [obj_rng] for the structural columns (those
   before the slacks), where the re-solve's phase 2 and its inherited
   refresh cadence decide the pivots. *)
let solve_and_resolve b obj_rng (p : Simplex.problem) =
  let r = Simplex.solve p in
  simplex_line b "" r;
  let structurals = p.Simplex.num_vars - p.Simplex.num_rows in
  let obj =
    Array.init p.Simplex.num_vars (fun j ->
        if j < structurals then Rng.float obj_rng 6.0 -. 3.0 else 0.0)
  in
  match r.Simplex.start with
  | Some s -> simplex_line b "resolve " (Simplex.resolve s obj)
  | None -> Buffer.add_string b "resolve: no start\n"

(* Standard form of rows [(coefs, slack bounds, rhs)] over [lower, upper]
   structurals, one slack column per row; a structural column lists only
   its nonzero coefficients. *)
let standard_form ~lower ~upper ~objs rows =
  let n = Array.length objs and nc = Array.length rows in
  let total = n + nc in
  let coef i j = match rows.(i) with coefs, _, _ -> coefs.(j) in
  let column j =
    List.filter (fun i -> not (Float.equal (coef i j) 0.0)) (List.init nc Fun.id)
  in
  let slack_bounds i = match rows.(i) with _, bounds, _ -> bounds in
  {
    Simplex.num_vars = total;
    num_rows = nc;
    col_index =
      Array.init total (fun j -> if j < n then Array.of_list (column j) else [| j - n |]);
    col_value =
      Array.init total (fun j ->
          if j < n then Array.of_list (List.map (fun i -> coef i j) (column j))
          else [| 1.0 |]);
    rhs = Array.map (fun (_, _, rhs) -> rhs) rows;
    obj = Array.init total (fun j -> if j < n then objs.(j) else 0.0);
    lower = Array.init total (fun j -> if j < n then lower.(j) else fst (slack_bounds (j - n)));
    upper = Array.init total (fun j -> if j < n then upper.(j) else snd (slack_bounds (j - n)));
  }

(* Random bounded LP in Simplex standard form: n <= 5 structurals in
   [0, ub], up to 4 rows of mixed sense with a slack column each, and a
   rhs derived from a witness point so every case is feasible. *)
let random_lp rng =
  let range lo hi = lo +. Rng.float rng (hi -. lo) in
  let n = 1 + Rng.int rng 5 in
  let ubs = Array.init n (fun _ -> range 0.5 10.0) in
  let objs = Array.init n (fun _ -> range (-3.0) 3.0) in
  let x0 = Array.map (fun ub -> Rng.uniform rng *. ub) ubs in
  let nc = 1 + Rng.int rng 4 in
  let rows =
    Array.init nc (fun _ ->
        let coefs = Array.init n (fun _ -> range (-3.0) 3.0) in
        let lhs0 = ref 0.0 in
        Array.iteri (fun j c -> lhs0 := !lhs0 +. (c *. x0.(j))) coefs;
        let slack = range 0.0 5.0 in
        (* (coefs, slack bounds, rhs) for a <=, >= or = row *)
        match Rng.int rng 3 with
        | 0 -> (coefs, (0.0, infinity), !lhs0 +. slack)
        | 1 -> (coefs, (neg_infinity, 0.0), !lhs0 -. slack)
        | _ -> (coefs, (0.0, 0.0), !lhs0))
  in
  standard_form ~lower:(Array.make n 0.0) ~upper:ubs ~objs rows

(* A degenerate LP, drawn as the property tests' [gen_degenerate] draws
   its cases: 2-7 structurals in boxes of 0.5-4 on a half-integer
   witness, one in four fixed at its witness value; 1-3 equality rows
   with coefficients in -2..2, 1-3 redundant combinations of them, and
   up to 3 inequalities, in shuffled order.  Redundant rows keep
   artificials basic at zero, fixed columns never enter, ties on small
   integer data stall pivots, and narrow boxes make bound flips. *)
let degenerate_lp rng =
  let n = 2 + Rng.int rng 6 in
  let boxes =
    Array.init n (fun _ ->
        let a = 1 + Rng.int rng 8 in
        let w = Rng.int rng 17 in
        let f = Rng.int rng 4 in
        (a, w, f))
  in
  let x0 = Array.map (fun (a, w, _) -> 0.5 *. float_of_int (w mod (a + 1))) boxes in
  let fixed i = match boxes.(i) with _, _, f -> f = 0 in
  let lower = Array.mapi (fun i x -> if fixed i then x else 0.0) x0 in
  let upper =
    Array.mapi (fun i (a, _, _) -> if fixed i then x0.(i) else 0.5 *. float_of_int a) boxes
  in
  let objs = Array.init n (fun _ -> Rng.float rng 6.0 -. 3.0) in
  let row () = Array.init n (fun _ -> float_of_int (Rng.int rng 5 - 2)) in
  let eqs = Array.init (1 + Rng.int rng 3) (fun _ -> row ()) in
  let neq = Array.length eqs in
  let redundant =
    Array.init (1 + Rng.int rng 3) (fun _ ->
        let a = Rng.int rng neq in
        let b = Rng.int rng neq in
        let ca = [| 1.0; -1.0; 2.0 |].(Rng.int rng 3) in
        let cb = [| 0.0; 1.0; -1.0 |].(Rng.int rng 3) in
        Array.mapi (fun i x -> (ca *. x) +. (cb *. eqs.(b).(i))) eqs.(a))
  in
  let lhs0 coefs =
    let acc = ref 0.0 in
    Array.iteri (fun j c -> acc := !acc +. (c *. x0.(j))) coefs;
    !acc
  in
  let ineqs =
    Array.init (Rng.int rng 4) (fun _ ->
        let coefs = row () in
        let le = Rng.bool rng in
        let slack = Rng.float rng 2.0 in
        if le then (coefs, (0.0, infinity), lhs0 coefs +. slack)
        else (coefs, (neg_infinity, 0.0), lhs0 coefs -. slack))
  in
  let rows =
    Array.concat
      [
        Array.map (fun c -> (c, (0.0, 0.0), lhs0 c)) (Array.append eqs redundant);
        ineqs;
      ]
  in
  Rng.shuffle rng rows;
  standard_form ~lower ~upper ~objs rows

module Opt = Apple_core.Optimization_engine

(* One [Lp_round] placement of [s] with the pivots it took. *)
let lp_round_line b pivots label s =
  let p0 = T.Counter.value pivots in
  match Opt.solve ~method_:Opt.Lp_round s with
  | p ->
      Printf.bprintf b
        "%s lp-round pivots=%d lp_obj=%h distribution=%s inst=%d cores=%d\n"
        label
        (T.Counter.value pivots - p0)
        p.Opt.lp_objective
        (md5_floats
           (List.concat_map
              (fun hops -> List.concat_map Array.to_list (Array.to_list hops))
              (Array.to_list p.Opt.distribution)))
        (Opt.instance_count p) (Opt.core_count p)
  | exception Opt.Infeasible why ->
      Printf.bprintf b "%s lp-round infeasible: %s\n" label why

let lp_kernel () =
  let pivots = T.Counter.create "apple.lp.pivots" in
  let b = Buffer.create 65536 in
  let was = T.enabled () in
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () -> T.set_enabled was)
    (fun () ->
      Buffer.add_string b "== random standard-form LPs (200) ==\n";
      let rng = Rng.create 2016 and obj_rng = Rng.create 2017 in
      for _ = 1 to 200 do
        solve_and_resolve b obj_rng (random_lp rng)
      done;
      Buffer.add_string b "== degenerate standard-form LPs (200) ==\n";
      let rng = Rng.create 2018 and obj_rng = Rng.create 2019 in
      for _ = 1 to 200 do
        solve_and_resolve b obj_rng (degenerate_lp rng)
      done;
      (* The bench micro kernel "simplex (20x30 covering LP)". *)
      Buffer.add_string b "== 20x30 covering LP ==\n";
      let t = Lp_model.create () in
      let rng = Rng.create 5 in
      let vars =
        Array.init 30 (fun _ -> Lp_model.add_var t ~obj:(1.0 +. Rng.uniform rng) ())
      in
      for _ = 1 to 20 do
        let terms =
          Array.to_list (Array.map (fun v -> (0.5 +. Rng.uniform rng, v)) vars)
        in
        Lp_model.add_constraint t terms Lp_model.Ge (10.0 +. Rng.float rng 10.0)
      done;
      let p0 = T.Counter.value pivots in
      let s = Lp_model.solve_lp t in
      lp_line b
        ~status:
          (match s.Lp_model.status with
          | Lp_model.Optimal -> "optimal"
          | Lp_model.Infeasible -> "infeasible"
          | Lp_model.Unbounded -> "unbounded"
          | Lp_model.Limit -> "limit")
        ~pivots:(T.Counter.value pivots - p0)
        ~objective:s.Lp_model.objective ~primal:s.Lp_model.values
        ~duals:s.Lp_model.duals;
      let scenario ~max_classes ~ecmp ~tm_seed ~seed (topo, total) =
        let tm =
          Apple_traffic.Synth.gravity (Rng.create tm_seed)
            ~n:(Apple_topology.Graph.num_nodes topo.Builders.graph)
            ~total
        in
        let config = { Apple_core.Scenario.default_config with max_classes; ecmp } in
        Apple_core.Scenario.build ~config ~seed topo tm
      in
      Buffer.add_string b "== Optimization Engine (32 classes, ECMP off) ==\n";
      List.iteri
        (fun i ((topo, _) as case) ->
          lp_round_line b pivots topo.Builders.label
            (scenario ~max_classes:32 ~ecmp:false ~tm_seed:(100 + i) ~seed:(200 + i)
               case))
        [
          (Builders.internet2 (), 6_000.0);
          (Builders.geant (), 6_000.0);
          (Builders.as3679 (), 12_000.0);
          (Builders.fat_tree ~k:8, 6_000.0);
        ];
      (* Class counts of the slice manager's joint scenarios, whose
         shaped controllers run this pipeline on every admit and
         depart. *)
      Buffer.add_string b "== Optimization Engine, Internet2 slice sizes ==\n";
      List.iteri
        (fun i classes ->
          lp_round_line b pivots
            (Printf.sprintf "Internet2 %d classes" classes)
            (scenario ~max_classes:classes ~ecmp:true ~tm_seed:(500 + i)
               ~seed:(600 + i)
               (Builders.internet2 (), 1_000.0 +. (250.0 *. float_of_int classes))))
        [ 6; 10; 14; 18; 22; 26; 30 ]);
  Buffer.contents b

(* The verifier's reports and the atom classifier's outputs: everything
   here is read off BDDs (witness packets from [any_sat], rule counts
   from [fold_paths], fractions from [sat_count]), so a change to the
   BDD kernel that altered any diagram's structure shows up.  Four
   gated installs, three faults injected into fresh Internet2 installs
   the way test_verify does, and the bench micro 6-predicate atoms. *)
module V = Apple_verify.Verify
module Rule = Apple_dataplane.Rule
module Tcam = Apple_dataplane.Tcam
module Pred = Apple_classifier.Predicate
module Header = Apple_classifier.Header

let verify_reports () =
  let b = Buffer.create 4096 in
  let install i (topo, total) =
    let tm =
      Apple_traffic.Synth.gravity (Rng.create (300 + i))
        ~n:(Apple_topology.Graph.num_nodes topo.Builders.graph)
        ~total
    in
    let config =
      { Apple_core.Scenario.default_config with max_classes = 32; ecmp = false }
    in
    let s = Apple_core.Scenario.build ~config ~seed:(400 + i) topo tm in
    let ctrl = Apple_core.Controller.create ~jobs:1 ~gate:V.gate s in
    let r = Apple_core.Controller.run_epoch ctrl in
    (s, Option.get (Apple_core.Controller.assignment ctrl), r.Apple_core.Controller.rules)
  in
  let report title (s, asg, built) =
    Printf.bprintf b "== %s ==\n%s" title
      (Format.asprintf "%a" V.pp_report (V.check s asg built))
  in
  let topos =
    [
      (Builders.internet2 (), 6_000.0);
      (Builders.geant (), 6_000.0);
      (Builders.as3679 (), 12_000.0);
      (Builders.fat_tree ~k:8, 6_000.0);
    ]
  in
  List.iteri
    (fun i ((topo, _) as rung) ->
      report (topo.Builders.label ^ " gated install") (install i rung))
    topos;
  let faulted title inject =
    let ((s, _, built) as cfg) = install 0 (List.hd topos) in
    inject s built.Apple_core.Rule_generator.network;
    report ("internet2 " ^ title) cfg
  in
  let is_classifier (r : Rule.phys_rule) =
    match r.Rule.action with
    | Rule.Tag_and_forward _ | Rule.Tag_and_deliver _ -> true
    | Rule.Fwd_to_host _ | Rule.Set_host_and_forward _ | Rule.Goto_next -> false
  in
  faulted "higher-priority duplicate" (fun _ net ->
      let t = List.find (fun t -> Tcam.phys_rules t <> []) (Array.to_list net) in
      match Tcam.phys_rules t with
      | r :: _ as rules ->
          Tcam.set_phys t ({ r with Rule.priority = r.Rule.priority + 1 } :: rules)
      | [] -> ());
  faulted "overlapping classifier" (fun _ net ->
      let t =
        List.find
          (fun t -> List.exists is_classifier (Tcam.phys_rules t))
          (Array.to_list net)
      in
      let rules = Tcam.phys_rules t in
      let r = List.find is_classifier rules in
      let action =
        match r.Rule.action with
        | Rule.Tag_and_forward { subclass; host } ->
            Rule.Tag_and_forward { subclass = subclass + 1; host }
        | Rule.Tag_and_deliver { subclass; host } ->
            Rule.Tag_and_deliver { subclass = subclass + 1; host }
        | a -> a
      in
      Tcam.set_phys t ({ r with Rule.action } :: rules));
  faulted "emptied first-hop table" (fun s net ->
      let sw = s.Apple_core.Types.classes.(0).Apple_core.Types.path.(0) in
      Tcam.set_phys net.(sw) []);
  Buffer.add_string b "== atoms of the bench micro predicates ==\n";
  let e = Pred.env () in
  let preds =
    [
      Pred.src_prefix e "10.0.0.0" 8;
      Pred.src_prefix e "10.1.0.0" 16;
      Pred.dst_prefix e "192.168.0.0" 16;
      Pred.proto e 6;
      Pred.dst_port e 80;
      Pred.dst_port_range e 1000 2000;
    ]
  in
  List.iteri
    (fun i a ->
      Printf.bprintf b "atom %d rules=%d fraction=%h witness=%s\n" i
        (Pred.wildcard_rules a) (Pred.fraction_of_space a)
        (match Pred.witness a with
        | Some p -> Format.asprintf "%a" Header.pp_packet p
        | None -> "none"))
    (Apple_classifier.Atoms.compute e preds);
  Buffer.contents b

let entries =
  [
    ("table3", fun () -> of_rendered (Core_exp.table3 Core_exp.default_opts));
    ("table4", fun () -> of_rendered (Core_exp.table4 Core_exp.default_opts));
    ("fig6", fun () -> of_rendered (Core_exp.fig6 Core_exp.default_opts));
    ("fig6_packet", fig6_packet);
    ("chaos_internet2", chaos_internet2);
    ("trace_sim", trace_sim);
    ("lp_kernel", lp_kernel);
    ("verify_reports", verify_reports);
  ]

(* ------------------------------------------------------------------ *)
(* Unified diff (LCS over lines; goldens are small, O(nm) is fine).    *)

let split_lines s =
  let lines = String.split_on_char '\n' s in
  (* A trailing newline yields a final "" pseudo-line; drop it so equal
     texts with/without it still show the real difference only. *)
  match List.rev lines with
  | "" :: rest -> Array.of_list (List.rev rest)
  | _ -> Array.of_list lines

let diff ~expected ~actual =
  if String.equal expected actual then ""
  else begin
    let a = split_lines expected and b = split_lines actual in
    if Array.length a = Array.length b && Array.for_all2 String.equal a b then
      (* Same lines, different bytes: the only way split_lines loses
         information is the final newline.  A -/+ dump would show two
         identical-looking texts; say what actually differs. *)
      "(no line differs: the texts disagree only on the trailing newline)\n"
    else begin
    let n = Array.length a and m = Array.length b in
    let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
    for i = n - 1 downto 0 do
      for j = m - 1 downto 0 do
        lcs.(i).(j) <-
          (if String.equal a.(i) b.(j) then 1 + lcs.(i + 1).(j + 1)
           else max lcs.(i + 1).(j) lcs.(i).(j + 1))
      done
    done;
    let buf = Buffer.create 256 in
    (* Emit the full diff body (no hunk headers: goldens are short and a
       complete, readable picture beats saving lines). *)
    let rec walk i j =
      if i < n && j < m && String.equal a.(i) b.(j) then begin
        Buffer.add_string buf ("  " ^ a.(i) ^ "\n");
        walk (i + 1) (j + 1)
      end
      else if i < n && (j = m || lcs.(i + 1).(j) >= lcs.(i).(j + 1)) then begin
        Buffer.add_string buf ("- " ^ a.(i) ^ "\n");
        walk (i + 1) j
      end
      else if j < m then begin
        Buffer.add_string buf ("+ " ^ b.(j) ^ "\n");
        walk i (j + 1)
      end
    in
    walk 0 0;
    Buffer.contents buf
    end
  end

(* Shared check used by the test suite: [Error] messages carry the
   refresh instruction (`make goldens`) so a stale or missing golden
   tells the reader how to fix it. *)
let check ~path ~actual =
  if not (Sys.file_exists path) then
    Error
      (Printf.sprintf "missing golden %s — record it with `make goldens`" path)
  else begin
    let ic = open_in_bin path in
    let expected =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let d = diff ~expected ~actual in
    if String.equal d "" then Ok ()
    else
      Error
        (Printf.sprintf
           "golden %s drifted (- recorded / + current); if intentional, \
            refresh with `make goldens` and commit the diff:\n%s"
           path d)
  end
