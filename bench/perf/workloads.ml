module C = Apple_core
module B = Apple_topology.Builders
module Graph = Apple_topology.Graph
module Synth = Apple_traffic.Synth
module Rng = Apple_prelude.Rng
module Verify = Apple_verify.Verify
module Walk = Apple_dataplane.Walk
module Failmask = Apple_dataplane.Failmask
module Instance = Apple_vnf.Instance
module Slice = Apple_slice.Slice
module Strace = Apple_slice.Trace
module OE = C.Optimization_engine
module T = Apple_telemetry.Telemetry

type installed = { instances : int; cores : int; tcam : int }

type outcome = {
  line : string;
  installed : installed option;
  loss : float list;
}

type session = {
  describe : string;
  op : Probe.t -> float * (outcome, string) result;
}

type t = {
  name : string;
  min_ops : int;
  chunk : int;
  setup : jobs:int -> seed:int -> session;
}

let ( let* ) = Result.bind
let errorf fmt = Printf.ksprintf (fun m -> Error m) fmt
let nodes (topo : B.named) = Graph.num_nodes topo.B.graph

let scenario_config ?(min_path_hops = 1) ?(ecmp = true) classes =
  {
    C.Scenario.default_config with
    max_classes = classes;
    min_path_hops;
    ecmp;
  }

let installed_of (r : C.Controller.epoch_report) =
  { instances = r.instances; cores = r.cores; tcam = r.tcam_entries }

let equal_installed a b =
  a.instances = b.instances && a.cores = b.cores && a.tcam = b.tcam

let render_installed i =
  Printf.sprintf "inst=%d cores=%d tcam=%d" i.instances i.cores i.tcam

let need what = function
  | Some x -> x
  | None -> invalid_arg (what ^ ": no epoch installed")

let check_loss l =
  if Float.is_nan l || l < 0.0 || l > 1.0 then
    errorf "network loss %h outside [0, 1]" l
  else Ok ()

(* ---- re-optimization ------------------------------------------------- *)

(* [Controller.run_epoch]'s body, one public call per stage, so the
   traced run can attribute an epoch to its layers.  Engine selection
   repeats [Engine_select.solve]'s rule: the greedy placement is kept
   only when it validates and beats the LP by more than 1e-9. *)
let staged_epoch probe ~jobs (s : C.Types.scenario) =
  let timed layer f =
    let b0 = Probe.busy probe layer in
    let r = Probe.call probe layer f in
    (r, Probe.busy probe layer -. b0)
  in
  let lp, lp_s =
    timed Probe.Optimization_engine (fun () ->
        try Some (OE.solve s) with OE.Infeasible _ -> None)
  in
  let greedy =
    Probe.call probe Probe.Heuristic_engine (fun () ->
        match C.Heuristic_engine.solve ~jobs s with
        | p -> (
            match OE.check_distribution s p with
            | Ok () -> Some p
            | Error _ -> None)
        | exception OE.Infeasible _ -> None)
  in
  let placement, lp_kept =
    match (lp, greedy) with
    | None, None -> raise (OE.Infeasible "both engines failed")
    | Some p, None -> (p, true)
    | None, Some p -> (p, false)
    | Some a, Some b ->
        if b.OE.objective_value < a.OE.objective_value -. 1e-9 then (b, false)
        else (a, true)
  in
  let dvars =
    Array.fold_left
      (fun acc (c : C.Types.flow_class) ->
        acc + (Array.length c.path * Array.length c.chain))
      0 s.classes
  in
  Probe.add probe "solves" 1.0;
  Probe.add probe "lp_kept" (if lp_kept then 1.0 else 0.0);
  Probe.point probe "optimization_engine" ~x:(float_of_int dvars) ~y:lp_s;
  let asg =
    Probe.call probe Probe.Subclass (fun () -> C.Subclass.assign s placement)
  in
  Probe.sample probe "subclasses"
    (float_of_int (List.length asg.C.Subclass.subclasses));
  let rules =
    Probe.call probe Probe.Rule_generator (fun () ->
        C.Rule_generator.build s asg)
  in
  Probe.sample probe "vswitch_rules"
    (float_of_int rules.C.Rule_generator.vswitch_rules);
  let report, verify_s =
    timed Probe.Verify (fun () -> Verify.check s asg rules)
  in
  Probe.point probe "verify"
    ~x:(float_of_int (report.Verify.phys_rules + report.Verify.vswitch_rules))
    ~y:verify_s;
  if not (Verify.ok report) then
    errorf "staged epoch refused by the verifier: %s" (Verify.summary report)
  else begin
    Probe.call probe Probe.Netstate (fun () ->
        C.Netstate.recompute_loads (C.Netstate.of_assignment s asg));
    Ok
      {
        instances = OE.instance_count placement;
        cores = OE.core_count placement;
        tcam = rules.C.Rule_generator.tcam_with_tagging;
      }
  end

(* One gated epoch on [ctrl].  Untraced, the timed region is [run_epoch]
   itself.  Traced, it is the staged replica; [run_epoch] then runs
   outside the operation's time as the closure reference and must
   install the same configuration. *)
let reopt probe ~jobs ctrl =
  let epoch () =
    match C.Controller.run_epoch ctrl with
    | r -> Ok r
    | exception C.Controller.Rejected m ->
        errorf "epoch rejected by the gate: %s" m
  in
  if not (Probe.traced probe) then
    let r, dt = Measure.time epoch in
    (dt, Result.map installed_of r)
  else
    let b0 = Probe.busy_total probe in
    let staged, dt =
      Measure.time (fun () ->
          staged_epoch probe ~jobs (C.Controller.scenario ctrl))
    in
    let stages = Probe.busy_total probe -. b0 in
    (* The reference runs with Telemetry off, so its solves and walks
       are not counted a second time. *)
    let r, total =
      let on = T.enabled () in
      T.set_enabled false;
      Fun.protect ~finally:(fun () -> T.set_enabled on) (fun () ->
          Measure.time epoch)
    in
    Probe.sample probe "unattributed" (Measure.unattributed ~stages ~total);
    let res =
      let* staged = staged in
      let* r = r in
      let got = installed_of r in
      if equal_installed got staged then Ok got
      else
        errorf "staged epoch installed %s, run_epoch %s"
          (render_installed staged) (render_installed got)
    in
    (dt, res)

(* [Controller.handle_snapshot], split into its three public calls. *)
let snapshot probe ctrl tm =
  if not (Probe.traced probe) then
    Measure.time (fun () -> C.Controller.handle_snapshot ctrl tm)
  else
    let h = need "snapshot" (C.Controller.handler ctrl) in
    let st = need "snapshot" (C.Controller.netstate ctrl) in
    let events () =
      List.fold_left (fun a (_, n) -> a + n) 0 (C.Dynamic_handler.events h)
    in
    Measure.time (fun () ->
        Probe.call probe Probe.Scenario (fun () ->
            C.Scenario.update_rates (C.Controller.scenario ctrl) tm);
        let e0 = events () in
        Probe.call probe Probe.Dynamic_handler (fun () ->
            C.Dynamic_handler.step h);
        Probe.add probe "handler_events" (float_of_int (events () - e0));
        Probe.call probe Probe.Netstate (fun () -> C.Netstate.network_loss st))

(* ---- cold-reopt ------------------------------------------------------ *)

let ladder () =
  [|
    (B.internet2 (), 6_000.0);
    (B.geant (), 6_000.0);
    (B.as3679 (), 12_000.0);
    (B.fat_tree ~k:8, 6_000.0);
    (B.fat_tree ~k:16, 6_000.0);
  |]

let cold_reopt ?(classes = 32) ?(rungs = 5) ?(min_ops = 100) () =
  let setup ~jobs ~seed =
    let ladder = Array.sub (ladder ()) 0 rungs in
    let rng = Rng.create seed in
    let next = ref 0 in
    let op probe =
      let topo, total = ladder.(!next mod rungs) in
      incr next;
      let tm = Synth.gravity rng ~n:(nodes topo) ~total in
      (* ECMP off keeps each rung's class count at the cap, so op cost
         tracks topology size rather than how many pairs split. *)
      let s =
        C.Scenario.build
          ~config:(scenario_config ~ecmp:false classes)
          ~seed:(Rng.int rng 1_000_000) topo tm
      in
      let ctrl, create_s =
        Measure.time (fun () -> C.Controller.create ~jobs ~gate:Verify.gate s)
      in
      let dt, res = reopt probe ~jobs ctrl in
      let res =
        let* inst = res in
        let* () =
          Result.map_error
            (Printf.sprintf "%s: installed epoch fails Controller.verify: %s"
               topo.B.label)
            (C.Controller.verify ctrl)
        in
        let st = need "cold-reopt" (C.Controller.netstate ctrl) in
        let loss = C.Netstate.network_loss st in
        let* () = check_loss loss in
        Ok
          {
            line =
              Printf.sprintf "reopt %s classes=%d %s loss=%h" topo.B.label
                (Array.length s.C.Types.classes)
                (render_installed inst) loss;
            installed = Some inst;
            loss = [ loss ];
          }
      in
      (create_s +. dt, res)
    in
    let labels = Array.map (fun ((t : B.named), _) -> t.B.label) ladder in
    {
      describe =
        Printf.sprintf "cold-reopt classes=%d ladder=%s" classes
          (String.concat "," (Array.to_list labels));
      op;
    }
  in
  { name = "cold-reopt"; min_ops; chunk = rungs; setup }

(* ---- diurnal-soak ---------------------------------------------------- *)

let diurnal_soak ?(classes = 40) ?(reopt_every = 96) ?(min_ops = 40 * 96) ()
    =
  let setup ~jobs ~seed =
    let topo = B.internet2 () in
    let profile =
      {
        Synth.default_profile with
        snapshots = reopt_every;
        period = reopt_every;
        total_rate = 3_000.0;
      }
    in
    (* The class set is part of the workload: one fixed gravity base.
       The seed drives the rates, a fresh diurnal cycle of noise and
       bursts per re-optimization window, so no window repeats.  With a
       seeded class set, which 40 classes a seed drew set the cost of a
       run, not the code. *)
    let base =
      Synth.gravity (Rng.create 0) ~n:(nodes topo) ~total:profile.total_rate
    in
    let s =
      C.Scenario.build
        ~config:(scenario_config ~min_path_hops:2 classes)
        ~seed:0 topo base
    in
    let rng = Rng.create seed in
    let window () = Array.of_list (Synth.sequence rng profile ~base) in
    let snaps = ref (window ()) and tick = ref 0 in
    let ctrl = C.Controller.create ~jobs ~gate:Verify.gate s in
    let initial = C.Controller.run_epoch ctrl in
    let op probe =
      let t = !tick in
      incr tick;
      let k = t mod reopt_every in
      if k = 0 && t > 0 then snaps := window ();
      let tm = !snaps.(k) in
      let reopt_s, reopted =
        if k <> 0 then (0.0, Ok None)
        else begin
          C.Scenario.update_rates s tm;
          let dt, r = reopt probe ~jobs ctrl in
          (dt, Result.map Option.some r)
        end
      in
      let loss, snap_s = snapshot probe ctrl tm in
      let res =
        let* inst = reopted in
        let* () = check_loss loss in
        let st = need "diurnal-soak" (C.Controller.netstate ctrl) in
        let* () =
          if C.Netstate.weights_valid st then Ok ()
          else errorf "tick %d: sub-class weights no longer sum to 1" t
        in
        let reopt_line =
          match inst with
          | None -> ""
          | Some i -> " reopt " ^ render_installed i
        in
        Ok
          {
            line = Printf.sprintf "tick %d%s loss=%h" t reopt_line loss;
            installed = inst;
            loss = [ loss ];
          }
      in
      (reopt_s +. snap_s, res)
    in
    {
      describe =
        Printf.sprintf "diurnal-soak classes=%d reopt_every=%d scenario=%d %s"
          classes reopt_every
          (Array.length s.C.Types.classes)
          (render_installed (installed_of initial));
      op;
    }
  in
  { name = "diurnal-soak"; min_ops; chunk = reopt_every; setup }

(* ---- slice-churn ----------------------------------------------------- *)

module Churn = struct
  type t = {
    topo : B.named;
    mgr : Slice.t;
    next : Slice.t -> Strace.entry option;
    mutable installed : installed;  (** the substrate after the last decision *)
    mutable admitted : int;
    mutable rejected : int;
  }

  let create ~jobs ?(host_cores = C.Types.default_host_cores) topo next =
    {
      topo;
      mgr = Slice.create ~jobs ~gate:true ~host_cores topo;
      next;
      installed = { instances = 0; cores = 0; tcam = 0 };
      admitted = 0;
      rejected = 0;
    }

  let of_trace ~jobs topo (tr : Strace.t) =
    let pending = ref tr.entries in
    create ~jobs ?host_cores:tr.cores topo (fun _ ->
        match !pending with
        | [] -> None
        | e :: rest ->
            pending := rest;
            Some e)

  let admitted t = t.admitted
  let rejected t = t.rejected
  let manager t = t.mgr
  let residents t = List.length (Slice.residents t.mgr)

  let resident t ~tenant ~name =
    List.exists
      (fun (_, (s : Slice.spec)) ->
        String.equal s.tenant tenant && String.equal s.name name)
      (Slice.residents t.mgr)

  let decided t line = Ok { line; installed = Some t.installed; loss = [] }

  let arrive t probe skipped at (a : Strace.arrive) =
    let key = a.tenant ^ "/" ^ a.name in
    let spec =
      Slice.synth_spec t.topo ~seed:a.seed ~tenant:a.tenant ~name:a.name
        ~isolated:a.isolated ~weight:a.weight ?demand:a.demand ~nat:a.nat
        ~rate:a.rate ~classes:a.classes ()
    in
    let before = residents t and fp = Slice.fingerprint t.mgr in
    let decision, dt =
      Measure.time (fun () ->
          Probe.call probe Probe.Slice (fun () -> Slice.admit t.mgr spec))
    in
    Probe.add probe "admits" 1.0;
    let res =
      match decision with
      | Ok adm when adm.residents <> before + 1 ->
          errorf "%s: admit left %d residents, expected %d" key adm.residents
            (before + 1)
      | Ok adm ->
          t.admitted <- t.admitted + 1;
          Probe.add probe "admitted" 1.0;
          t.installed <-
            {
              instances = adm.instances;
              cores = adm.cores;
              tcam = adm.tcam_rules;
            };
          decided t
            (Printf.sprintf "%s[%d] arrive %s -> ADMIT residents=%d %s tags=%d \
                             subs=%d"
               skipped at key adm.residents
               (render_installed t.installed)
               adm.global_tags adm.verified_subclasses)
      | Error reason ->
          t.rejected <- t.rejected + 1;
          Probe.add probe ("reject_" ^ Slice.reason_name reason) 1.0;
          if not (String.equal fp (Slice.fingerprint t.mgr)) then
            errorf "%s: rejected admission changed the substrate fingerprint"
              key
          else
            decided t
              (Format.asprintf "%s[%d] arrive %s -> REJECT %a" skipped at key
                 Slice.pp_reason reason)
    in
    (dt, res)

  (* A resident's departure can be refused when re-packing the remainder
     needs more isolation clones than a host holds; [Trace.run] reports
     it as an error line and the substrate must stay as it was. *)
  let depart t probe skipped at ~tenant ~name =
    let before = residents t and fp = Slice.fingerprint t.mgr in
    let r, dt =
      Measure.time (fun () ->
          Probe.call probe Probe.Slice (fun () ->
              Slice.depart t.mgr ~tenant ~name))
    in
    Probe.add probe "departs" 1.0;
    let res =
      match r with
      | Error m ->
          Probe.add probe "depart_refused" 1.0;
          if String.equal fp (Slice.fingerprint t.mgr) then
            decided t
              (Printf.sprintf "%s[%d] depart %s/%s -> REFUSED %s" skipped at
                 tenant name m)
          else
            errorf "%s/%s: refused departure changed the substrate fingerprint"
              tenant name
      | Ok d when d.Slice.residents <> before - 1 ->
          errorf "%s/%s: depart left %d residents, expected %d" tenant name
            d.residents (before - 1)
      | Ok d ->
          let i = t.installed in
          t.installed <-
            {
              instances = i.instances - d.freed_instances;
              cores = i.cores - d.freed_cores;
              tcam = i.tcam - d.freed_tcam;
            };
          decided t
            (Printf.sprintf "%s[%d] depart %s/%s -> DEPART residents=%d \
                             freed-cores=%d freed-tcam=%d freed-tags=%d"
               skipped at tenant name d.residents d.freed_cores d.freed_tcam
               d.freed_tags)
    in
    (dt, res)

  let step t probe =
    let rec go skipped =
      match t.next t.mgr with
      | None -> None
      | Some e -> (
          let ignore_ what who =
            go (Printf.sprintf "%s[%d] %s %s -> IGNORE; " skipped e.at what who)
          in
          match e.Strace.event with
          | Strace.Arrive a when resident t ~tenant:a.tenant ~name:a.name ->
              ignore_ "arrive" (a.tenant ^ "/" ^ a.name)
          | Strace.Arrive a -> Some (arrive t probe skipped e.at a)
          | Strace.Depart { tenant; name } when not (resident t ~tenant ~name)
            ->
              ignore_ "depart" (tenant ^ "/" ^ name)
          | Strace.Depart { tenant; name } ->
              Some (depart t probe skipped e.at ~tenant ~name))
    in
    go ""
end

(* The tenant population is part of the workload: a fixed catalog of
   slices whose parameters are drawn as [Slice.Trace.synth] draws
   arrivals.  The seed drives the churn, which absent slice arrives and
   which resident departs. *)
let catalog n =
  let rng = Rng.create 0 in
  Array.init n (fun i ->
      let tenant = Printf.sprintf "t%d" (Rng.int rng 6) in
      let name = Printf.sprintf "s%d" i in
      let rate = 100.0 +. (float_of_int (Rng.int rng 12) *. 100.0) in
      let demand =
        if Rng.bool rng then Some (rate *. (1.2 +. Rng.uniform rng)) else None
      in
      let classes = 1 + Rng.int rng 3 in
      let weight = float_of_int (1 + Rng.int rng 4) in
      let isolated = Rng.uniform rng < 0.2 in
      let nat = Rng.uniform rng < 0.25 in
      {
        Strace.tenant;
        name;
        rate;
        demand;
        classes;
        weight;
        isolated;
        nat;
        seed = Rng.int rng 1_000_000;
      })

(* An endless stream swinging a substrate between [low] and [high]
   residents: arrivals while growing, departures while shrinking, so
   every swing covers the same state sizes and its cost stays
   stationary.  It opens with the first [low] catalog entries, in
   order, so set-up is the same for every seed. *)
let sawtooth rng cat ~low ~high =
  let growing = ref true and at = ref 0 in
  let opening = ref (List.filteri (fun i _ -> i < low) (Array.to_list cat)) in
  fun mgr ->
    let residents = Slice.residents mgr in
    let absent (a : Strace.arrive) =
      not
        (List.exists
           (fun (_, (s : Slice.spec)) ->
             String.equal s.tenant a.tenant && String.equal s.name a.name)
           residents)
    in
    let n = List.length residents in
    if n >= high then growing := false else if n <= low then growing := true;
    incr at;
    let arrive a = Some { Strace.at = !at; event = Strace.Arrive a } in
    match !opening with
    | a :: rest ->
        opening := rest;
        arrive a
    | [] when !growing ->
        let absent = List.filter absent (Array.to_list cat) in
        arrive (List.nth absent (Rng.int rng (List.length absent)))
    | [] ->
        let _, (s : Slice.spec) = List.nth residents (Rng.int rng n) in
        Some
          {
            Strace.at = !at;
            event = Strace.Depart { tenant = s.tenant; name = s.name };
          }

let slice_churn ?(substrates = 12) ?(low = 4) ?(high = 16) ?(min_ops = 600) ()
    =
  let setup ~jobs ~seed =
    let topo = B.internet2 () in
    let rng = Rng.create seed in
    let cat = catalog (3 * high) in
    (* Independent substrates, each churned by its own stream and served
       in turn: which tenants share a substrate sets the cost of a
       decision, and with one substrate per run that was left to the
       seed. *)
    let churns =
      Array.init substrates (fun _ ->
          Churn.create ~jobs topo (sawtooth (Rng.split rng) cat ~low ~high))
    in
    let residents c = List.length (Slice.residents (Churn.manager c)) in
    let step c probe =
      match Churn.step c probe with
      | Some r -> r
      | None -> failwith "slice-churn: stream ended"
    in
    let rec fill c acc =
      if residents c >= low then List.rev acc
      else
        match step c (Probe.create ~traced:false) with
        | _, Ok o -> fill c (o.line :: acc)
        | _, Error m -> failwith ("slice-churn set-up: " ^ m)
    in
    let opened =
      List.concat_map (fun c -> fill c []) (Array.to_list churns)
    in
    let turn = ref 0 in
    let op probe =
      let c = churns.(!turn mod substrates) in
      incr turn;
      let r = step c probe in
      Probe.sample probe "residents" (float_of_int (residents c));
      r
    in
    {
      describe =
        Printf.sprintf "slice-churn substrates=%d low=%d high=%d topo=%s\n%s"
          substrates low high topo.B.label
          (String.concat "\n" opened);
      op;
    }
  in
  { name = "slice-churn"; min_ops; chunk = 2 * (high - low); setup }

(* ---- failover-heal --------------------------------------------------- *)

let walk_requests (s : C.Types.scenario) (asg : C.Subclass.assignment) ~depth
    =
  let reqs = ref [] in
  Array.iter
    (fun (c : C.Types.flow_class) ->
      let subs =
        List.filter
          (fun (sub : C.Subclass.subclass) -> sub.class_id = c.id)
          asg.subclasses
      in
      Array.iter
        (function
          | [] -> ()
          | (p : C.Types.Prefix.prefix) :: _ -> reqs := (c, p.addr) :: !reqs)
        (C.Rule_generator.subclass_prefixes c subs ~depth))
    s.classes;
  List.rev !reqs
  |> List.mapi (fun flow ((c : C.Types.flow_class), src_ip) ->
         ( c,
           {
             Walk.rq_path = Array.to_list c.path;
             rq_cls = c.id;
             rq_src_ip = src_ip;
             rq_start_in_host = false;
             rq_flow = flow;
           } ))
  |> Array.of_list

(* Every walk must succeed, enforce its class's chain and keep its
   routing path. *)
let check_walks ctrl requests walks =
  let asg = need "failover-heal" (C.Controller.assignment ctrl) in
  let kind = Hashtbl.create 64 in
  List.iter
    (fun i -> Hashtbl.replace kind (Instance.id i) (Instance.kind i))
    asg.C.Subclass.instances;
  let bad i w =
    let (c : C.Types.flow_class), rq = requests.(i) in
    match w with
    | Error e -> Some (Format.asprintf "class %d: %a" c.id Walk.pp_error e)
    | Ok tr ->
        if
          Walk.policy_enforced tr ~instance_kind:(Hashtbl.find kind)
            ~chain:(Array.to_list c.chain)
          && Walk.interference_free tr ~path:rq.Walk.rq_path
        then None
        else Some (Printf.sprintf "class %d: walk leaves chain or path" c.id)
  in
  match List.filter_map Fun.id (Array.to_list (Array.mapi bad walks)) with
  | [] -> Ok ()
  | e :: _ -> Error e

let failover_heal ?(classes = 120) ?(min_ops = 20) () =
  let setup ~jobs ~seed =
    let topo = B.geant () in
    (* The installed network is part of the workload; the seed drives
       which instances die. *)
    let s =
      C.Scenario.build ~config:(scenario_config classes) ~seed:0 topo
        (Synth.gravity (Rng.create 0) ~n:(nodes topo) ~total:6_000.0)
    in
    let rng = Rng.create seed in
    let ctrl = C.Controller.create ~jobs ~gate:Verify.gate s in
    let initial = C.Controller.run_epoch ctrl in
    let requests =
      walk_requests s
        (need "failover-heal" (C.Controller.assignment ctrl))
        ~depth:initial.rules.C.Rule_generator.split_depth
    in
    let reqs = Array.map snd requests in
    let st = need "failover-heal" (C.Controller.netstate ctrl) in
    let mask = st.C.Netstate.mask and orch = st.C.Netstate.orchestrator in
    let handler = need "failover-heal" (C.Controller.handler ctrl) in
    let kill = ref 0 in
    let op probe =
      let k = !kill in
      incr kill;
      let asg = need "failover-heal" (C.Controller.assignment ctrl) in
      let in_use = C.Netstate.instances_in_use st in
      let candidates =
        List.filter
          (fun i -> List.exists (fun j -> Instance.id j = Instance.id i) in_use)
          asg.C.Subclass.instances
        |> List.sort (fun a b -> Int.compare (Instance.id a) (Instance.id b))
        |> Array.of_list
      in
      let dead = candidates.(Rng.int rng (Array.length candidates)) in
      let call layer f = Probe.call probe layer f in
      let (stranded, replacement, verdict, walks), dt =
        Measure.time (fun () ->
            call Probe.Dataplane (fun () ->
                Failmask.fail_instance mask (Instance.id dead));
            let stranded =
              call Probe.Dynamic_handler (fun () ->
                  C.Dynamic_handler.repair handler ~dead)
            in
            let replacement =
              call Probe.Resource_orchestrator (fun () ->
                  C.Resource_orchestrator.respawn orch dead)
            in
            call Probe.Controller (fun () ->
                C.Controller.heal_instance ctrl ~dead ~replacement);
            let verdict =
              call Probe.Verify (fun () -> C.Controller.recheck_gate ctrl)
            in
            let report = need "failover-heal" (C.Controller.last_report ctrl) in
            let walks =
              call Probe.Dataplane (fun () ->
                  Walk.run_batch report.rules.C.Rule_generator.network
                    ~requests:reqs ~mask ())
            in
            (stranded, replacement, verdict, walks))
      in
      Probe.add probe "walks" (float_of_int (Array.length walks));
      let res =
        let fail fmt = Printf.ksprintf (Printf.sprintf "kill %d: %s" k) fmt in
        let* () =
          Result.map_error (fail "healed epoch refused by the gate: %s") verdict
        in
        let* () =
          if Failmask.is_clear mask then Ok ()
          else Error (fail "failure mask not clear after heal")
        in
        let* () =
          Result.map_error (fail "%s") (check_walks ctrl requests walks)
        in
        let loss = C.Netstate.network_loss st in
        let* () = check_loss loss in
        let inst =
          installed_of (need "failover-heal" (C.Controller.last_report ctrl))
        in
        Ok
          {
            line =
              Printf.sprintf "kill %d: %d -> %d stranded=%h walks=%d %s loss=%h"
                k (Instance.id dead) (Instance.id replacement) stranded
                (Array.length walks) (render_installed inst) loss;
            installed = Some inst;
            loss = [ loss ];
          }
      in
      (dt, res)
    in
    {
      describe =
        Printf.sprintf "failover-heal classes=%d scenario=%d walks=%d %s"
          classes
          (Array.length s.C.Types.classes)
          (Array.length reqs)
          (render_installed (installed_of initial));
      op;
    }
  in
  { name = "failover-heal"; min_ops; chunk = 20; setup }

let all = [ cold_reopt (); diurnal_soak (); slice_churn (); failover_heal () ]
