module Matrix = Apple_traffic.Matrix
module Instance = Apple_vnf.Instance

let log = Logs.Src.create "apple.controller" ~doc:"APPLE controller"

module Log = (val Logs.src_log log : Logs.LOG)
module T = Apple_telemetry.Telemetry

module Tr = Apple_trace.Trace

let tr_epoch = Tr.span ~cat:"epoch" "controller.epoch"
let tr_gate = Tr.span ~cat:"verify" "controller.verify_gate"
let tr_heal = Tr.span ~cat:"heal" "controller.heal"
let m_epochs = T.Counter.create "apple.controller.epochs"
let m_rejected = T.Counter.create "apple.controller.rejected_epochs"

type epoch_report = {
  placement : Optimization_engine.placement;
  rules : Rule_generator.built;
  instances : int;
  cores : int;
  tcam_entries : int;
  solve_seconds : float;
}

type engine = [ `Best | `Lp | `Per_class | `Greedy ]

type gate =
  Types.scenario ->
  Subclass.assignment ->
  Rule_generator.built ->
  (unit, string) result

type shape = Types.scenario -> Subclass.assignment -> Subclass.assignment

exception Rejected of string

type t = {
  s : Types.scenario;
  objective : Optimization_engine.objective;
  engine : engine;
  jobs : int option;
  failover : Dynamic_handler.config;
  mutable load_source : Dynamic_handler.load_source;
  gate : gate option;
  shape : shape option;
  mutable report : epoch_report option;
  mutable state : Netstate.t option;
  mutable handler : Dynamic_handler.t option;
  mutable assignment : Subclass.assignment option;
}

let create ?(objective = Optimization_engine.Min_instances) ?(engine = `Best)
    ?jobs ?(failover = Dynamic_handler.default_config)
    ?(load_source = Dynamic_handler.Oracle) ?gate ?shape s =
  {
    s;
    objective;
    engine;
    jobs;
    failover;
    load_source;
    gate;
    shape;
    report = None;
    state = None;
    handler = None;
    assignment = None;
  }

let set_load_source t src = t.load_source <- src

let run_epoch t =
  Tr.with_ tr_epoch @@ fun () ->
  let placement =
    match t.engine with
    | `Best -> Engine_select.solve_best ~objective:t.objective ?jobs:t.jobs t.s
    | `Lp -> Optimization_engine.solve ~objective:t.objective t.s
    | `Per_class ->
        Optimization_engine.solve ~objective:t.objective
          ~method_:Optimization_engine.Per_class ?jobs:t.jobs t.s
    | `Greedy -> Heuristic_engine.solve ~objective:t.objective ?jobs:t.jobs t.s
  in
  let assignment = Subclass.assign t.s placement in
  let assignment =
    match t.shape with None -> assignment | Some f -> f t.s assignment
  in
  let rules = Rule_generator.build t.s assignment in
  (* Static admission gate: a rejected configuration never reaches the
     data plane (no netstate, no handler — the previous epoch stays
     installed). *)
  (match t.gate with
  | None -> ()
  | Some gate -> (
      match Tr.with_ tr_gate (fun () -> gate t.s assignment rules) with
      | Ok () -> ()
      | Error msg ->
          T.Counter.incr m_rejected;
          Log.err (fun m -> m "epoch rejected by verify gate: %s" msg);
          raise (Rejected msg)));
  let state = Netstate.of_assignment t.s assignment in
  Netstate.recompute_loads state;
  let report =
    {
      placement;
      rules;
      instances = Optimization_engine.instance_count placement;
      cores = Optimization_engine.core_count placement;
      tcam_entries = rules.Rule_generator.tcam_with_tagging;
      solve_seconds = placement.Optimization_engine.solve_seconds;
    }
  in
  t.report <- Some report;
  t.state <- Some state;
  t.assignment <- Some assignment;
  t.handler <-
    Some
      (Dynamic_handler.create ~config:t.failover ~load_source:t.load_source
         state);
  T.Counter.incr m_epochs;
  Apple_obs.Flight.record Apple_obs.Flight.Epoch
    ~a:(Array.length t.s.Types.classes)
    ~b:report.instances ~c:report.cores ();
  Log.info (fun m ->
      m "epoch: %d classes -> %d instances (%d cores), %d TCAM entries, %.2fs"
        (Array.length t.s.Types.classes)
        report.instances report.cores report.tcam_entries report.solve_seconds);
  report

let handle_snapshot t tm =
  match (t.state, t.handler) with
  | Some state, Some handler ->
      Scenario.update_rates t.s tm;
      Dynamic_handler.step handler;
      Netstate.network_loss state
  | _ -> invalid_arg "Controller.handle_snapshot: run_epoch first"

let scenario t = t.s
let netstate t = t.state
let last_report t = t.report
let assignment t = t.assignment
let handler t = t.handler

let reinstall_rules t =
  match (t.report, t.assignment) with
  | Some report, Some assignment ->
      let rules = Rule_generator.build t.s assignment in
      t.report <-
        Some
          { report with rules; tcam_entries = rules.Rule_generator.tcam_with_tagging };
      rules
  | _ -> invalid_arg "Controller.reinstall_rules: run_epoch first"

let recheck_gate t =
  match t.gate with
  | None -> Ok ()
  | Some gate -> (
      match (t.assignment, t.report) with
      | Some assignment, Some report ->
          Tr.with_ tr_gate (fun () -> gate t.s assignment report.rules)
      | _ -> Error "no epoch has been run")

let heal_instance t ~dead ~replacement =
  match (t.state, t.handler, t.assignment) with
  | Some state, Some handler, Some assignment ->
      Tr.with_ ~cls:(Instance.id dead) tr_heal @@ fun () ->
      Dynamic_handler.heal handler ~dead ~replacement;
      (* Point the assignment's pinning records at the replacement so
         regenerated rules (and [verify]'s walks) name the live id. *)
      let stale =
        (* lint: L3 — independent per-key re-pins; order cannot leak *)
        Hashtbl.fold
          (fun k inst acc ->
            if Instance.id inst = Instance.id dead then k :: acc else acc)
          assignment.Subclass.instance_of []
      in
      List.iter
        (fun k -> Hashtbl.replace assignment.Subclass.instance_of k replacement)
        stale;
      let instances =
        List.map
          (fun i -> if Instance.id i = Instance.id dead then replacement else i)
          assignment.Subclass.instances
      in
      t.assignment <- Some { assignment with Subclass.instances };
      Apple_dataplane.Failmask.restore_instance state.Netstate.mask
        (Instance.id dead);
      ignore (reinstall_rules t)
  | _ -> invalid_arg "Controller.heal_instance: run_epoch first"

let verify t =
  match (t.report, t.assignment) with
  | Some report, Some assignment -> (
      let errors = ref [] in
      let fail fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
      (match Optimization_engine.check_distribution t.s report.placement with
      | Ok () -> ()
      | Error e -> fail "distribution: %s" e);
      (* Sub-class weights realize the distribution. *)
      let by_class = Rule_generator.by_class t.s assignment in
      Array.iter
        (fun c ->
          let d = report.placement.Optimization_engine.distribution.(c.Types.id) in
          if not (Subclass.weights_consistent c d by_class.(c.Types.id)) then
            fail "class %d: sub-class weights drift from distribution" c.Types.id)
        t.s.Types.classes;
      if not (Subclass.instance_load_ok assignment ~slack:1.0001) then
        fail "an instance is pinned above its capacity";
      (* Packet walks: policy enforcement + interference freedom. *)
      let inst_kind = Hashtbl.create 64 in
      List.iter
        (fun i -> Hashtbl.replace inst_kind (Instance.id i) (Instance.kind i))
        assignment.Subclass.instances;
      List.iter
        (fun (c, reps) ->
          List.iter
            (fun (_, p) ->
              let path = Array.to_list c.Types.path in
              match
                Apple_dataplane.Walk.run report.rules.Rule_generator.network
                  ~path ~cls:c.Types.id ~src_ip:p.Types.Prefix.addr ()
              with
              | Error e ->
                  fail "class %d: walk failed (%s)" c.Types.id
                    (Format.asprintf "%a" Apple_dataplane.Walk.pp_error e)
              | Ok trace ->
                  if
                    not
                      (Apple_dataplane.Walk.policy_enforced trace
                         ~instance_kind:(Hashtbl.find inst_kind)
                         ~chain:(Array.to_list c.Types.chain))
                  then fail "class %d: policy chain violated" c.Types.id;
                  if not (Apple_dataplane.Walk.interference_free trace ~path)
                  then fail "class %d: forwarding path changed" c.Types.id)
            reps)
        (Rule_generator.representatives t.s assignment report.rules);
      (match !errors with
      | [] -> Ok ()
      | msgs -> Error (String.concat "; " (List.rev msgs))))
  | _ -> Error "no epoch has been run"
