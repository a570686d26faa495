(* The soak harness: see soak.mli for the model.  Everything that ends
   up in the stream or the summary is a pure function of the config, so
   a resumed run reproduces both byte-for-byte; wall clock and GC data
   are quarantined in the perf report. *)

module Builders = Apple_topology.Builders
module Synth = Apple_traffic.Synth
module Matrix = Apple_traffic.Matrix
module Rng = Apple_prelude.Rng
module Instance = Apple_vnf.Instance
module Nf = Apple_vnf.Nf
module Tcam = Apple_dataplane.Tcam
module Failmask = Apple_dataplane.Failmask
module Counters = Apple_obs.Counters
module Poller = Apple_obs.Poller
module Types = Apple_core.Types
module Scenario = Apple_core.Scenario
module Controller = Apple_core.Controller
module Netstate = Apple_core.Netstate
module Subclass = Apple_core.Subclass
module Dynamic_handler = Apple_core.Dynamic_handler
module Resource_orchestrator = Apple_core.Resource_orchestrator
module Rule_generator = Apple_core.Rule_generator
module Optimization_engine = Apple_core.Optimization_engine
module Verify = Apple_verify.Verify
module Fault = Apple_chaos.Fault
module Tr = Apple_trace.Trace

let tr_step = Tr.span ~cat:"epoch" "soak.epoch"

type load_source = Oracle | Polled

type config = {
  topo : Builders.named;
  seed : int;
  epochs : int;
  reopt_every : int;
  cycle : int;
  total_rate : float;
  max_classes : int;
  heal_after : int;
  loss_band : float;
  window_band : float;
  mem_slack : float;
  engine : Controller.engine;
  jobs : int option;
  load_source : load_source;
  schedule : Fault.schedule;
  gate : bool;
}

let default_config topo =
  {
    topo;
    seed = 42;
    epochs = 2000;
    reopt_every = 96;
    cycle = 672;
    total_rate = 3_000.0;
    max_classes = 40;
    heal_after = 2;
    loss_band = 0.15;
    window_band = 0.02;
    mem_slack = 1.5;
    engine = `Best;
    jobs = None;
    load_source = Oracle;
    schedule = Fault.empty;
    gate = true;
  }

let engine_name = function
  | `Best -> "best"
  | `Lp -> "lp"
  | `Greedy -> "greedy"

let load_name = function Oracle -> "oracle" | Polled -> "polled"

let validate_config c =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if c.epochs <= 0 then err "epochs must be positive"
  else if c.reopt_every <= 0 then err "reopt_every must be positive"
  else if c.cycle <= 0 then err "cycle must be positive"
  else if c.total_rate <= 0.0 then err "total_rate must be positive"
  else if c.max_classes <= 0 then err "max_classes must be positive"
  else if c.heal_after < 1 then err "heal_after must be at least 1"
  else if c.loss_band <= 0.0 then err "loss_band must be positive"
  else if c.window_band <= 0.0 then err "window_band must be positive"
  else if c.mem_slack < 1.0 then err "mem_slack must be at least 1"
  else
    match Fault.validate c.schedule with
    | Error m -> err "schedule: %s" m
    | Ok () ->
        let bad =
          List.find_opt
            (fun (e : Fault.event) ->
              (not (Float.is_integer e.Fault.at))
              ||
              match e.Fault.fault with
              | Fault.Poller_blackout d -> not (Float.is_integer d)
              | _ -> false)
            c.schedule
        in
        (match bad with
        | Some e ->
            err "schedule: event times and blackout durations are epochs \
                 and must be integral (at %g)" e.Fault.at
        | None -> Ok ())

let config_fingerprint c =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "topo=%s seed=%d epochs=%d reopt=%d cycle=%d total=%h classes=%d \
     heal=%d loss=%h wband=%h engine=%s load=%s gate=%b\n"
    c.topo.Builders.label c.seed c.epochs c.reopt_every c.cycle c.total_rate
    c.max_classes c.heal_after c.loss_band c.window_band
    (engine_name c.engine) (load_name c.load_source) c.gate;
  Buffer.add_string b (Fault.to_string c.schedule);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- session state ------------------------------------------------ *)

type window_stat = {
  w_start : int;
  mutable w_epochs : int;
  mutable w_loss_sum : float;
  mutable w_ff_loss_sum : float;
  mutable w_ff_epochs : int;
  mutable w_max_loss : float;
  mutable w_stranded : float;
  mutable w_reverifies : int;
  w_instances : int;
  w_cores : int;
  w_tcam : int;
}

type totals = {
  mutable t_loss_sum : float;
  mutable t_ff_loss_sum : float;
  mutable t_ff_epochs : int;
  mutable t_max_loss : float;
  mutable t_stranded : float;
  mutable t_faults : int;
  mutable t_heals : int;
  mutable t_reverifies : int;
  mutable t_rejected : int;
  mutable t_dropped : int;
  mutable t_checkpoints : int;
  mutable t_deferred : int;
}

type session = {
  cfg : config;
  fp : string;
  scenario : Types.scenario;
  snapshots : Matrix.t array;
  ctrl : Controller.t;
  mutable epoch : int;  (* next epoch to execute *)
  mutable window_start : int;
  mutable blind_until : int;
  mutable faulted : bool;  (* a fault fired this epoch *)
  mutable pending : (int * Instance.t) list;  (* (due epoch, dead), FIFO *)
  mutable open_faults : Fault.open_fault list;  (* newest first *)
  mutable cur : window_stat option;
  mutable windows : string list;  (* rendered rows, newest first *)
  mutable violations : string list;  (* newest first *)
  tot : totals;
  stream : Buffer.t;
  mutable stream_out : out_channel option;
  mutable poller : Poller.t option;
  mutable mem_baseline : int;
  mutable mem_peak : int;
  mutable wall : float;  (* seconds inside [run], this process *)
  mutable ran : int;  (* epochs executed by this process *)
  mutable ckpt_epochs : int list;  (* newest first, this process *)
  mutable state_dir : string option;
  mutable aborted : bool;  (* first-epoch rejection / infeasible *)
  mutable finished : bool;  (* final S line already emitted *)
}

let epoch sess = sess.epoch
let checkpoint_epochs sess = List.rev sess.ckpt_epochs

let no_pending sess = match sess.pending with [] -> true | _ -> false

let state sess =
  match Controller.netstate sess.ctrl with
  | Some st -> st
  | None -> invalid_arg "Soak: no installed epoch"

let oneline s =
  String.concat " | "
    (List.filter
       (fun l -> not (String.equal l ""))
       (String.split_on_char '\n' s))

let emit sess fmt =
  Printf.ksprintf
    (fun line ->
      Buffer.add_string sess.stream line;
      Buffer.add_char sess.stream '\n';
      match sess.stream_out with
      | Some oc ->
          output_string oc line;
          output_char oc '\n';
          flush oc
      | None -> ())
    fmt

let violation sess e fmt =
  Printf.ksprintf
    (fun msg ->
      let m = Printf.sprintf "epoch %d: %s" e (oneline msg) in
      sess.violations <- m :: sess.violations;
      emit sess "V %s" m)
    fmt

(* ---- canonical dumps (state fingerprint) -------------------------- *)

let assignment_dump sess =
  match (Controller.assignment sess.ctrl, Controller.netstate sess.ctrl) with
  | Some asg, Some st ->
      let b = Buffer.create 4096 in
      List.iter
        (fun inst ->
          Printf.bprintf b "inst %d %s %d\n" (Instance.id inst)
            (Nf.name (Instance.kind inst))
            (Instance.host inst))
        (Resource_orchestrator.instances st.Netstate.orchestrator);
      List.iter
        (fun (sc : Subclass.subclass) ->
          Printf.bprintf b "sub %d %d %h" sc.Subclass.class_id
            sc.Subclass.sub_id sc.Subclass.weight;
          Array.iter (fun h -> Printf.bprintf b " %d" h) sc.Subclass.hops;
          Array.iter
            (fun io ->
              Printf.bprintf b " %s"
                (match io with
                | Some i -> string_of_int (Instance.id i)
                | None -> "-"))
            (Subclass.pinned asg sc);
          Buffer.add_char b '\n')
        asg.Subclass.subclasses;
      Array.iter
        (fun pins ->
          List.iter
            (fun (p : Netstate.pinned) ->
              Printf.bprintf b "pin %d %d %h %h" p.Netstate.p_class
                p.Netstate.p_sub p.Netstate.weight p.Netstate.baseline;
              Array.iter
                (fun i -> Printf.bprintf b " %d" (Instance.id i))
                p.Netstate.stage_instances;
              Buffer.add_char b '\n')
            pins)
        st.Netstate.per_class;
      List.iter
        (fun i -> Printf.bprintf b "extra %d\n" (Instance.id i))
        st.Netstate.extra_instances;
      let mask = st.Netstate.mask in
      List.iter
        (fun i -> Printf.bprintf b "mask-inst %d\n" i)
        (Failmask.failed_instances mask);
      List.iter
        (fun s -> Printf.bprintf b "mask-switch %d\n" s)
        (Failmask.failed_switches mask);
      List.iter
        (fun (u, v) -> Printf.bprintf b "mask-link %d %d\n" u v)
        (Failmask.failed_links mask);
      Buffer.contents b
  | _ -> ""

let rates_list sess =
  Array.to_list
    (Array.map
       (fun (c : Types.flow_class) -> (c.Types.id, c.Types.rate))
       sess.scenario.Types.classes)

let handler_events sess =
  match Controller.handler sess.ctrl with
  | Some h -> Dynamic_handler.events h
  | None -> []

let state_fingerprint sess =
  let b = Buffer.create 4096 in
  Buffer.add_string b (assignment_dump sess);
  Buffer.add_string b "--\n";
  (match Controller.last_report sess.ctrl with
  | Some r -> Tcam.add_network b r.Controller.rules.Rule_generator.network
  | None -> ());
  Printf.bprintf b "--\nblind %d\n" sess.blind_until;
  List.iter (fun (k, v) -> Printf.bprintf b "%s %d\n" k v)
    (handler_events sess);
  List.iter (fun (id, r) -> Printf.bprintf b "rate %d %h\n" id r)
    (rates_list sess);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- construction ------------------------------------------------- *)

let build_scenario cfg =
  let rng = Rng.create cfg.seed in
  let profile =
    {
      Synth.default_profile with
      Synth.snapshots = cfg.cycle;
      total_rate = cfg.total_rate;
    }
  in
  let snapshots = Synth.for_topology rng profile cfg.topo in
  let scenario =
    Scenario.build
      ~config:
        {
          Scenario.default_config with
          Scenario.max_classes = cfg.max_classes;
          min_path_hops = 2;
        }
      ~seed:cfg.seed cfg.topo (Matrix.mean_of snapshots)
  in
  (scenario, Array.of_list snapshots)

let make_session ?stream_path cfg =
  let scenario, snapshots = build_scenario cfg in
  let gate = if cfg.gate then Some Verify.gate else None in
  let ctrl =
    Controller.create ~engine:cfg.engine ?jobs:cfg.jobs ?gate scenario
  in
  if (match cfg.load_source with Polled -> true | Oracle -> false) then
    Counters.set_enabled true;
  let stream_out =
    match stream_path with Some p -> Some (open_out p) | None -> None
  in
  {
    cfg;
    fp = config_fingerprint cfg;
    scenario;
    snapshots;
    ctrl;
    epoch = 0;
    window_start = 0;
    blind_until = 0;
    faulted = false;
    pending = [];
    open_faults = [];
    cur = None;
    windows = [];
    violations = [];
    tot =
      {
        t_loss_sum = 0.0;
        t_ff_loss_sum = 0.0;
        t_ff_epochs = 0;
        t_max_loss = 0.0;
        t_stranded = 0.0;
        t_faults = 0;
        t_heals = 0;
        t_reverifies = 0;
        t_rejected = 0;
        t_dropped = 0;
        t_checkpoints = 0;
        t_deferred = 0;
      };
    stream = Buffer.create 65536;
    stream_out;
    poller = None;
    mem_baseline = 0;
    mem_peak = 0;
    wall = 0.0;
    ran = 0;
    ckpt_epochs = [];
    state_dir = None;
    aborted = false;
    finished = false;
  }

let create ?stream_path cfg =
  match validate_config cfg with
  | Error _ as e -> e
  | Ok () -> Ok (make_session ?stream_path cfg)

(* ---- invariant helpers -------------------------------------------- *)

let recheck sess e what =
  sess.tot.t_reverifies <- sess.tot.t_reverifies + 1;
  (match sess.cur with
  | Some w -> w.w_reverifies <- w.w_reverifies + 1
  | None -> ());
  (* The placement's capacity contract is against the window-start rates
     it was solved (and gated) for; mid-window diurnal drift is the
     Dynamic Handler's to absorb, not a structural fault.  Pin the rates
     to the window's snapshot for the re-check, then restore them. *)
  let cfg = sess.cfg in
  Scenario.update_rates sess.scenario
    sess.snapshots.(sess.window_start mod cfg.cycle);
  let r = Controller.recheck_gate sess.ctrl in
  Scenario.update_rates sess.scenario sess.snapshots.(e mod cfg.cycle);
  Netstate.recompute_loads (state sess);
  match r with
  | Ok () -> ()
  | Error m -> violation sess e "%s gate recheck failed: %s" what (oneline m)

(* ---- fault injection ---------------------------------------------- *)

let inject_one sess e (ev : Fault.event) =
  let cfg = sess.cfg in
  (* TCAM losses draw from a fresh generator keyed on (seed, epoch,
     switch): stateless, so the draw is identical on a resumed run. *)
  let did, still =
    Fault.inject sess.ctrl
      ~rng:(fun sw -> Rng.create (cfg.seed + (e * 1021) + sw))
      sess.open_faults ev
  in
  sess.open_faults <- still;
  let name = Fault.fault_name ev.Fault.fault in
  let fault () =
    sess.faulted <- true;
    sess.tot.t_faults <- sess.tot.t_faults + 1
  in
  match did with
  | Fault.Ignored _ -> emit sess "F %d %s ignored" e name
  | Fault.Killed { dead; stranded } ->
      fault ();
      sess.tot.t_stranded <- sess.tot.t_stranded +. stranded;
      (match sess.cur with
      | Some w -> w.w_stranded <- w.w_stranded +. stranded
      | None -> ());
      sess.pending <- sess.pending @ [ (e + cfg.heal_after, dead) ];
      emit sess "F %d kill-instance id=%d host=%d stranded=%.6f" e
        (Instance.id dead) (Instance.host dead) stranded
  | Fault.Failed f ->
      fault ();
      emit sess "F %d %s %s" e name (Fault.element_to_string f.Fault.elem)
  | Fault.Restored { elem; held; _ } ->
      fault ();
      emit sess "F %d %s %s%s" e name
        (Fault.element_to_string elem)
        (if held then " held" else "");
      recheck sess e
        (match elem with
        | Fault.Link _ -> "post-link-restore"
        | Fault.Switch _ -> "post-switch-restart")
  | Fault.Rules_lost { sw; lost; _ } ->
      fault ();
      emit sess "F %d tcam-loss sw=%d lost=%d" e sw lost;
      (* The controller notices within the epoch: full reinstall plus a
         gate re-check. *)
      ignore (Controller.reinstall_rules sess.ctrl);
      recheck sess e "post-tcam-reinstall"
  | Fault.Blackout d ->
      fault ();
      sess.blind_until <- max sess.blind_until (e + int_of_float d);
      emit sess "F %d poller-blackout until=%d" e sess.blind_until

let inject sess e =
  List.iter
    (fun (ev : Fault.event) ->
      if int_of_float ev.Fault.at = e then inject_one sess e ev)
    sess.cfg.schedule

(* ---- heals -------------------------------------------------------- *)

let process_heals sess e =
  let due, rest = List.partition (fun (d, _) -> d <= e) sess.pending in
  sess.pending <- rest;
  List.iter
    (fun (_, dead) ->
      let st = state sess in
      let replacement =
        Resource_orchestrator.respawn st.Netstate.orchestrator dead
      in
      Controller.heal_instance sess.ctrl ~dead ~replacement;
      sess.tot.t_heals <- sess.tot.t_heals + 1;
      emit sess "H %d heal id=%d -> id=%d" e (Instance.id dead)
        (Instance.id replacement);
      recheck sess e "post-heal")
    due

(* ---- polled measurement plane ------------------------------------- *)

let credit_and_poll sess e =
  match sess.poller with
  | None -> ()
  | Some p ->
      let st = state sess in
      Netstate.recompute_loads st;
      let period = Poller.period p in
      List.iter
        (fun inst ->
          let bytes = Instance.offered inst *. 1e6 /. 8.0 *. period in
          Counters.inst_traffic ~id:(Instance.id inst)
            ~packets:(int_of_float (bytes /. 1500.0))
            ~bytes:(int_of_float bytes))
        (Netstate.instances_in_use st);
      Poller.poll p ~now:(float_of_int e *. period)

(* ---- windows ------------------------------------------------------ *)

let open_window sess e ~instances ~cores ~tcam =
  sess.cur <-
    Some
      {
        w_start = e;
        w_epochs = 0;
        w_loss_sum = 0.0;
        w_ff_loss_sum = 0.0;
        w_ff_epochs = 0;
        w_max_loss = 0.0;
        w_stranded = 0.0;
        w_reverifies = 0;
        w_instances = instances;
        w_cores = cores;
        w_tcam = tcam;
      }

let render_window (w : window_stat) =
  let mean =
    if w.w_epochs > 0 then w.w_loss_sum /. float_of_int w.w_epochs else 0.0
  in
  let ff =
    if w.w_ff_epochs > 0 then
      Printf.sprintf "%9.6f" (w.w_ff_loss_sum /. float_of_int w.w_ff_epochs)
    else Printf.sprintf "%9s" "-"
  in
  Printf.sprintf "%6d %6d %9.6f %s %9.6f %5d %5d %5d %9.6f %7d" w.w_start
    w.w_epochs mean ff w.w_max_loss w.w_instances w.w_cores w.w_tcam
    w.w_stranded w.w_reverifies

let flush_window sess =
  match sess.cur with
  | None -> ()
  | Some w ->
      (if w.w_ff_epochs > 0 then
         let ff = w.w_ff_loss_sum /. float_of_int w.w_ff_epochs in
         if ff > sess.cfg.window_band then
           violation sess sess.epoch
             "window %d fault-free mean loss %.6f above band %.6f" w.w_start
             ff sess.cfg.window_band);
      sess.windows <- render_window w :: sess.windows;
      sess.cur <- None

let sample_mem sess =
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  if sess.mem_baseline = 0 then sess.mem_baseline <- live;
  if live > sess.mem_peak then sess.mem_peak <- live

let start_window sess e =
  let cfg = sess.cfg in
  sess.window_start <- e;
  Scenario.update_rates sess.scenario sess.snapshots.(e mod cfg.cycle);
  (match cfg.load_source with
  | Polled ->
      (* The measurement plane never straddles a re-optimization: fresh
         counters and a fresh poller per window. *)
      Counters.reset ();
      let p = Poller.create () in
      sess.poller <- Some p;
      Controller.set_load_source sess.ctrl (Dynamic_handler.Polled p)
  | Oracle -> ());
  match Controller.run_epoch sess.ctrl with
  | report ->
      Fault.reapply sess.ctrl sess.open_faults;
      open_window sess e ~instances:report.Controller.instances
        ~cores:report.Controller.cores ~tcam:report.Controller.tcam_entries;
      emit sess "W %d inst=%d cores=%d tcam=%d" e report.Controller.instances
        report.Controller.cores report.Controller.tcam_entries
  | exception Controller.Rejected msg ->
      if (match Controller.netstate sess.ctrl with None -> true | Some _ -> false)
      then begin
        violation sess e "initial re-optimization rejected: %s" msg;
        sess.aborted <- true
      end
      else begin
        sess.tot.t_rejected <- sess.tot.t_rejected + 1;
        violation sess e "re-optimization rejected: %s" msg;
        emit sess "X %d rejected" e;
        (* Keep serving the previous epoch for this window. *)
        let i, c, t =
          match Controller.last_report sess.ctrl with
          | Some r ->
              (r.Controller.instances, r.Controller.cores,
               r.Controller.tcam_entries)
          | None -> (0, 0, 0)
        in
        open_window sess e ~instances:i ~cores:c ~tcam:t
      end
  | exception Optimization_engine.Infeasible msg ->
      violation sess e "optimization infeasible: %s" msg;
      sess.aborted <- true

(* ---- checkpoints -------------------------------------------------- *)

let at_boundary sess = sess.epoch mod sess.cfg.reopt_every = 0

(* At a boundary [end_window] has flushed the window and dropped any
   pending heal, and the next step re-optimizes from the scenario alone,
   so the harness's own bookkeeping is the whole state.  A rejected
   re-optimization leaves the previous window's placement installed,
   which a restore could not rebuild. *)
let checkpointable sess =
  (not sess.aborted) && sess.tot.t_rejected = 0 && at_boundary sess

let totals_list sess =
  let t = sess.tot in
  [
    ("loss-sum", t.t_loss_sum);
    ("ff-loss-sum", t.t_ff_loss_sum);
    ("ff-epochs", float_of_int t.t_ff_epochs);
    ("max-loss", t.t_max_loss);
    ("stranded", t.t_stranded);
    ("faults", float_of_int t.t_faults);
    ("heals", float_of_int t.t_heals);
    ("reverifies", float_of_int t.t_reverifies);
    ("rejected", float_of_int t.t_rejected);
    ("dropped", float_of_int t.t_dropped);
    ("checkpoints", float_of_int t.t_checkpoints);
    ("deferred", float_of_int t.t_deferred);
  ]

let snapshot sess =
  {
    Checkpoint.fingerprint = sess.fp;
    epoch = sess.epoch;
    stream_bytes = Buffer.length sess.stream;
    blind_until = sess.blind_until;
    mem_baseline = sess.mem_baseline;
    mem_peak = sess.mem_peak;
    open_faults = List.rev sess.open_faults;
    totals = totals_list sess;
    violations = List.rev sess.violations;
    windows = List.rev sess.windows;
  }

let checkpoint_now sess =
  if checkpointable sess then Ok (snapshot sess)
  else
    Error
      "not checkpointable here (not a re-optimization boundary, or a \
       re-optimization was rejected)"

(* Every boundary writes a checkpoint; one that cannot counts as
   deferred. *)
let maybe_checkpoint sess =
  if at_boundary sess then
    if checkpointable sess then begin
      (* Count the checkpoint before serializing so the snapshot includes
         itself; a resumed run then reports the same tally. *)
      sess.tot.t_checkpoints <- sess.tot.t_checkpoints + 1;
      sess.ckpt_epochs <- sess.epoch :: sess.ckpt_epochs;
      match sess.state_dir with
      | Some dir ->
          Checkpoint.save
            ~path:(Filename.concat dir "checkpoint.apple")
            (snapshot sess)
      | None -> ()
    end
    else sess.tot.t_deferred <- sess.tot.t_deferred + 1

(* ---- the epoch step ----------------------------------------------- *)

let end_window sess ~boundary =
  (* A re-optimization supersedes any heal still in flight: the new
     epoch re-provisions every instance from scratch. *)
  if boundary then begin
    List.iter
      (fun (_, dead) ->
        sess.tot.t_dropped <- sess.tot.t_dropped + 1;
        emit sess "D %d drop-heal id=%d" sess.epoch (Instance.id dead))
      sess.pending;
    sess.pending <- []
  end;
  (match handler_events sess with
  | [] -> ()
  | evs ->
      emit sess "C %d %s" sess.epoch
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) evs)));
  flush_window sess;
  sample_mem sess

let step sess =
  let cfg = sess.cfg in
  let e = sess.epoch in
  Tr.with_ ~cls:e tr_step @@ fun () ->
  if e mod cfg.reopt_every = 0 then start_window sess e
  else Scenario.update_rates sess.scenario sess.snapshots.(e mod cfg.cycle);
  if not sess.aborted then begin
    sess.faulted <- false;
    process_heals sess e;
    inject sess e;
    let blind = e < sess.blind_until in
    (match cfg.load_source with
    | Polled when not blind -> credit_and_poll sess e
    | _ -> ());
    let st = state sess in
    let loss =
      if blind then begin
        (* Control rounds are skipped while the poller is dark; the data
           plane still forwards with the last installed weights. *)
        Netstate.recompute_loads st;
        Netstate.network_loss st
      end
      else
        match Controller.handler sess.ctrl with
        | Some h ->
            Dynamic_handler.step h;
            Netstate.network_loss st
        | None ->
            Netstate.recompute_loads st;
            Netstate.network_loss st
    in
    if not (Netstate.weights_valid st) then
      violation sess e "invalid weight distribution";
    let fault_free =
      Failmask.is_clear st.Netstate.mask
      && no_pending sess && (not blind) && not sess.faulted
    in
    if fault_free && loss > cfg.loss_band then
      violation sess e "fault-free loss %.6f above band %.6f" loss
        cfg.loss_band;
    (match sess.cur with
    | Some w ->
        w.w_epochs <- w.w_epochs + 1;
        w.w_loss_sum <- w.w_loss_sum +. loss;
        if loss > w.w_max_loss then w.w_max_loss <- loss;
        if fault_free then begin
          w.w_ff_epochs <- w.w_ff_epochs + 1;
          w.w_ff_loss_sum <- w.w_ff_loss_sum +. loss
        end
    | None -> ());
    sess.tot.t_loss_sum <- sess.tot.t_loss_sum +. loss;
    if loss > sess.tot.t_max_loss then sess.tot.t_max_loss <- loss;
    if fault_free then begin
      sess.tot.t_ff_epochs <- sess.tot.t_ff_epochs + 1;
      sess.tot.t_ff_loss_sum <- sess.tot.t_ff_loss_sum +. loss
    end;
    emit sess "E %d loss=%.6f" e loss;
    sess.epoch <- e + 1;
    sess.ran <- sess.ran + 1;
    let boundary = at_boundary sess in
    if boundary || sess.epoch = cfg.epochs then end_window sess ~boundary;
    maybe_checkpoint sess
  end

(* ---- outcome ------------------------------------------------------ *)

type outcome = {
  completed : bool;
  epochs_run : int;
  violations : string list;
  mem_flat : bool;
  peak_live_words : int;
  epochs_per_sec : float;
  summary : string;
  perf : string;
  stream : string;
}

let mem_flat sess =
  sess.mem_baseline = 0
  || float_of_int sess.mem_peak
     <= sess.cfg.mem_slack *. float_of_int sess.mem_baseline

let summary_text sess ~completed =
  let cfg = sess.cfg in
  let t = sess.tot in
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "soak %s seed=%d epochs=%d/%d engine=%s load=%s reopt=%d cycle=%d \
     heal-after=%d events=%d\n"
    cfg.topo.Builders.label cfg.seed sess.epoch cfg.epochs
    (engine_name cfg.engine) (load_name cfg.load_source) cfg.reopt_every
    cfg.cycle cfg.heal_after
    (List.length cfg.schedule);
  Printf.bprintf b "status: %s\n"
    (if sess.aborted then "aborted"
     else if completed then "completed"
     else Printf.sprintf "halted at epoch %d" sess.epoch);
  Printf.bprintf b
    "window epochs mean-loss   ff-mean  max-loss  inst cores  tcam  \
     stranded reverify\n";
  List.iter (fun row -> Printf.bprintf b "%s\n" row) (List.rev sess.windows);
  let epochs_seen = sess.epoch in
  let mean =
    if epochs_seen > 0 then t.t_loss_sum /. float_of_int epochs_seen else 0.0
  in
  let ff_mean =
    if t.t_ff_epochs > 0 then t.t_ff_loss_sum /. float_of_int t.t_ff_epochs
    else 0.0
  in
  Printf.bprintf b
    "totals: mean-loss=%.6f ff-mean=%.6f max-loss=%.6f stranded=%.6f \
     faults=%d heals=%d reverifies=%d rejected=%d dropped-heals=%d \
     checkpoints=%d deferred=%d\n"
    mean ff_mean t.t_max_loss t.t_stranded t.t_faults t.t_heals t.t_reverifies
    t.t_rejected t.t_dropped t.t_checkpoints t.t_deferred;
  (match List.rev sess.violations with
  | [] -> Printf.bprintf b "violations: none\n"
  | vs ->
      Printf.bprintf b "violations: %d\n" (List.length vs);
      List.iter (fun v -> Printf.bprintf b "  %s\n" v) vs);
  Buffer.contents b

let perf_text sess =
  let eps =
    if sess.wall > 0.0 then float_of_int sess.ran /. sess.wall else 0.0
  in
  Printf.sprintf
    "epochs/sec %.1f (%d epoch(s) in %.2fs this process)\n\
     live words: baseline %d peak %d (%.2fx, %.2fx allowed) %s\n"
    eps sess.ran sess.wall sess.mem_baseline sess.mem_peak
    (if sess.mem_baseline > 0 then
       float_of_int sess.mem_peak /. float_of_int sess.mem_baseline
     else 1.0)
    sess.cfg.mem_slack
    (if mem_flat sess then "flat" else "GROWING")

let run ?halt_at ?state_dir sess =
  (match state_dir with
  | Some d ->
      if not (Sys.file_exists d) then Sys.mkdir d 0o755;
      sess.state_dir <- Some d
  | None -> ());
  let t0 = Unix.gettimeofday () in (* lint: L5 — wall runtime for the summary's perf line only *)
  let stop =
    match halt_at with
    | Some h -> min (max h 0) sess.cfg.epochs
    | None -> sess.cfg.epochs
  in
  while sess.epoch < stop && not sess.aborted do
    step sess
  done;
  sess.wall <- sess.wall +. (Unix.gettimeofday () -. t0); (* lint: L5 — wall runtime for the summary's perf line only *)
  let completed = (not sess.aborted) && sess.epoch >= sess.cfg.epochs in
  if completed && not sess.finished then begin
    sess.finished <- true;
    emit sess "S epochs=%d violations=%d" sess.epoch
      (List.length sess.violations)
  end;
  {
    completed;
    epochs_run = sess.epoch;
    violations = List.rev sess.violations;
    mem_flat = mem_flat sess;
    peak_live_words = sess.mem_peak;
    epochs_per_sec =
      (if sess.wall > 0.0 then float_of_int sess.ran /. sess.wall else 0.0);
    summary = summary_text sess ~completed;
    perf = perf_text sess;
    stream = Buffer.contents sess.stream;
  }

(* BENCH_soak.json: the committed bench trajectory.  Everything under
   "trajectory" and "totals" is deterministic for a config; "perf" is
   machine-dependent and expected to drift when the snapshot is
   refreshed (schema documented in EXPERIMENTS.md). *)
let bench_json sess (o : outcome) =
  let cfg = sess.cfg in
  let t = sess.tot in
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  add "{\n";
  add "  \"schema\": \"apple-bench-soak/1\",\n";
  add "  \"topology\": \"%s\",\n" cfg.topo.Builders.label;
  add "  \"seed\": %d,\n" cfg.seed;
  add "  \"epochs\": %d,\n" cfg.epochs;
  add "  \"reopt_every\": %d,\n" cfg.reopt_every;
  add "  \"cycle\": %d,\n" cfg.cycle;
  add "  \"engine\": \"%s\",\n" (engine_name cfg.engine);
  add "  \"load_source\": \"%s\",\n" (load_name cfg.load_source);
  add "  \"events\": %d,\n" (List.length cfg.schedule);
  add "  \"fingerprint\": \"%s\",\n" sess.fp;
  add "  \"completed\": %b,\n" o.completed;
  add "  \"violations\": %d,\n" (List.length o.violations);
  let epochs_seen = sess.epoch in
  let mean =
    if epochs_seen > 0 then t.t_loss_sum /. float_of_int epochs_seen else 0.0
  in
  let ff_mean =
    if t.t_ff_epochs > 0 then t.t_ff_loss_sum /. float_of_int t.t_ff_epochs
    else 0.0
  in
  add "  \"totals\": {";
  add "\"mean_loss\": %.6f, " mean;
  add "\"ff_mean_loss\": %.6f, " ff_mean;
  add "\"max_loss\": %.6f, " t.t_max_loss;
  add "\"stranded_mbps\": %.6f, " t.t_stranded;
  add "\"faults\": %d, " t.t_faults;
  add "\"heals\": %d, " t.t_heals;
  add "\"reverifies\": %d, " t.t_reverifies;
  add "\"rejected\": %d, " t.t_rejected;
  add "\"dropped_heals\": %d, " t.t_dropped;
  add "\"checkpoints\": %d, " t.t_checkpoints;
  add "\"deferred\": %d},\n" t.t_deferred;
  add "  \"trajectory\": [\n";
  let rows = List.rev sess.windows in
  List.iteri
    (fun i row ->
      Scanf.sscanf row " %d %d %f %s %f %d %d %d %f %d"
        (fun w epochs mean ff maxl inst cores tcam stranded reverify ->
          add
            "    {\"window\": %d, \"epochs\": %d, \"mean_loss\": %.6f, \
             \"ff_mean_loss\": %s, \"max_loss\": %.6f, \"instances\": %d, \
             \"cores\": %d, \"tcam\": %d, \"stranded_mbps\": %.6f, \
             \"reverifies\": %d}%s\n"
            w epochs mean
            (if String.equal ff "-" then "null" else ff)
            maxl inst cores tcam stranded reverify
            (if i = List.length rows - 1 then "" else ",")))
    rows;
  add "  ],\n";
  add "  \"perf\": {";
  add "\"epochs_per_sec\": %.1f, " o.epochs_per_sec;
  add "\"peak_live_words\": %d, " o.peak_live_words;
  add "\"mem_flat\": %b}\n" o.mem_flat;
  add "}\n";
  Buffer.contents b

(* ---- restore ------------------------------------------------------ *)

let restore_totals sess (ck : Checkpoint.t) =
  let f key =
    match
      List.find_opt (fun (k, _) -> String.equal k key) ck.Checkpoint.totals
    with
    | Some (_, v) -> v
    | None -> 0.0
  in
  let i k = int_of_float (f k) in
  let t = sess.tot in
  t.t_loss_sum <- f "loss-sum";
  t.t_ff_loss_sum <- f "ff-loss-sum";
  t.t_ff_epochs <- i "ff-epochs";
  t.t_max_loss <- f "max-loss";
  t.t_stranded <- f "stranded";
  t.t_faults <- i "faults";
  t.t_heals <- i "heals";
  t.t_reverifies <- i "reverifies";
  t.t_rejected <- i "rejected";
  t.t_dropped <- i "dropped";
  t.t_checkpoints <- i "checkpoints";
  t.t_deferred <- i "deferred"

let restore ?stream_path ?stream_prefix cfg (ck : Checkpoint.t) =
  let err fmt = Printf.ksprintf (fun m -> Error ("checkpoint: " ^ m)) fmt in
  match validate_config cfg with
  | Error _ as e -> e
  | Ok () ->
      let fp = config_fingerprint cfg in
      if not (String.equal fp ck.Checkpoint.fingerprint) then
        err "config fingerprint mismatch (the run used different parameters)"
      else if ck.Checkpoint.epoch < 0 || ck.Checkpoint.epoch > cfg.epochs then
        err "epoch %d out of range" ck.Checkpoint.epoch
      else if ck.Checkpoint.epoch mod cfg.reopt_every <> 0 then
        err "epoch %d is not a re-optimization boundary" ck.Checkpoint.epoch
      else
        let prefix =
          match stream_prefix with
          | Some s ->
              if String.length s < ck.Checkpoint.stream_bytes then
                Error
                  "checkpoint: stream prefix shorter than the checkpoint \
                   records"
              else Ok (String.sub s 0 ck.Checkpoint.stream_bytes)
          | None ->
              if ck.Checkpoint.stream_bytes = 0 then Ok ""
              else
                Error
                  "checkpoint: the interrupted run's stream prefix is \
                   required to resume"
        in
        (match prefix with
        | Error _ as e -> e
        | Ok prefix ->
            let sess = make_session ?stream_path cfg in
            sess.epoch <- ck.Checkpoint.epoch;
            sess.blind_until <- ck.Checkpoint.blind_until;
            sess.open_faults <- List.rev ck.Checkpoint.open_faults;
            sess.windows <- List.rev ck.Checkpoint.windows;
            sess.violations <- List.rev ck.Checkpoint.violations;
            sess.mem_baseline <- ck.Checkpoint.mem_baseline;
            sess.mem_peak <- ck.Checkpoint.mem_peak;
            restore_totals sess ck;
            Buffer.add_string sess.stream prefix;
            (match sess.stream_out with
            | Some oc ->
                output_string oc prefix;
                flush oc
            | None -> ());
            (* The next step's re-optimization rebuilds the controller
               from the (seed-derived) scenario. *)
            Ok sess)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let resume_dir ?stream_path cfg ~dir =
  match Checkpoint.load ~path:(Filename.concat dir "checkpoint.apple") with
  | Error _ as e -> e
  | Ok ck ->
      let sp =
        match stream_path with
        | Some p -> p
        | None -> Filename.concat dir "stream.log"
      in
      let prefix = if Sys.file_exists sp then Some (read_file sp) else None in
      restore ~stream_path:sp ?stream_prefix:prefix cfg ck
