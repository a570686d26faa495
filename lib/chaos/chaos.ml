module Engine = Apple_sim.Engine
module Rng = Apple_prelude.Rng
module Table = Apple_prelude.Text_table
module Instance = Apple_vnf.Instance
module Lifecycle = Apple_vnf.Lifecycle
module Failmask = Apple_dataplane.Failmask
module Walk = Apple_dataplane.Walk
module Counters = Apple_obs.Counters
module Types = Apple_core.Types
module Subclass = Apple_core.Subclass
module Netstate = Apple_core.Netstate
module Controller = Apple_core.Controller
module Dynamic_handler = Apple_core.Dynamic_handler
module Resource_orchestrator = Apple_core.Resource_orchestrator
module Rule_generator = Apple_core.Rule_generator
module Tr = Apple_trace.Trace

let tr_fault = Tr.span ~cat:"heal" "chaos.fault"

let log = Logs.Src.create "apple.chaos" ~doc:"Chaos engine"

module Log = (val Logs.src_log log : Logs.LOG)

type config = {
  round : float;
  duration : float;
  packet_bytes : int;
  jobs : int option;
  boot : Lifecycle.boot_path option;
  backoff : Resource_orchestrator.backoff;
}

let default_config =
  {
    round = 0.05;
    duration = 0.0;
    packet_bytes = 1500;
    jobs = None;
    boot = None;
    backoff = Resource_orchestrator.default_backoff;
  }

type verdict = [ `Ok | `Rejected of string | `Skipped ]

type fault_outcome = {
  o_at : float;
  o_label : string;
  o_recovery : float option;
  o_lost : int;
  o_verdict : verdict;
}

type outcome = {
  scenario_label : string;
  seed : int;
  faults : fault_outcome list;
  total_lost : int;
  heals_ok : int;
  heals_rejected : int;
  final_loss : float;
  log : string list;
}

(* What an open fault holds down, the key under which round-by-round
   blackhole losses are attributed back to it: a link or switch (the
   very value {!Fault.inject} opened, so a heal closes exactly the
   faults it names), an instance, a switch's APPLE table, or the
   poller. *)
type elem = D of Fault.open_fault | I of int | T of int | B

let elem_equal a b =
  match (a, b) with
  | D f, D g -> f == g
  | I a, I b | T a, T b -> a = b
  | B, B -> true
  | (D _ | I _ | T _ | B), _ -> false

(* Mutable in-flight record; frozen into [fault_outcome] at the end. *)
type fo = {
  fo_at : float;
  mutable fo_label : string;
  mutable fo_recovery : float option;
  mutable fo_lost : int;
  mutable fo_carry : float;
  mutable fo_rate : float;  (* extra dark rate (TCAM loss), Mbps *)
  mutable fo_verdict : verdict;
}

let run ?(config = default_config) ~seed ~schedule (s : Types.scenario) =
  (match Fault.validate schedule with
  | Ok () -> ()
  | Error m -> invalid_arg ("Chaos.run: invalid schedule: " ^ m));
  let ctrl =
    Controller.create ?jobs:config.jobs ~gate:Apple_verify.Verify.gate s
  in
  ignore (Controller.run_epoch ctrl);
  let state =
    match Controller.netstate ctrl with Some st -> st | None -> assert false
  in
  let handler =
    match Controller.handler ctrl with Some h -> h | None -> assert false
  in
  let mask = state.Netstate.mask in
  let world = Engine.create () in
  let rng = Rng.create seed in
  let duration =
    if config.duration > 0.0 then config.duration
    else
      let last = List.fold_left (fun acc e -> max acc e.Fault.at) 0.0 schedule in
      (* Grace window covering the slowest heal: capped backoff plus a
         normal-VM boot. *)
      last +. config.backoff.Resource_orchestrator.cap
      +. Lifecycle.normal_vm_boot +. 2.0
  in
  let lines = ref [] in
  let logf w fmt =
    Format.kasprintf
      (fun m ->
        let line = Printf.sprintf "[%8.3f] %s" (Engine.now w) m in
        lines := line :: !lines;
        Log.info (fun f -> f "%s" line))
      fmt
  in
  (* Chronological list of fault records, and the active set keyed by
     what each holds down (assoc list: deterministic order, tiny
     sizes). *)
  let all = ref [] in
  let active = ref [] in
  let open_fault w ~elem ~label =
    let fo =
      {
        fo_at = Engine.now w;
        fo_label = label;
        fo_recovery = None;
        fo_lost = 0;
        fo_carry = 0.0;
        fo_rate = 0.0;
        fo_verdict = `Skipped;
      }
    in
    all := fo :: !all;
    active := (elem, fo) :: !active;
    fo
  in
  (* Close the active faults among [elems], in that order.  Every heal
     event re-checks the healed epoch with the verifier gate once, and
     each fault it closes takes that verdict. *)
  let close_faults w elems =
    match
      List.filter_map
        (fun elem -> List.find_opt (fun (e, _) -> elem_equal e elem) !active)
        elems
    with
    | [] -> ()
    | closing ->
        let verdict =
          match Controller.recheck_gate ctrl with
          | Ok () -> `Ok
          | Error m -> `Rejected m
        in
        List.iter
          (fun (elem, fo) ->
            active := List.filter (fun (e, _) -> not (elem_equal e elem)) !active;
            fo.fo_recovery <- Some (Engine.now w -. fo.fo_at);
            fo.fo_verdict <- verdict;
            logf w "healed: %s after %.3fs (%d packet(s) lost, verifier %s)"
              fo.fo_label
              (Engine.now w -. fo.fo_at)
              fo.fo_lost
              (match fo.fo_verdict with
              | `Ok -> "ok"
              | `Rejected _ -> "REJECTED"
              | `Skipped -> "skipped"))
          closing
  in
  (* The interpreter's open link/switch faults, newest first. *)
  let downs = ref [] in
  (* Respawn attempt counter per host (repeated crashes back off). *)
  let attempts = Hashtbl.create 8 in
  let blind_until = ref neg_infinity in
  (* Rate of traffic whose representative walk fails against the current
     tables (excluding mask-induced blackholes, which are attributed to
     their own faults). *)
  let walk_dark_rate () =
    match (Controller.last_report ctrl, Controller.assignment ctrl) with
    | Some report, Some asg ->
        let rules = report.Controller.rules in
        (* Summed per class, then across classes: the order of the float
           additions reaches the logged dark rate and the packets lost. *)
        List.fold_left
          (fun acc ((c : Types.flow_class), reps) ->
            acc
            +. List.fold_left
                 (fun dark ((sub : Subclass.subclass), p) ->
                   match
                     Walk.run rules.Rule_generator.network
                       ~path:(Array.to_list c.Types.path)
                       ~cls:c.Types.id ~src_ip:p.Types.Prefix.addr ()
                   with
                   | Ok _ -> dark
                   | Error _ -> dark +. (c.Types.rate *. sub.Subclass.weight))
                 0.0 reps)
          0.0
          (Rule_generator.representatives s asg rules)
    | _ -> 0.0
  in
  let inject w (ev : Fault.event) =
    Tr.with_ tr_fault @@ fun () ->
    let name = Fault.fault_name ev.Fault.fault in
    let did, still = Fault.inject ctrl ~rng:(fun _ -> rng) !downs ev in
    downs := still;
    match did with
    | Fault.Ignored why -> logf w "%s: %s; ignored" name why
    | Fault.Killed { dead; stranded } ->
        let id = Instance.id dead and host = Instance.host dead in
        let fo =
          open_fault w ~elem:(I id)
            ~label:
              (Printf.sprintf "kill-instance %d (%s at switch %d)" id
                 (Apple_vnf.Nf.name (Instance.kind dead))
                 host)
        in
        logf w "%s" fo.fo_label;
        logf w "repair: stranded weight %.3f across classes (%.1f Mbps blackholed)"
          stranded
          (Netstate.blackholed_rate state);
        let attempt =
          Option.value ~default:0 (Hashtbl.find_opt attempts host)
        in
        Hashtbl.replace attempts host (attempt + 1);
        ignore
          (Resource_orchestrator.respawn state.Netstate.orchestrator ~world:w
             ~rng ?boot:config.boot ~policy:config.backoff ~attempt
             ~on_ready:(fun replacement ->
               Controller.heal_instance ctrl ~dead ~replacement;
               logf world "instance %d respawned as %d (attempt %d)" id
                 (Instance.id replacement) attempt;
               close_faults world [ I id ])
             dead)
    | Fault.Failed f ->
        let fo =
          open_fault w ~elem:(D f)
            ~label:
              (Printf.sprintf "%s %s" name
                 (Fault.element_to_string f.Fault.elem))
        in
        logf w "%s" fo.fo_label
    | Fault.Restored { elem; healed; held } ->
        logf w "%s %s%s" name
          (Fault.element_to_string elem)
          (if held then " held" else "");
        (* Oldest first, as they were injected. *)
        close_faults w (List.rev_map (fun f -> D f) healed)
    | Fault.Rules_lost { sw; lost; p } ->
        let fo =
          open_fault w ~elem:(T sw)
            ~label:
              (Printf.sprintf "tcam-loss at switch %d (%d rule(s), p=%g)" sw
                 lost p)
        in
        fo.fo_rate <- walk_dark_rate ();
        logf w "%s, %.1f Mbps dark" fo.fo_label fo.fo_rate;
        (* The controller reinstalls the full tables one rule-install
           latency later and the gate re-checks them. *)
        Engine.schedule w ~delay:Lifecycle.rule_install_time (fun w' ->
            ignore (Controller.reinstall_rules ctrl);
            logf w' "tcam reinstall at switch %d" sw;
            close_faults w' [ T sw ])
    | Fault.Blackout d ->
        blind_until := max !blind_until (Engine.now w +. d);
        let fo =
          open_fault w ~elem:B ~label:(Printf.sprintf "poller-blackout %gs" d)
        in
        logf w "%s" fo.fo_label;
        Engine.schedule w ~delay:d (fun w' ->
            logf w' "poller back";
            close_faults w' [ B ])
  in
  (* ---- control rounds + loss integration -------------------------- *)
  let bytes_per_mbps_s = 1e6 /. 8.0 in
  let credit fo ~sw mbps_s =
    fo.fo_carry <-
      fo.fo_carry
      +. (mbps_s *. bytes_per_mbps_s /. float_of_int config.packet_bytes);
    let whole = int_of_float fo.fo_carry in
    if whole > 0 then begin
      fo.fo_carry <- fo.fo_carry -. float_of_int whole;
      fo.fo_lost <- fo.fo_lost + whole;
      Counters.blackhole ~sw ~packets:whole
    end
  in
  (* First failed element on the sub-class's route, in traversal order
     (mirrors the packet simulator's emit-time check): which active
     faults hold it down, and the switch to credit. *)
  let first_dead (p : Netstate.pinned) (c : Types.flow_class) =
    let path = c.Types.path in
    let n = Array.length path in
    let down elem = function
      | D f -> Fault.element_equal f.Fault.elem elem
      | I _ | T _ | B -> false
    in
    let rec scan i =
      if i >= n then None
      else if i > 0 && Failmask.link_down mask path.(i - 1) path.(i) then
        Some
          ( down (Fault.Link (Fault.norm_pair (path.(i - 1), path.(i)))),
            path.(i - 1) )
      else if Failmask.switch_down mask path.(i) then
        Some (down (Fault.Switch path.(i)), path.(i))
      else scan (i + 1)
    in
    match scan 0 with
    | Some hit -> Some hit
    | None ->
        Array.fold_left
          (fun acc inst ->
            let id = Instance.id inst in
            match acc with
            | Some _ -> acc
            | None ->
                if Failmask.instance_down mask id then
                  Some (elem_equal (I id), Instance.host inst)
                else None)
          None p.Netstate.stage_instances
  in
  let round_tick w =
    if Engine.now w >= !blind_until then Dynamic_handler.step handler
    else Netstate.recompute_loads state;
    if !active <> [] then begin
      let dt = config.round in
      Array.iteri
        (fun h subs ->
          let c = s.Types.classes.(h) in
          if c.Types.rate > 0.0 then
            List.iter
              (fun (p : Netstate.pinned) ->
                if p.Netstate.weight > 0.0 then
                  match first_dead p c with
                  | None -> ()
                  | Some (holds, sw) -> (
                      match List.find_opt (fun (e, _) -> holds e) !active with
                      | Some (_, fo) ->
                          credit fo ~sw (c.Types.rate *. p.Netstate.weight *. dt)
                      | None -> ()))
              subs)
        state.Netstate.per_class;
      (* TCAM-loss dark traffic (rule misses, not mask faults). *)
      List.iter
        (fun (e, fo) ->
          match e with
          | T sw when fo.fo_rate > 0.0 -> credit fo ~sw (fo.fo_rate *. dt)
          | T _ | D _ | I _ | B -> ())
        !active
    end
  in
  Engine.every world ~period:config.round ~until:duration round_tick;
  List.iter
    (fun e ->
      Engine.schedule_at world ~time:e.Fault.at (fun w -> inject w e))
    schedule;
  Engine.run ~until:(duration +. 1e-9) world;
  (* Freeze. *)
  let faults =
    List.rev_map
      (fun fo ->
        {
          o_at = fo.fo_at;
          o_label = fo.fo_label;
          o_recovery = fo.fo_recovery;
          o_lost = fo.fo_lost;
          o_verdict = fo.fo_verdict;
        })
      !all
  in
  Netstate.recompute_loads state;
  {
    scenario_label = s.Types.topo.Apple_topology.Builders.label;
    seed;
    faults;
    total_lost = List.fold_left (fun acc f -> acc + f.o_lost) 0 faults;
    heals_ok =
      List.length (List.filter (fun f -> f.o_verdict = `Ok) faults);
    heals_rejected =
      List.length
        (List.filter
           (fun f -> match f.o_verdict with `Rejected _ -> true | _ -> false)
           faults);
    final_loss = Netstate.network_loss state;
    log = List.rev !lines;
  }

let render o =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "chaos run: %s, seed %d\n" o.scenario_label o.seed);
  Buffer.add_string b
    (Printf.sprintf
       "%d fault(s), %d packet(s) lost, %d/%d heals verified, final loss %.4f\n"
       (List.length o.faults) o.total_lost o.heals_ok
       (o.heals_ok + o.heals_rejected)
       o.final_loss);
  List.iter (fun line -> Buffer.add_string b (line ^ "\n")) o.log;
  let t =
    Table.create [ "fault"; "t_inject"; "recovery_s"; "pkts_lost"; "verifier" ]
  in
  List.iter
    (fun f ->
      Table.add_row t
        [
          f.o_label;
          Printf.sprintf "%.3f" f.o_at;
          (match f.o_recovery with
          | Some r -> Printf.sprintf "%.3f" r
          | None -> "-");
          string_of_int f.o_lost;
          (match f.o_verdict with
          | `Ok -> "ok"
          | `Rejected m -> "REJECTED: " ^ m
          | `Skipped -> "open");
        ])
    o.faults;
  Buffer.add_string b (Table.render t);
  if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '\n' then
    Buffer.add_char b '\n';
  Buffer.contents b
