module Instance = Apple_vnf.Instance
module Nf = Apple_vnf.Nf

let log = Logs.Src.create "apple.failover" ~doc:"Dynamic Handler (fast failover)"

module Log = (val Logs.src_log log : Logs.LOG)
module T = Apple_telemetry.Telemetry
module Flight = Apple_obs.Flight

(* Global mirrors of the per-handler counters, so one report covers a
   whole replay with many handlers; weight_moves counts each individual
   sub-class weight reassignment inside an episode. *)
let m_overloads = T.Counter.create "apple.failover.overloads"
let m_spawns = T.Counter.create "apple.failover.spawns"
let m_rollbacks = T.Counter.create "apple.failover.rollbacks"
let m_rebalances = T.Counter.create "apple.failover.rebalances"
let m_weight_moves = T.Counter.create "apple.failover.weight_moves"
let m_repairs = T.Counter.create "apple.failover.repairs"
let m_heals = T.Counter.create "apple.failover.heals"

type config = {
  high_watermark : float;
  low_watermark : float;
  spawn_allowed : bool;
}

(* The sub-class assignment packs instances up to nominal capacity, and
   the loss knee sits at ~1.02x (Fig. 6), so "overloaded" means offered
   strictly above capacity: 1.001 leaves the packed base state quiet while
   catching every loss-causing burst before the knee. *)
let default_config =
  { high_watermark = 1.001; low_watermark = 0.45; spawn_allowed = true }

(* One overload episode per hot instance.  [touched] lists the sub-classes
   whose weight the episode changed; rollback restores each to its
   assignment-time {!Netstate.pinned.baseline}, which is immune to
   interference between concurrent episodes (any residual imbalance is
   re-detected and re-handled on the next control round). *)
type episode = {
  instance : Instance.t;
  mutable touched : Netstate.pinned list;
  mutable spawned : (Instance.t * Netstate.pinned list ref) list;
      (** failover instances (pool) and the sub-classes pinned to each *)
}

(* Where the detector reads instance load from.  [Oracle] is the seed
   behaviour: the simulator's own ground-truth offered load, state no
   real controller has.  [Polled] reads the measured rates of an
   {!Apple_obs.Poller} — overloads are detected from dataplane counter
   deltas, delayed and smoothed exactly as an OpenFlow controller would
   see them.  Rollback bookkeeping (weights, baselines) always uses the
   controller's own state: that part is control-plane state, not a
   measurement. *)
type load_source = Oracle | Polled of Apple_obs.Poller.t

(* One repair episode per dead instance (chaos-injected VM death).
   Unlike overload episodes, repair does not spawn: the stranded share
   stays on the victims — visibly blackholed — until the orchestrator's
   respawned replacement comes up and {!heal} swaps it in. *)
type repair_episode = {
  dead : Instance.t;
  mutable r_touched : Netstate.pinned list;
      (** victims and siblings whose weight the repair changed; healing
          restores each to its baseline *)
}

type t = {
  config : config;
  state : Netstate.t;
  load_source : load_source;
  mutable episodes : episode list;
  mutable repairs : repair_episode list;
  mutable n_overloads : int;
  mutable n_spawns : int;
  mutable n_rollbacks : int;
  mutable n_rebalances : int;
  mutable n_repairs : int;
  mutable n_heals : int;
  mutable next_sub : int array;
}

let create ?(config = default_config) ?(load_source = Oracle) state =
  let next_sub =
    Array.map
      (fun subs ->
        1 + List.fold_left (fun acc p -> max acc p.Netstate.p_sub) (-1) subs)
      state.Netstate.per_class
  in
  {
    config;
    state;
    load_source;
    episodes = [];
    repairs = [];
    n_overloads = 0;
    n_spawns = 0;
    n_rollbacks = 0;
    n_rebalances = 0;
    n_repairs = 0;
    n_heals = 0;
    next_sub;
  }

(* Detection-side utilization: ground truth under [Oracle], the poller's
   smoothed counter-derived estimate under [Polled]. *)
let measured_utilization t inst =
  match t.load_source with
  | Oracle -> Instance.utilization inst
  | Polled p ->
      let cap = (Instance.spec inst).Nf.capacity_mbps in
      if cap <= 0.0 then 0.0
      else Apple_obs.Poller.offered_mbps p (Instance.id inst) /. cap

let find_episode t inst =
  List.find_opt
    (fun e -> Instance.id e.instance = Instance.id inst)
    t.episodes

let remember_weight episode p =
  if not (List.exists (fun q -> q == p) episode.touched) then
    episode.touched <- p :: episode.touched

(* Headroom (Mbps) a sub-class can absorb before one of its instances
   crosses the high watermark. *)
let absorbable t p =
  Array.fold_left
    (fun acc inst ->
      let cap = (Instance.spec inst).Nf.capacity_mbps in
      min acc ((t.config.high_watermark *. cap) -. Instance.offered inst))
    infinity p.Netstate.stage_instances

let spare_on t inst =
  let cap = (Instance.spec inst).Nf.capacity_mbps in
  (t.config.high_watermark *. cap) -. Instance.offered inst

(* Chain stage the hot instance serves for a victim sub-class. *)
let hot_stage template hot =
  let stage = ref 0 in
  Array.iteri
    (fun j i -> if Instance.id i = Instance.id hot then stage := j)
    template.Netstate.stage_instances;
  !stage

(* Hop indices stage [stage] may legally occupy: between the neighbouring
   stages' hops (chain order must survive the redirection). *)
let hop_window template stage ~path_len =
  let hops = template.Netstate.hops in
  let lo = if stage = 0 then 0 else hops.(stage - 1) in
  let hi =
    if stage = Array.length hops - 1 then path_len - 1 else hops.(stage + 1)
  in
  (lo, hi)

(* Hop index at which [host] can serve [stage] of [template], if any. *)
let host_hop t template stage host =
  let c = t.state.Netstate.scenario.Types.classes.(template.Netstate.p_class) in
  let lo, hi = hop_window template stage ~path_len:(Array.length c.Types.path) in
  let rec scan i =
    if i > hi then None
    else if c.Types.path.(i) = host then Some i
    else scan (i + 1)
  in
  scan lo

(* Spawn a pool instance for the episode: same kind as the hot instance,
   at the hot instance's own host when cores allow, otherwise at any
   switch of the victim's legal hop window. *)
let spawn_pool_instance t episode template stage =
  if not t.config.spawn_allowed then None
  else begin
    let hot = episode.instance in
    let kind = Instance.kind hot in
    let spec = Nf.spec kind in
    let orch = t.state.Netstate.orchestrator in
    let c = t.state.Netstate.scenario.Types.classes.(template.Netstate.p_class) in
    let lo, hi = hop_window template stage ~path_len:(Array.length c.Types.path) in
    let candidates =
      Instance.host hot :: List.init (hi - lo + 1) (fun k -> c.Types.path.(lo + k))
    in
    let rec try_hosts = function
      | [] -> None
      | host :: rest ->
          if
            Resource_orchestrator.available_cores orch host >= spec.Nf.cores
            && host_hop t template stage host <> None
          then begin
            let inst = Resource_orchestrator.launch orch kind ~host in
            t.n_spawns <- t.n_spawns + 1;
            T.Counter.incr m_spawns;
            t.state.Netstate.extra_instances <-
              inst :: t.state.Netstate.extra_instances;
            episode.spawned <- (inst, ref []) :: episode.spawned;
            Some inst
          end
          else try_hosts rest
    in
    try_hosts candidates
  end

(* Pin [amount] weight of the victim's class onto pool instance [inst] by
   cloning [template] with stage [stage] redirected to [inst]'s host.
   Returns false when the host is not on the class's legal window. *)
let pin_to_pool t episode inst template stage amount =
  match host_hop t template stage (Instance.host inst) with
  | None -> false
  | Some hop ->
      let h = template.Netstate.p_class in
      let rate = t.state.Netstate.scenario.Types.classes.(h).Types.rate in
      let members =
        match
          List.find_opt
            (fun (i, _) -> Instance.id i = Instance.id inst)
            episode.spawned
        with
        | Some (_, members) -> members
        | None -> ref []
      in
      (* Reuse an existing clone of this template on this instance. *)
      let existing =
        List.find_opt
          (fun p ->
            p.Netstate.p_class = h
            && Instance.id p.Netstate.stage_instances.(stage) = Instance.id inst
            && Array.for_all2
                 (fun a b -> Instance.id a = Instance.id b)
                 (Array.mapi
                    (fun j i -> if j = stage then p.Netstate.stage_instances.(j) else i)
                    template.Netstate.stage_instances)
                 p.Netstate.stage_instances)
          !members
      in
      let target =
        match existing with
        | Some p -> p
        | None ->
            let stage_instances = Array.copy template.Netstate.stage_instances in
            stage_instances.(stage) <- inst;
            let hops = Array.copy template.Netstate.hops in
            hops.(stage) <- hop;
            let fresh =
              {
                Netstate.weight = 0.0;
                baseline = 0.0;
                hops;
                stage_instances;
                p_class = h;
                p_sub = t.next_sub.(h);
              }
            in
            t.next_sub.(h) <- t.next_sub.(h) + 1;
            t.state.Netstate.per_class.(h) <-
              t.state.Netstate.per_class.(h) @ [ fresh ];
            members := fresh :: !members;
            fresh
      in
      target.Netstate.weight <- target.Netstate.weight +. amount;
      T.Counter.incr m_weight_moves;
      Array.iter
        (fun i -> Instance.add_offered i (rate *. amount))
        target.Netstate.stage_instances;
      true

(* Handle an overload of [hot] (fresh or repeated). *)
let failover t hot =
  t.n_overloads <- t.n_overloads + 1;
  T.Counter.incr m_overloads;
  Flight.record Flight.Overload ~a:(Instance.id hot)
    ~b:(int_of_float (1000.0 *. Instance.utilization hot)) ();
  Log.info (fun m ->
      m "overload: %s#%d at switch %d (%.0f/%.0f Mbps)"
        (Nf.name (Instance.kind hot)) (Instance.id hot) (Instance.host hot)
        (Instance.offered hot)
        (Instance.spec hot).Nf.capacity_mbps);
  let episode =
    match find_episode t hot with
    | Some e -> e
    | None ->
        let e = { instance = hot; touched = []; spawned = [] } in
        t.episodes <- e :: t.episodes;
        e
  in
  Array.iteri
    (fun h subs ->
      let rate = t.state.Netstate.scenario.Types.classes.(h).Types.rate in
      let uses_hot p =
        Array.exists
          (fun inst -> Instance.id inst = Instance.id hot)
          p.Netstate.stage_instances
      in
      let victims =
        List.filter (fun p -> p.Netstate.weight > 1e-12 && uses_hot p) subs
      in
      if victims <> [] && rate > 0.0 then begin
        t.n_rebalances <- t.n_rebalances + 1;
        T.Counter.incr m_rebalances;
        (* Halve every victim. *)
        let freed = ref 0.0 in
        List.iter
          (fun p ->
            remember_weight episode p;
            T.Counter.incr m_weight_moves;
            let half = p.Netstate.weight /. 2.0 in
            p.Netstate.weight <- half;
            Array.iter
              (fun inst -> Instance.add_offered inst (-.rate *. half))
              p.Netstate.stage_instances;
            freed := !freed +. half)
          victims;
        (* Spread onto least-loaded siblings first.  Pool sub-classes of
           other episodes (baseline 0) are excluded: weight parked there
           would evaporate when their episode rolls back. *)
        let siblings =
          List.filter
            (fun p ->
              p.Netstate.weight > 0.0
              && p.Netstate.baseline > 0.0
              && not (uses_hot p))
            subs
          |> List.sort (fun a b ->
                 Float.compare
                   (Netstate.subclass_utilization t.state a)
                   (Netstate.subclass_utilization t.state b))
        in
        List.iter
          (fun p ->
            if !freed > 1e-9 then begin
              let headroom = absorbable t p in
              let amount = min !freed (max 0.0 (headroom /. rate)) in
              if amount > 1e-9 then begin
                remember_weight episode p;
                T.Counter.incr m_weight_moves;
                p.Netstate.weight <- p.Netstate.weight +. amount;
                Array.iter
                  (fun inst -> Instance.add_offered inst (rate *. amount))
                  p.Netstate.stage_instances;
                freed := !freed -. amount
              end
            end)
          siblings;
        (* Remaining share goes to the episode's ClickOS pool. *)
        let template = List.hd victims in
        let stage = hot_stage template hot in
        let rec to_pool pool =
          if !freed > 1e-9 then
            match pool with
            | (inst, _) :: rest ->
                let amount = min !freed (max 0.0 (spare_on t inst /. rate)) in
                if amount > 1e-9 && pin_to_pool t episode inst template stage amount
                then freed := !freed -. amount;
                to_pool rest
            | [] -> (
                match spawn_pool_instance t episode template stage with
                | Some inst ->
                    let amount = min !freed (max 0.0 (spare_on t inst /. rate)) in
                    if
                      amount > 1e-9
                      && pin_to_pool t episode inst template stage amount
                    then begin
                      freed := !freed -. amount;
                      to_pool []
                    end
                    (* else: capacity exhausted; the leftover returns to
                       the victims below *)
                | None -> () (* out of cores: leftover returns below *))
        in
        to_pool episode.spawned;
        (* Anything unabsorbed returns to the victims. *)
        if !freed > 1e-9 then begin
          let back = !freed /. float_of_int (List.length victims) in
          List.iter
            (fun p ->
              p.Netstate.weight <- p.Netstate.weight +. back;
              Array.iter
                (fun inst -> Instance.add_offered inst (rate *. back))
                p.Netstate.stage_instances)
            victims
        end
      end)
    t.state.Netstate.per_class

(* Load the hot instance would carry if every sub-class ran at its
   assignment-time baseline weight, at current class rates.  Baselines are
   global, so this estimate is immune to interference between concurrent
   episodes. *)
let would_be_load t episode =
  let hot = episode.instance in
  let acc = ref 0.0 in
  Array.iteri
    (fun h subs ->
      let rate = t.state.Netstate.scenario.Types.classes.(h).Types.rate in
      List.iter
        (fun p ->
          let uses_hot =
            Array.exists
              (fun inst -> Instance.id inst = Instance.id hot)
              p.Netstate.stage_instances
          in
          if uses_hot then acc := !acc +. (rate *. p.Netstate.baseline))
        subs)
    t.state.Netstate.per_class;
  !acc

let rec rollback t episode =
  Log.info (fun m ->
      m "rollback: instance %d recovers; cancelling %d failover instance(s)"
        (Instance.id episode.instance)
        (List.length episode.spawned));
  (* A spawned instance can itself have become overloaded and own an
     episode; that child must unwind before its instance is destroyed. *)
  List.iter
    (fun (inst, _) ->
      match
        List.find_opt
          (fun e -> Instance.id e.instance = Instance.id inst)
          t.episodes
      with
      | Some child when not (child == episode) -> rollback t child
      | Some _ | None -> ())
    episode.spawned;
  t.n_rollbacks <- t.n_rollbacks + 1;
  T.Counter.incr m_rollbacks;
  Flight.record Flight.Recover ~a:(Instance.id episode.instance) ();
  List.iter
    (fun p -> p.Netstate.weight <- p.Netstate.baseline)
    episode.touched;
  List.iter
    (fun (inst, members) ->
      List.iter
        (fun fresh ->
          fresh.Netstate.weight <- 0.0;
          let h = fresh.Netstate.p_class in
          t.state.Netstate.per_class.(h) <-
            List.filter (fun p -> not (p == fresh)) t.state.Netstate.per_class.(h))
        !members;
      t.state.Netstate.extra_instances <-
        List.filter
          (fun i -> Instance.id i <> Instance.id inst)
          t.state.Netstate.extra_instances;
      Resource_orchestrator.destroy t.state.Netstate.orchestrator inst)
    episode.spawned;
  t.episodes <- List.filter (fun e -> not (e == episode)) t.episodes

(* Re-run admission for only the sub-classes pinned to [dead], warm
   started from current weights: shift as much of each victim's share as
   the live sibling sub-classes can absorb under the high watermark; the
   unabsorbable remainder stays on the victim, where it is visibly
   blackholed (honest loss accounting) until {!heal} swaps in the
   respawned replacement.  Returns the weight fraction left stranded,
   summed over classes. *)
let repair t ~dead =
  Netstate.recompute_loads t.state;
  let dead_id = Instance.id dead in
  let episode =
    match
      List.find_opt (fun r -> Instance.id r.dead = dead_id) t.repairs
    with
    | Some r -> r
    | None ->
        let r = { dead; r_touched = [] } in
        t.repairs <- r :: t.repairs;
        r
  in
  let touch p =
    if not (List.exists (fun q -> q == p) episode.r_touched) then
      episode.r_touched <- p :: episode.r_touched
  in
  t.n_repairs <- t.n_repairs + 1;
  T.Counter.incr m_repairs;
  let stranded = ref 0.0 in
  Array.iteri
    (fun h subs ->
      let rate = t.state.Netstate.scenario.Types.classes.(h).Types.rate in
      let uses_dead p =
        Array.exists
          (fun inst -> Instance.id inst = dead_id)
          p.Netstate.stage_instances
      in
      let victims =
        List.filter (fun p -> p.Netstate.weight > 1e-12 && uses_dead p) subs
      in
      if victims <> [] && rate > 0.0 then begin
        let siblings =
          List.filter
            (fun p ->
              p.Netstate.weight > 0.0
              && p.Netstate.baseline > 0.0
              && (not (uses_dead p))
              && not (Netstate.blackholed t.state p))
            subs
          |> List.sort (fun a b ->
                 Float.compare
                   (Netstate.subclass_utilization t.state a)
                   (Netstate.subclass_utilization t.state b))
        in
        List.iter
          (fun p ->
            touch p;
            let freed = ref p.Netstate.weight in
            p.Netstate.weight <- 0.0;
            Array.iter
              (fun inst -> Instance.add_offered inst (-.rate *. !freed))
              p.Netstate.stage_instances;
            T.Counter.incr m_weight_moves;
            List.iter
              (fun s ->
                if !freed > 1e-9 then begin
                  let headroom = absorbable t s in
                  let amount = min !freed (max 0.0 (headroom /. rate)) in
                  if amount > 1e-9 then begin
                    touch s;
                    T.Counter.incr m_weight_moves;
                    s.Netstate.weight <- s.Netstate.weight +. amount;
                    Array.iter
                      (fun inst -> Instance.add_offered inst (rate *. amount))
                      s.Netstate.stage_instances;
                    freed := !freed -. amount
                  end
                end)
              siblings;
            (* The unabsorbable remainder stays on the victim: those
               flows keep forwarding into the dead instance and are
               counted as blackholed, not silently dropped. *)
            if !freed > 1e-9 then begin
              p.Netstate.weight <- p.Netstate.weight +. !freed;
              Array.iter
                (fun inst -> Instance.add_offered inst (rate *. !freed))
                p.Netstate.stage_instances;
              stranded := !stranded +. !freed
            end)
          victims
      end)
    t.state.Netstate.per_class;
  Log.info (fun m ->
      m "repair: instance %d dead, %d sub-class(es) touched, %.3f stranded"
        dead_id
        (List.length episode.r_touched)
        !stranded);
  Netstate.recompute_loads t.state;
  !stranded

(* The respawned [replacement] is up: swap it into every sub-class stage
   still pinned to [dead] and restore the repair's touched weights to
   their baselines. *)
let heal t ~dead ~replacement =
  let dead_id = Instance.id dead in
  Array.iter
    (fun subs ->
      List.iter
        (fun p ->
          Array.iteri
            (fun j inst ->
              if Instance.id inst = dead_id then
                p.Netstate.stage_instances.(j) <- replacement)
            p.Netstate.stage_instances)
        subs)
    t.state.Netstate.per_class;
  (match
     List.find_opt (fun r -> Instance.id r.dead = dead_id) t.repairs
   with
  | Some episode ->
      List.iter
        (fun p -> p.Netstate.weight <- p.Netstate.baseline)
        episode.r_touched;
      t.repairs <- List.filter (fun r -> not (r == episode)) t.repairs
  | None -> ());
  t.n_heals <- t.n_heals + 1;
  T.Counter.incr m_heals;
  Flight.record Flight.Recover ~a:dead_id ~b:(Instance.id replacement) ();
  Log.info (fun m ->
      m "heal: instance %d replaced by %d" dead_id (Instance.id replacement));
  Netstate.recompute_loads t.state

let step t =
  Netstate.recompute_loads t.state;
  (* Roll back episodes whose would-be load has subsided: restoring the
     saved weights must not re-overload the instance — the 8.5/4 Kpps
     hysteresis of Sec. VIII-E generalized to instances whose base load is
     close to capacity. *)
  let rollback_level = max t.config.low_watermark t.config.high_watermark in
  let recovered =
    List.filter
      (fun e ->
        let cap = (Instance.spec e.instance).Nf.capacity_mbps in
        would_be_load t e <= rollback_level *. cap)
      t.episodes
  in
  List.iter (rollback t) recovered;
  if recovered <> [] then Netstate.recompute_loads t.state;
  (* Detect (new or continued) overloads. *)
  let hot =
    List.filter
      (fun inst ->
        measured_utilization t inst > t.config.high_watermark
        (* A dead instance is blackholed, not overloaded: its traffic is
           the repair path's problem, not fast failover's. *)
        && not
             (Apple_dataplane.Failmask.instance_down t.state.Netstate.mask
                (Instance.id inst)))
      (Netstate.instances_in_use t.state)
  in
  let hot =
    List.sort (fun a b -> Int.compare (Instance.id a) (Instance.id b)) hot
  in
  List.iter (fun inst -> failover t inst) hot;
  (* Safety net: concurrent episodes can transiently unbalance a class's
     distribution (a rollback reclaims weight another episode parked);
     renormalizing keeps the data plane semantics — every packet of the
     class goes somewhere — while the next rounds converge. *)
  let renormalized = ref false in
  Array.iter
    (fun subs ->
      let total = List.fold_left (fun acc p -> acc +. p.Netstate.weight) 0.0 subs in
      if subs <> [] && total > 1e-9 && abs_float (total -. 1.0) > 1e-9 then begin
        renormalized := true;
        List.iter
          (fun p -> p.Netstate.weight <- p.Netstate.weight /. total)
          subs
      end)
    t.state.Netstate.per_class;
  (* With no failover and no renormalization, no weight moved since the
     last recompute: the loads are current. *)
  if hot <> [] || !renormalized then Netstate.recompute_loads t.state

let overloaded_instances t = List.map (fun e -> e.instance) t.episodes

let spawned_cores t = Netstate.extra_cores t.state

let pending_repairs t = List.map (fun r -> r.dead) t.repairs

let events t =
  [
    ("overloads", t.n_overloads);
    ("spawns", t.n_spawns);
    ("rollbacks", t.n_rollbacks);
    ("rebalances", t.n_rebalances);
    ("repairs", t.n_repairs);
    ("heals", t.n_heals);
  ]
