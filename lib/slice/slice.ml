module Rng = Apple_prelude.Rng
module Text_table = Apple_prelude.Text_table
module Graph = Apple_topology.Graph
module Builders = Apple_topology.Builders
module Instance = Apple_vnf.Instance
module Nf = Apple_vnf.Nf
module Tag = Apple_dataplane.Tag
module Tcam = Apple_dataplane.Tcam
module Types = Apple_core.Types
module Scenario = Apple_core.Scenario
module Policy = Apple_core.Policy
module Subclass = Apple_core.Subclass
module Rule_generator = Apple_core.Rule_generator
module Optimization_engine = Apple_core.Optimization_engine
module Controller = Apple_core.Controller
module Verify = Apple_verify.Verify
module T = Apple_telemetry.Telemetry
module Tr = Apple_trace.Trace

let tr_admit = Tr.span ~cat:"slice" "slice.admit"
let tr_depart = Tr.span ~cat:"slice" "slice.depart"
let log = Logs.Src.create "apple.slice" ~doc:"APPLE slice manager"

module Log = (val Logs.src_log log : Logs.LOG)

let m_admitted = T.Counter.create "apple.slice.admitted"
let m_rejected = T.Counter.create "apple.slice.rejected"
let m_departed = T.Counter.create "apple.slice.departed"
let m_gate_passes = T.Counter.create "apple.slice.gate_passes"

(* One gauge per tenant, interned on first use (telemetry names are
   global; re-creating with the same name returns the same cell). *)
let tenant_gauges : (string, T.Gauge.t) Hashtbl.t = Hashtbl.create 8

let tenant_gauge tenant =
  match Hashtbl.find_opt tenant_gauges tenant with
  | Some g -> g
  | None ->
      let g = T.Gauge.create ("apple.slice.tenant." ^ tenant ^ ".eff_mbps") in
      Hashtbl.add tenant_gauges tenant g;
      g

(* ---- specifications ------------------------------------------------ *)

type sla = {
  rate_mbps : float;
  demand_mbps : float;
  loss_band : float;
  isolated : bool;
  weight : float;
}

type class_spec = {
  src : int;
  dst : int;
  chain : Nf.kind array;
  share : float;
}

type spec = {
  tenant : string;
  name : string;
  sla : sla;
  classes : class_spec list;
}

let slice_key spec = spec.tenant ^ "/" ^ spec.name

let ident_ok s =
  String.length s > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_')
       s

let validate_spec (topo : Builders.named) spec =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let n = Graph.num_nodes topo.Builders.graph in
  if not (ident_ok spec.tenant) then
    err "tenant %S: use [A-Za-z0-9_-]+" spec.tenant
  else if not (ident_ok spec.name) then
    err "slice name %S: use [A-Za-z0-9_-]+" spec.name
  else if spec.sla.rate_mbps <= 0.0 then
    err "%s: guaranteed rate must be positive" (slice_key spec)
  else if spec.sla.demand_mbps < spec.sla.rate_mbps -. 1e-9 then
    err "%s: demand %.1f below guaranteed rate %.1f" (slice_key spec)
      spec.sla.demand_mbps spec.sla.rate_mbps
  else if spec.sla.weight <= 0.0 then
    err "%s: fair-share weight must be positive" (slice_key spec)
  else if spec.sla.loss_band <= 0.0 || spec.sla.loss_band > 1.0 then
    err "%s: loss band must be in (0, 1]" (slice_key spec)
  else if spec.classes = [] then err "%s: no traffic classes" (slice_key spec)
  else
    let share_sum = List.fold_left (fun a c -> a +. c.share) 0.0 spec.classes in
    if Float.abs (share_sum -. 1.0) > 1e-6 then
      err "%s: class shares sum to %.6f, want 1" (slice_key spec) share_sum
    else
      let rec check i = function
        | [] -> Ok ()
        | c :: rest ->
            if c.share <= 0.0 then
              err "%s class %d: share must be positive" (slice_key spec) i
            else if Array.length c.chain = 0 then
              err "%s class %d: empty policy chain" (slice_key spec) i
            else if c.src < 0 || c.src >= n || c.dst < 0 || c.dst >= n then
              err "%s class %d: endpoints (%d, %d) outside topology (%d nodes)"
                (slice_key spec) i c.src c.dst n
            else if c.src = c.dst then
              err "%s class %d: src = dst" (slice_key spec) i
            else if
              Option.is_none (Graph.shortest_path topo.Builders.graph c.src c.dst)
            then
              err "%s class %d: no route %d -> %d" (slice_key spec) i c.src c.dst
            else check (i + 1) rest
      in
      check 0 spec.classes

let synth_spec (topo : Builders.named) ~seed ~tenant ~name ?(isolated = false)
    ?(weight = 1.0) ?demand ?(nat = false) ~rate ~classes () =
  if classes <= 0 then invalid_arg "Slice.synth_spec: classes must be positive";
  let g = topo.Builders.graph in
  let n = Graph.num_nodes g in
  let rng = Rng.create seed in
  let draw_pair () =
    (* Connected evaluation topologies: a routable distinct pair exists;
       bound the retry loop anyway so a pathological graph fails loud. *)
    let rec go attempts =
      if attempts > 10_000 then
        invalid_arg "Slice.synth_spec: no routable src/dst pair found";
      let src = Rng.int rng n and dst = Rng.int rng n in
      if src <> dst && Option.is_some (Graph.shortest_path g src dst) then
        (src, dst)
      else go (attempts + 1)
    in
    go 0
  in
  let chains =
    List.init classes (fun _ ->
        Array.of_list (Policy.draw rng Policy.default_mix))
  in
  let chains =
    (* NAT forces the joint tables into global-tag mode (Sec. X); make
       sure the slice actually carries one when asked. *)
    if
      nat
      && not
           (List.exists
              (fun ch -> Array.exists (fun k -> Nf.rewrites_header k) ch)
              chains)
    then
      match chains with
      | first :: rest -> Array.append first [| Nf.Nat |] :: rest
      | [] -> chains
    else chains
  in
  let share = 1.0 /. float_of_int classes in
  let classes =
    List.map
      (fun chain ->
        let src, dst = draw_pair () in
        { src; dst; chain; share })
      chains
  in
  {
    tenant;
    name;
    sla =
      {
        rate_mbps = rate;
        demand_mbps = (match demand with Some d -> Float.max d rate | None -> rate);
        loss_band = 0.05;
        isolated;
        weight;
      };
    classes;
  }

(* ---- admission decisions ------------------------------------------- *)

type reason = Capacity of string | Tag_space of string | Verifier of string

let reason_name = function
  | Capacity _ -> "capacity"
  | Tag_space _ -> "tag-space"
  | Verifier _ -> "verifier"

let reason_detail = function
  | Capacity m | Tag_space m | Verifier m -> m

let pp_reason ppf r =
  Format.fprintf ppf "%s: %s" (reason_name r) (reason_detail r)

type admitted = {
  slice_id : int;
  residents : int;
  instances : int;
  cores : int;
  tcam_rules : int;
  global_tags : int;
  tags_left : int;
  verified_subclasses : int;
  throttled : (string * float) list;
}

type departed = {
  residents : int;
  freed_instances : int;
  freed_cores : int;
  freed_tcam : int;
  freed_tags : int;
}

type stats = {
  admitted_total : int;
  rejected_capacity : int;
  rejected_tag_space : int;
  rejected_verifier : int;
  departed_total : int;
  verifier_passes : int;
}

let zero_stats =
  {
    admitted_total = 0;
    rejected_capacity = 0;
    rejected_tag_space = 0;
    rejected_verifier = 0;
    departed_total = 0;
    verifier_passes = 0;
  }

(* ---- the manager --------------------------------------------------- *)

type resident = { slice_id : int; spec : spec }

type installed = {
  res : resident list;  (* admission order *)
  ctrl : Controller.t;
  report : Controller.epoch_report;
  eff : (int * float) list;  (* slice_id -> effective aggregate Mbps *)
  ranges : (int * (int * int)) list;  (* slice_id -> (first class id, count) *)
  verified_subclasses : int;
}

type chaos_hook =
  Types.scenario -> Subclass.assignment -> Rule_generator.built -> unit

type t = {
  topo : Builders.named;
  engine : Controller.engine;
  jobs : int option;
  gate : bool;
  host_cores : int;
  seed : int;
  mutable next_id : int;
  mutable state : installed option;
  mutable stats : stats;
  mutable chaos_hook : chaos_hook option;
}

let create ?(engine = `Best) ?jobs ?(gate = true)
    ?(host_cores = Types.default_host_cores) ?(seed = 1) topo =
  {
    topo;
    engine;
    jobs;
    gate;
    host_cores;
    seed;
    next_id = 0;
    state = None;
    stats = zero_stats;
    chaos_hook = None;
  }

let set_chaos_hook t hook = t.chaos_hook <- hook
let stats t = t.stats
let residents t =
  match t.state with
  | None -> []
  | Some st -> List.map (fun r -> (r.slice_id, r.spec)) st.res

(* ---- cross-slice weighted fairness --------------------------------- *)

(* Cores needed per offered Mbps of a slice: each chain stage of each
   class consumes cores/capacity fractional instances per Mbps.  A lower
   bound (ignores integer instance rounding), so the water-filling runs
   against a 90% budget and the LP keeps the final word. *)
let cores_per_mbps spec =
  List.fold_left
    (fun acc cs ->
      let per_mbps =
        Array.fold_left
          (fun a k ->
            let sp = Nf.spec k in
            a +. (float_of_int sp.Nf.cores /. sp.Nf.capacity_mbps))
          0.0 cs.chain
      in
      acc +. (cs.share *. per_mbps))
    0.0 spec.classes

let budget_fraction = 0.9

(* Weighted max-min between SLA floor and demand: start every slice at
   its guaranteed rate, then water-fill the remaining core budget by
   weight, clamping saturated slices at their demand. *)
let fair_rates t res =
  let budget =
    budget_fraction
    *. float_of_int (t.host_cores * Graph.num_nodes t.topo.Builders.graph)
  in
  let items =
    List.map
      (fun r ->
        let cpm = cores_per_mbps r.spec in
        let floor = r.spec.sla.rate_mbps in
        let cap = Float.max floor r.spec.sla.demand_mbps in
        (r, cpm, ref floor, cap))
      res
  in
  let floor_cores =
    List.fold_left (fun a (_, cpm, fl, _) -> a +. (cpm *. !fl)) 0.0 items
  in
  if floor_cores > budget +. 1e-9 then
    Error
      (Printf.sprintf
         "guaranteed rates need %.1f estimated cores, substrate budget is %.1f"
         floor_cores budget)
  else begin
    let rec fill remaining active =
      if remaining <= 1e-9 then ()
      else
        match active with
        | [] -> ()
        | _ -> (
            let total_w =
              List.fold_left
                (fun a ((r : resident), _, _, _) -> a +. r.spec.sla.weight)
                0.0 active
            in
            let sat =
              List.filter
                (fun ((r : resident), cpm, a, cap) ->
                  remaining *. r.spec.sla.weight /. total_w
                  >= ((cap -. !a) *. cpm) -. 1e-9)
                active
            in
            match sat with
            | [] ->
                List.iter
                  (fun ((r : resident), cpm, a, _) ->
                    a :=
                      !a
                      +. (remaining *. r.spec.sla.weight /. total_w /. cpm))
                  active
            | _ ->
                let used =
                  List.fold_left
                    (fun acc (_, cpm, a, cap) -> acc +. ((cap -. !a) *. cpm))
                    0.0 sat
                in
                List.iter (fun (_, _, a, cap) -> a := cap) sat;
                let active' =
                  List.filter (fun (_, _, a, cap) -> cap -. !a > 1e-9) active
                in
                fill (remaining -. used) active')
    in
    fill (budget -. floor_cores)
      (List.filter (fun (_, _, a, cap) -> cap -. !a > 1e-9) items);
    Ok (List.map (fun (r, _, a, _) -> (r.slice_id, !a)) items)
  end

(* ---- joint candidate construction ---------------------------------- *)

let build_candidate t res eff =
  let classes = ref [] in
  let ranges = ref [] in
  let iso = ref [] in
  let slice_of = ref [] in
  let next = ref 0 in
  let g = t.topo.Builders.graph in
  List.iter
    (fun r ->
      let rate = List.assoc r.slice_id eff in
      let first = !next in
      List.iter
        (fun cs ->
          let id = !next in
          incr next;
          let path =
            match Graph.shortest_path g cs.src cs.dst with
            | Some p -> Array.of_list p
            | None ->
                invalid_arg
                  (Printf.sprintf "Slice: no route %d -> %d" cs.src cs.dst)
          in
          classes :=
            {
              Types.id;
              src = cs.src;
              dst = cs.dst;
              path;
              chain = Array.copy cs.chain;
              src_block = Scenario.src_block_of_class_id id;
              rate = rate *. cs.share;
            }
            :: !classes;
          iso := r.spec.sla.isolated :: !iso;
          slice_of := r.slice_id :: !slice_of)
        r.spec.classes;
      ranges := (r.slice_id, (first, !next - first)) :: !ranges)
    res;
  let scenario =
    {
      Types.topo = t.topo;
      classes = Array.of_list (List.rev !classes);
      host_cores = Array.make (Graph.num_nodes g) t.host_cores;
      seed = t.seed;
    }
  in
  ( scenario,
    List.rev !ranges,
    Array.of_list (List.rev !iso),
    Array.of_list (List.rev !slice_of) )

(* ---- tenant isolation ---------------------------------------------- *)

exception Reject_capacity of string

(* instance id -> slice ids with a stage pinned on it, walked in
   deterministic sub-class order. *)
let instance_slices ~slice_of_class (asg : Subclass.assignment) =
  let m : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (sub : Subclass.subclass) ->
      let sl = slice_of_class.(sub.Subclass.class_id) in
      Array.iteri
        (fun j _ ->
          match Hashtbl.find_opt asg.Subclass.instance_of (Subclass.key sub, j) with
          | None -> ()
          | Some inst -> (
              let id = Instance.id inst in
              match Hashtbl.find_opt m id with
              | Some l -> if not (List.mem sl !l) then l := sl :: !l
              | None -> Hashtbl.add m id (ref [ sl ])))
        sub.Subclass.hops)
    asg.Subclass.subclasses;
  m

(* The shaping pass (Controller ?shape): re-home every stage of an
   isolated slice that landed on an instance shared with another slice
   onto a dedicated clone of that instance, then charge the clones
   against the per-host core budgets. *)
let isolate ~iso_of_class ~slice_of_class (s : Types.scenario)
    (asg : Subclass.assignment) =
  if not (Array.exists (fun b -> b) iso_of_class) then asg
  else begin
    let shared_map = instance_slices ~slice_of_class asg in
    let next_id = ref (Subclass.max_instance_id asg + 1) in
    let clones = ref [] in
    let clone_of : (int * int, Instance.t) Hashtbl.t = Hashtbl.create 16 in
    (* A clone must stay on the original's host: the static verifier
       proves every stage's instance lives at the subclass's hop switch,
       so re-homing a clone elsewhere would trade a capacity overflow
       for a placement violation.  Track usage only to reject cleanly. *)
    let used = Array.make (Array.length s.Types.host_cores) 0 in
    List.iter
      (fun i ->
        let h = Instance.host i in
        used.(h) <- used.(h) + (Instance.spec i).Nf.cores)
      asg.Subclass.instances;
    List.iter
      (fun (sub : Subclass.subclass) ->
        let cls = sub.Subclass.class_id in
        if iso_of_class.(cls) then
          let sl = slice_of_class.(cls) in
          Array.iteri
            (fun j _ ->
              match
                Hashtbl.find_opt asg.Subclass.instance_of (Subclass.key sub, j)
              with
              | None -> ()
              | Some inst ->
                  let shared =
                    match Hashtbl.find_opt shared_map (Instance.id inst) with
                    | Some l -> List.exists (fun x -> x <> sl) !l
                    | None -> false
                  in
                  if shared then begin
                    let clone =
                      match
                        Hashtbl.find_opt clone_of (sl, Instance.id inst)
                      with
                      | Some c -> c
                      | None ->
                          let spec = Instance.spec inst in
                          let host = Instance.host inst in
                          used.(host) <- used.(host) + spec.Nf.cores;
                          let c = Instance.create ~id:!next_id ~spec ~host in
                          incr next_id;
                          Hashtbl.add clone_of (sl, Instance.id inst) c;
                          clones := c :: !clones;
                          c
                    in
                    let rate =
                      s.Types.classes.(cls).Types.rate *. sub.Subclass.weight
                    in
                    Subclass.repin asg sub ~stage:j ~rate clone
                  end)
            sub.Subclass.hops)
      asg.Subclass.subclasses;
    match List.rev !clones with
    | [] -> asg
    | clones ->
        let instances = asg.Subclass.instances @ clones in
        Array.iteri
          (fun h u ->
            if u > s.Types.host_cores.(h) then
              raise
                (Reject_capacity
                   (Printf.sprintf
                      "tenant isolation needs %d cores at host %d (budget %d)"
                      u h s.Types.host_cores.(h))))
          used;
        { asg with Subclass.instances }
  end

(* Exclusivity proof on the final pinning: no isolated slice's instance
   serves another slice. *)
let isolation_breach ~iso_of_class ~slice_of_class (asg : Subclass.assignment) =
  let shared_map = instance_slices ~slice_of_class asg in
  let breach = ref None in
  List.iter
    (fun (sub : Subclass.subclass) ->
      let cls = sub.Subclass.class_id in
      if iso_of_class.(cls) && Option.is_none !breach then
        let sl = slice_of_class.(cls) in
        Array.iteri
          (fun j _ ->
            match
              Hashtbl.find_opt asg.Subclass.instance_of (Subclass.key sub, j)
            with
            | None -> ()
            | Some inst -> (
                match Hashtbl.find_opt shared_map (Instance.id inst) with
                | Some l when List.exists (fun x -> x <> sl) !l ->
                    if Option.is_none !breach then
                      breach :=
                        Some
                          (Printf.sprintf
                             "isolated slice %d shares instance %d with \
                              another tenant"
                             sl (Instance.id inst))
                | _ -> ()))
          sub.Subclass.hops)
    asg.Subclass.subclasses;
  !breach

(* ---- the admission gate -------------------------------------------- *)

let gate_of t ~iso_of_class ~slice_of_class ~verified :
    Controller.gate =
 fun ?changed s asg built ->
  (match t.chaos_hook with Some f -> f s asg built | None -> ());
  let left = Rule_generator.tags_left built in
  if left < 0 then
    Error
      (Printf.sprintf
         "tag-space: joint tables need %d sub-class tags, the 12-bit field \
          holds %d"
         (Tag.max_subclasses - left)
         Tag.max_subclasses)
  else
    match isolation_breach ~iso_of_class ~slice_of_class asg with
    | Some msg -> Error ("verifier: " ^ msg)
    | None ->
        if not t.gate then begin
          verified := 0;
          Ok ()
        end
        else
          let report = Verify.check ?changed s asg built in
          verified := report.Verify.subclasses;
          if Verify.ok report then Ok ()
          else
            let first =
              match report.Verify.violations with
              | v :: _ -> Format.asprintf " — %a" Verify.pp_violation v
              | [] -> ""
            in
            Error ("verifier: " ^ Verify.summary report ^ first)

(* ---- commit: the joint re-solve + re-verify pipeline ---------------- *)

let strip_prefix ~prefix msg =
  if String.starts_with ~prefix msg then
    String.sub msg (String.length prefix)
      (String.length msg - String.length prefix)
  else msg

let commit t res =
  match fair_rates t res with
  | Error msg -> Error (Capacity msg)
  | Ok eff -> (
      let scenario, ranges, iso_of_class, slice_of_class =
        build_candidate t res eff
      in
      if Array.length scenario.Types.classes = 0 then Ok None
      else
        let verified = ref 0 in
        let gate = gate_of t ~iso_of_class ~slice_of_class ~verified in
        let shape s asg = isolate ~iso_of_class ~slice_of_class s asg in
        let ctrl =
          Controller.create ~engine:t.engine ?jobs:t.jobs ~gate ~shape scenario
        in
        match Controller.run_epoch ctrl with
        | report ->
            Some
              {
                res;
                ctrl;
                report;
                eff;
                ranges;
                verified_subclasses = !verified;
              }
            |> Result.ok
        | exception Optimization_engine.Infeasible msg ->
            Error (Capacity ("optimizer infeasible: " ^ msg))
        | exception Reject_capacity msg -> Error (Capacity msg)
        | exception Controller.Rejected msg ->
            if String.starts_with ~prefix:"tag-space: " msg then
              Error (Tag_space (strip_prefix ~prefix:"tag-space: " msg))
            else
              Error (Verifier (strip_prefix ~prefix:"verifier: " msg)))

let record_rejection t reason =
  T.Counter.incr m_rejected;
  t.stats <-
    (match reason with
    | Capacity _ ->
        { t.stats with rejected_capacity = t.stats.rejected_capacity + 1 }
    | Tag_space _ ->
        { t.stats with rejected_tag_space = t.stats.rejected_tag_space + 1 }
    | Verifier _ ->
        { t.stats with rejected_verifier = t.stats.rejected_verifier + 1 })

let record_commit t (st : installed) =
  if t.gate then begin
    T.Counter.incr m_gate_passes;
    t.stats <- { t.stats with verifier_passes = t.stats.verifier_passes + 1 }
  end;
  List.iter
    (fun r ->
      let eff = List.assoc r.slice_id st.eff in
      T.Gauge.set (tenant_gauge r.spec.tenant) eff)
    st.res

let throttled_of (st : installed) =
  List.filter_map
    (fun r ->
      let eff = List.assoc r.slice_id st.eff in
      let cap = Float.max r.spec.sla.rate_mbps r.spec.sla.demand_mbps in
      if cap -. eff > 1e-6 then Some (slice_key r.spec, eff /. cap) else None)
    st.res

let admit t spec =
  Tr.with_ tr_admit @@ fun () ->
  (match validate_spec t.topo spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Slice.admit: " ^ e));
  let existing = match t.state with None -> [] | Some st -> st.res in
  if
    List.exists
      (fun r -> String.equal (slice_key r.spec) (slice_key spec))
      existing
  then
    invalid_arg
      (Printf.sprintf "Slice.admit: %s is already resident" (slice_key spec));
  let cand = { slice_id = t.next_id; spec } in
  match commit t (existing @ [ cand ]) with
  | Error reason ->
      record_rejection t reason;
      Log.info (fun m ->
          m "rejected %s: %a" (slice_key spec) pp_reason reason);
      Error reason
  | Ok None ->
      (* the candidate always carries classes, so the joint scenario is
         never empty here *)
      assert false
  | Ok (Some st) ->
      t.state <- Some st;
      t.next_id <- t.next_id + 1;
      T.Counter.incr m_admitted;
      t.stats <- { t.stats with admitted_total = t.stats.admitted_total + 1 };
      record_commit t st;
      let rules = st.report.Controller.rules in
      let adm =
        {
          slice_id = cand.slice_id;
          residents = List.length st.res;
          instances = st.report.Controller.instances;
          cores = st.report.Controller.cores;
          tcam_rules = st.report.Controller.tcam_entries;
          global_tags = rules.Rule_generator.global_tags_used;
          tags_left = Rule_generator.tags_left rules;
          verified_subclasses = st.verified_subclasses;
          throttled = throttled_of st;
        }
      in
      Log.info (fun m ->
          m "admitted %s as slice %d (%d resident(s))" (slice_key spec)
            adm.slice_id adm.residents);
      Ok adm

let depart t ~tenant ~name =
  Tr.with_ tr_depart @@ fun () ->
  let key = tenant ^ "/" ^ name in
  match t.state with
  | None -> Error (Printf.sprintf "%s is not resident (substrate empty)" key)
  | Some st -> (
      let gone, rest =
        List.partition (fun r -> String.equal (slice_key r.spec) key) st.res
      in
      match gone with
      | [] -> Error (Printf.sprintf "%s is not resident" key)
      | _ :: _ -> (
          let old = st.report in
          let old_tags =
            old.Controller.rules.Rule_generator.global_tags_used
          in
          let finish residents freed_instances freed_cores freed_tcam
              freed_tags =
            T.Counter.incr m_departed;
            t.stats <-
              { t.stats with departed_total = t.stats.departed_total + 1 };
            T.Gauge.set (tenant_gauge tenant) 0.0;
            Ok
              { residents; freed_instances; freed_cores; freed_tcam; freed_tags }
          in
          match commit t rest with
          | Error reason ->
              (* A shrinking recommit refusing is a harness bug, not a
                 tenant decision; keep the old state installed. *)
              Error
                (Printf.sprintf "recommit after departing %s failed (%s: %s)"
                   key (reason_name reason) (reason_detail reason))
          | Ok None ->
              t.state <- None;
              finish 0 old.Controller.instances old.Controller.cores
                old.Controller.tcam_entries old_tags
          | Ok (Some st') ->
              t.state <- Some st';
              record_commit t st';
              let nw = st'.report in
              finish (List.length st'.res)
                (old.Controller.instances - nw.Controller.instances)
                (old.Controller.cores - nw.Controller.cores)
                (old.Controller.tcam_entries - nw.Controller.tcam_entries)
                (old_tags - nw.Controller.rules.Rule_generator.global_tags_used)))

(* ---- substrate fingerprint ------------------------------------------ *)

(* Everything a rejected admission must provably leave untouched:
   resident slices with effective rates, the sub-class pinnings with
   instance offered loads, and the full physical + vSwitch tables.
   Slice ids stay out so depart/re-admit of the same spec restores the
   identical digest. *)
let fingerprint t =
  match t.state with
  | None -> Digest.to_hex (Digest.string "empty-substrate")
  | Some st ->
      let b = Buffer.create 8192 in
      List.iter
        (fun r ->
          Printf.bprintf b "slice %s gtd=%h eff=%h iso=%b\n" (slice_key r.spec)
            r.spec.sla.rate_mbps
            (List.assoc r.slice_id st.eff)
            r.spec.sla.isolated)
        st.res;
      (match Controller.assignment st.ctrl with
      | None -> ()
      | Some asg ->
          List.iter
            (fun (sub : Subclass.subclass) ->
              Printf.bprintf b "sub %d.%d w=%h :" sub.Subclass.class_id
                sub.Subclass.sub_id sub.Subclass.weight;
              Array.iteri
                (fun j _ ->
                  match
                    Hashtbl.find_opt asg.Subclass.instance_of
                      (Subclass.key sub, j)
                  with
                  | Some inst -> Printf.bprintf b " %d" (Instance.id inst)
                  | None -> Buffer.add_string b " -")
                sub.Subclass.hops;
              Buffer.add_char b '\n')
            asg.Subclass.subclasses;
          List.iter
            (fun i ->
              Printf.bprintf b "inst %d %s host=%d offered=%h\n"
                (Instance.id i)
                (Nf.name (Instance.kind i))
                (Instance.host i) (Instance.offered i))
            asg.Subclass.instances);
      Tcam.add_network b st.report.Controller.rules.Rule_generator.network;
      Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- per-tenant top table ------------------------------------------- *)

let top t =
  match t.state with
  | None -> "APPLE slices: substrate empty (0 resident)\n"
  | Some st ->
      let rules = st.report.Controller.rules in
      let header =
        Printf.sprintf
          "APPLE slices: %d resident, %d instance(s), %d core(s), %d TCAM, \
           tags %d/%d\n"
          (List.length st.res)
          st.report.Controller.instances st.report.Controller.cores
          st.report.Controller.tcam_entries
          rules.Rule_generator.global_tags_used Tag.max_subclasses
      in
      (* tenant -> class-id predicate via the slice ranges *)
      let tenants =
        List.fold_left
          (fun acc r ->
            if List.exists (fun x -> String.equal x r.spec.tenant) acc then acc
            else r.spec.tenant :: acc)
          [] st.res
        |> List.rev
      in
      let total_eff =
        List.fold_left (fun a (_, e) -> a +. e) 0.0 st.eff
      in
      let tbl =
        Text_table.create
          [
            "tenant"; "slices"; "classes"; "gtd Mbps"; "eff Mbps"; "share";
            "subcls"; "inst"; "dedicated";
          ]
      in
      let asg = Controller.assignment st.ctrl in
      List.iter
        (fun tenant ->
          let mine =
            List.filter (fun r -> String.equal r.spec.tenant tenant) st.res
          in
          let slices = List.length mine in
          let classes =
            List.fold_left (fun a r -> a + List.length r.spec.classes) 0 mine
          in
          let gtd =
            List.fold_left (fun a r -> a +. r.spec.sla.rate_mbps) 0.0 mine
          in
          let eff =
            List.fold_left
              (fun a r -> a +. List.assoc r.slice_id st.eff)
              0.0 mine
          in
          let class_is_mine cid =
            List.exists
              (fun r ->
                let first, count = List.assoc r.slice_id st.ranges in
                cid >= first && cid < first + count)
              mine
          in
          let subcls, inst_count, dedicated =
            match asg with
            | None -> (0, 0, 0)
            | Some asg ->
                let mine_subs =
                  List.filter
                    (fun (s : Subclass.subclass) ->
                      class_is_mine s.Subclass.class_id)
                    asg.Subclass.subclasses
                in
                let touched : (int, bool) Hashtbl.t = Hashtbl.create 16 in
                let foreign : (int, bool) Hashtbl.t = Hashtbl.create 16 in
                List.iter
                  (fun (sub : Subclass.subclass) ->
                    Array.iteri
                      (fun j _ ->
                        match
                          Hashtbl.find_opt asg.Subclass.instance_of
                            (Subclass.key sub, j)
                        with
                        | None -> ()
                        | Some i ->
                            let id = Instance.id i in
                            if class_is_mine sub.Subclass.class_id then
                              Hashtbl.replace touched id true
                            else Hashtbl.replace foreign id true)
                      sub.Subclass.hops)
                  asg.Subclass.subclasses;
                let inst_count = Hashtbl.length touched in
                let dedicated =
                  (* lint: L3 — commutative count of dedicated instances *)
                  Hashtbl.fold
                    (fun id _ acc ->
                      if Hashtbl.mem foreign id then acc else acc + 1)
                    touched 0
                in
                (List.length mine_subs, inst_count, dedicated)
          in
          Text_table.add_row tbl
            [
              tenant;
              string_of_int slices;
              string_of_int classes;
              Printf.sprintf "%.0f" gtd;
              Printf.sprintf "%.0f" eff;
              Printf.sprintf "%.0f%%"
                (if total_eff > 0.0 then 100.0 *. eff /. total_eff else 0.0);
              string_of_int subcls;
              string_of_int inst_count;
              string_of_int dedicated;
            ])
        tenants;
      header ^ Text_table.render tbl ^ "\n"
