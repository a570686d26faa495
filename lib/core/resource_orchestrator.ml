module Nf = Apple_vnf.Nf
module Instance = Apple_vnf.Instance
module Lifecycle = Apple_vnf.Lifecycle
module Engine = Apple_sim.Engine

type t = {
  host_cores : int array;
  used : int array;
  mutable all : Instance.t list;  (* reverse launch order *)
  mutable next_id : int;
  ready : (int, bool) Hashtbl.t;  (* instance id -> booted *)
}

exception Out_of_resources of { host : int; wanted : int; available : int }

let create ~host_cores =
  {
    host_cores = Array.copy host_cores;
    used = Array.make (Array.length host_cores) 0;
    all = [];
    next_id = 0;
    ready = Hashtbl.create 64;
  }

let total_cores t = Array.fold_left ( + ) 0 t.host_cores
let used_cores t v = t.used.(v)
let available_cores t v = t.host_cores.(v) - t.used.(v)
let instances t = List.rev t.all

let reserve t ~host ~cores =
  if cores > available_cores t host then
    raise (Out_of_resources { host; wanted = cores; available = available_cores t host });
  t.used.(host) <- t.used.(host) + cores

let launch t ?world ?rng ?boot ?on_ready kind ~host =
  let spec = Nf.spec kind in
  reserve t ~host ~cores:spec.Nf.cores;
  let inst = Instance.create ~id:t.next_id ~spec ~host in
  t.next_id <- t.next_id + 1;
  t.all <- inst :: t.all;
  let ready () =
    Hashtbl.replace t.ready (Instance.id inst) true;
    match on_ready with Some f -> f inst | None -> ()
  in
  (match world with
  | None -> ready ()
  | Some w ->
      Hashtbl.replace t.ready (Instance.id inst) false;
      let path =
        match boot with
        | Some p -> p
        | None ->
            if spec.Nf.clickos then Lifecycle.Raw_clickos else Lifecycle.Normal_vm
      in
      let rng =
        match rng with Some r -> r | None -> Apple_prelude.Rng.create 0
      in
      Lifecycle.provision w rng path ~on_ready:(fun _ -> ready ()));
  inst

let is_ready t inst =
  match Hashtbl.find_opt t.ready (Instance.id inst) with
  | Some r -> r
  | None -> false

let destroy t inst =
  if Hashtbl.mem t.ready (Instance.id inst) then begin
    Hashtbl.remove t.ready (Instance.id inst);
    let host = Instance.host inst in
    t.used.(host) <- t.used.(host) - (Instance.spec inst).Nf.cores;
    t.all <- List.filter (fun i -> Instance.id i <> Instance.id inst) t.all
  end

(* Capped exponential backoff for VM respawn after a crash: attempt 0
   waits [base], each further attempt multiplies by [factor], never
   exceeding [cap].  Pure so the schedule is unit-testable. *)
type backoff = { base : float; factor : float; cap : float }

let default_backoff = { base = 0.5; factor = 2.0; cap = 8.0 }

let backoff_delay ?(policy = default_backoff) ~attempt () =
  if attempt < 0 then invalid_arg "Resource_orchestrator.backoff_delay";
  let d = policy.base *. (policy.factor ** float_of_int attempt) in
  if d < policy.cap then d else policy.cap

let respawn t ?world ?rng ?boot ?(policy = default_backoff) ?(attempt = 0)
    ?on_ready dead =
  let kind = (Instance.spec dead).Nf.kind in
  let host = Instance.host dead in
  (* Release the corpse's cores first so the replacement fits on the
     same host even when it is full. *)
  destroy t dead;
  match world with
  | None -> launch t ?rng ?boot ?on_ready kind ~host
  | Some w ->
      (* Reserve cores and mint the replacement now, but only start the
         boot after the backoff delay has elapsed on the sim clock. *)
      let spec = Nf.spec kind in
      reserve t ~host ~cores:spec.Nf.cores;
      let inst = Instance.create ~id:t.next_id ~spec ~host in
      t.next_id <- t.next_id + 1;
      t.all <- inst :: t.all;
      Hashtbl.replace t.ready (Instance.id inst) false;
      let path =
        match boot with
        | Some p -> p
        | None ->
            if spec.Nf.clickos then Lifecycle.Raw_clickos else Lifecycle.Normal_vm
      in
      let rng =
        match rng with Some r -> r | None -> Apple_prelude.Rng.create 0
      in
      Engine.schedule w ~delay:(backoff_delay ~policy ~attempt ()) (fun w ->
          Lifecycle.provision w rng path ~on_ready:(fun _ ->
              (* The crash may have been healed by other means meanwhile;
                 only flip readiness if the replacement still exists. *)
              if Hashtbl.mem t.ready (Instance.id inst) then begin
                Hashtbl.replace t.ready (Instance.id inst) true;
                match on_ready with Some f -> f inst | None -> ()
              end));
      inst

let adopt t insts =
  List.iter
    (fun inst ->
      reserve t ~host:(Instance.host inst) ~cores:(Instance.spec inst).Nf.cores;
      t.all <- inst :: t.all;
      t.next_id <- max t.next_id (Instance.id inst + 1);
      Hashtbl.replace t.ready (Instance.id inst) true)
    insts

let snapshot_available t =
  Array.mapi (fun v cores -> cores - t.used.(v)) t.host_cores
