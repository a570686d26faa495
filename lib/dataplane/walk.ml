module Counters = Apple_obs.Counters
module Flight = Apple_obs.Flight
module T = Apple_telemetry.Telemetry

type trace = {
  visited : int list;
  instances : int list;
  rule_path : (int * int) list;
  final_host_tag : Tag.host_field;
  subclass_tag : int option;
}

type error =
  | No_matching_rule of int
  | Vswitch_miss of int
  | Host_loop of int
  | Wrong_host of { switch : int; wanted : int }
  | Link_dead of { from : int; to_ : int }
  | Switch_dead of int
  | Instance_dead of { switch : int; instance : int }

exception Walk_error of error

let host_lookup_limit = 63

(* Integer encodings shared with the flight recorder (documented in
   Apple_obs.Flight and decoded by Apple_obs.Provenance). *)
let host_code = function Tag.Empty -> -1 | Tag.Fin -> -2 | Tag.Host h -> h

let action_code = function
  | Rule.Fwd_to_host _ -> 0
  | Rule.Tag_and_deliver _ -> 1
  | Rule.Tag_and_forward _ -> 2
  | Rule.Set_host_and_forward _ -> 3
  | Rule.Goto_next -> 4

let error_code = function
  | No_matching_rule _ -> 1
  | Vswitch_miss _ -> 2
  | Host_loop _ -> 3
  | Wrong_host _ -> 4
  | Link_dead _ -> 5
  | Switch_dead _ -> 6
  | Instance_dead _ -> 7

let error_switch = function
  | No_matching_rule sw | Vswitch_miss sw | Host_loop sw | Switch_dead sw -> sw
  | Wrong_host { switch; _ } -> switch
  | Link_dead { from; _ } -> from
  | Instance_dead { switch; _ } -> switch

(* Process the packet inside the APPLE host attached to [sw]: follow
   vSwitch rules from [entry_port] until a Back_to_network action.
   [header_valid] reflects whether header-derived class matching is still
   possible; traversing a rewriting instance clears it. *)
let host_processing net ~sw ~cls ~tags ~entry_port ~record_instance ~rewriters
    ~header_valid ~inst_dead =
  let table = net.(sw) in
  let subclass =
    match tags.Tag.subclass with
    | Some s -> s
    | None -> raise (Walk_error (Vswitch_miss sw))
  in
  let lookups = ref 0 in
  let some_cls = Some cls in
  let rec step port =
    incr lookups;
    if !lookups > host_lookup_limit then raise (Walk_error (Host_loop sw));
    let cls_match = if !header_valid then some_cls else None in
    match Tcam.lookup_vswitch table port ~cls:cls_match ~subclass with
    | None -> raise (Walk_error (Vswitch_miss sw))
    | Some (Rule.To_instance inst) ->
        if inst_dead inst then
          raise (Walk_error (Instance_dead { switch = sw; instance = inst }));
        record_instance ~sw inst;
        if rewriters inst then header_valid := false;
        step (Rule.From_instance inst)
    | Some (Rule.Back_to_network next_host) -> tags.Tag.host <- next_host
  in
  step entry_port

let tr_walk = Apple_trace.Trace.span ~cat:"dataplane" "dataplane.walk"
let m_walks = T.Counter.create "apple.dataplane.walks"

(* Failure-mask predicates; with no mask (or a clear one) every check
   collapses to a constant.  Hoisted out of the walk so a batch pays for
   them once. *)
let mask_preds = function
  | Some m when not (Failmask.is_clear m) ->
      (Failmask.switch_down m, Failmask.link_down m, Failmask.instance_down m)
  | Some _ | None -> ((fun _ -> false), (fun _ _ -> false), fun _ -> false)

let run_one net ~preds ~path ~cls ~src_ip ~start_in_host ~rewriters ~flow () =
  Apple_trace.Trace.with_ ~cls tr_walk @@ fun () ->
  if T.enabled () then T.Counter.incr m_walks;
  let obs = Counters.enabled () in
  let sw_dead, link_dead, inst_dead = preds in
  let tags = Tag.fresh () in
  let visited = ref [] in
  let stages = ref [] in
  let rules = ref [] in
  let header_valid = ref true in
  let record_instance ~sw i =
    stages := i :: !stages;
    if obs then Flight.record Flight.Inst_enter ~a:flow ~b:sw ~c:i ()
  in
  let record_tag () =
    if obs then
      Flight.record Flight.Tag_set ~a:flow
        ~b:(Option.value ~default:(-1) tags.Tag.subclass)
        ~c:(host_code tags.Tag.host) ()
  in
  (* Physical lookup with per-rule provenance: remember (switch, uid)
     and emit a flight event for every match. *)
  let lookup table ~sw =
    match Tcam.lookup_phys_entry table tags ~src_ip with
    | None -> None
    | Some (uid, action) ->
        rules := (sw, uid) :: !rules;
        if obs then
          Flight.record Flight.Rule_match ~a:flow ~b:sw ~c:uid
            ~d:(action_code action) ();
        Some action
  in
  let enter_host sw ~entry_port =
    host_processing net ~sw ~cls ~tags ~entry_port ~record_instance ~rewriters
      ~header_valid ~inst_dead
  in
  if obs then
    Flight.record Flight.Walk_start ~a:flow ~b:cls ~c:src_ip
      ~d:(match path with sw :: _ -> sw | [] -> -1) ();
  try
    (match (path, start_in_host) with
    | first :: _, true ->
        if sw_dead first then raise (Walk_error (Switch_dead first));
        (* Traffic born in a production VM inside the first hop's host:
           the vSwitch tags it before it ever reaches the switch.  The
           classification rules live in the vSwitch mirror of the ingress
           table; we model it as the physical classification applied
           immediately, then host processing if the first host is local. *)
        (match lookup net.(first) ~sw:first with
        | Some (Rule.Tag_and_deliver { subclass; host }) ->
            tags.Tag.subclass <- Some subclass;
            record_tag ();
            if host <> first then raise (Walk_error (Wrong_host { switch = first; wanted = host }));
            enter_host first ~entry_port:Rule.From_production_vm
        | Some (Rule.Tag_and_forward { subclass; host }) ->
            tags.Tag.subclass <- Some subclass;
            tags.Tag.host <- host;
            record_tag ()
        | Some (Rule.Fwd_to_host _ | Rule.Set_host_and_forward _ | Rule.Goto_next)
        | None ->
            raise (Walk_error (No_matching_rule first)))
    | _ -> ());
    let rec hop = function
      | [] -> ()
      | sw :: rest ->
          (match !visited with
          | prev :: _ when link_dead prev sw ->
              raise (Walk_error (Link_dead { from = prev; to_ = sw }))
          | _ -> ());
          if sw_dead sw then raise (Walk_error (Switch_dead sw));
          visited := sw :: !visited;
          (match lookup net.(sw) ~sw with
          | None -> raise (Walk_error (No_matching_rule sw))
          | Some (Rule.Goto_next) -> ()
          | Some (Rule.Fwd_to_host host) ->
              if host <> sw then
                raise (Walk_error (Wrong_host { switch = sw; wanted = host }));
              enter_host sw ~entry_port:Rule.From_network
          | Some (Rule.Tag_and_deliver { subclass; host }) ->
              tags.Tag.subclass <- Some subclass;
              record_tag ();
              if host <> sw then
                raise (Walk_error (Wrong_host { switch = sw; wanted = host }));
              enter_host sw ~entry_port:Rule.From_network
          | Some (Rule.Tag_and_forward { subclass; host }) ->
              tags.Tag.subclass <- Some subclass;
              tags.Tag.host <- host;
              record_tag ()
          | Some (Rule.Set_host_and_forward host) ->
              tags.Tag.host <- host;
              record_tag ());
          hop rest
    in
    (* If the packet was pre-tagged inside the first host, the first
       switch still sees it with its (possibly local) host tag. *)
    hop path;
    if obs then Flight.record Flight.Walk_end ~a:flow ~b:0 ();
    Ok
      {
        visited = List.rev !visited;
        instances = List.rev !stages;
        rule_path = List.rev !rules;
        final_host_tag = tags.Tag.host;
        subclass_tag = tags.Tag.subclass;
      }
  with Walk_error e ->
    if obs then begin
      (* Fault-window losses additionally get a structured Blackhole
         event so [apple trace] can name the dead element. *)
      (match e with
      | Link_dead { from; to_ } ->
          Flight.record Flight.Blackhole ~a:flow ~b:from ~c:to_ ~d:0 ()
      | Switch_dead sw ->
          Flight.record Flight.Blackhole ~a:flow ~b:sw ~c:(-1) ~d:1 ()
      | Instance_dead { switch; instance } ->
          Flight.record Flight.Blackhole ~a:flow ~b:switch ~c:instance ~d:2 ()
      | No_matching_rule _ | Vswitch_miss _ | Host_loop _ | Wrong_host _ -> ());
      Flight.record Flight.Walk_end ~a:flow ~b:(error_code e)
        ~c:(error_switch e) ()
    end;
    Error e

let run net ~path ~cls ~src_ip ?(start_in_host = false)
    ?(rewriters = fun _ -> false) ?(flow = -1) ?mask () =
  run_one net ~preds:(mask_preds mask) ~path ~cls ~src_ip ~start_in_host
    ~rewriters ~flow ()

type request = {
  rq_path : int list;
  rq_cls : int;
  rq_src_ip : int;
  rq_start_in_host : bool;
  rq_flow : int;
}

let run_batch net ~requests ?(rewriters = fun _ -> false) ?mask () =
  (* The failmask predicates are built once per batch.  Each walk still
     opens its own dataplane.walk span and emits the same Flight events
     as a standalone [run] — batch vs sequential is byte-identical. *)
  let preds = mask_preds mask in
  Array.map
    (fun rq ->
      run_one net ~preds ~path:rq.rq_path ~cls:rq.rq_cls ~src_ip:rq.rq_src_ip
        ~start_in_host:rq.rq_start_in_host ~rewriters ~flow:rq.rq_flow ())
    requests

let policy_enforced trace ~instance_kind ~chain =
  let kinds = List.map instance_kind trace.instances in
  kinds = chain

let interference_free trace ~path = trace.visited = path

let pp_error ppf = function
  | No_matching_rule sw -> Format.fprintf ppf "no matching rule at switch %d" sw
  | Vswitch_miss sw -> Format.fprintf ppf "vSwitch lookup miss at switch %d" sw
  | Host_loop sw -> Format.fprintf ppf "vSwitch rule loop at switch %d" sw
  | Wrong_host { switch; wanted } ->
      Format.fprintf ppf "switch %d asked to deliver to non-local host %d"
        switch wanted
  | Link_dead { from; to_ } ->
      Format.fprintf ppf "blackhole: link %d-%d is down" from to_
  | Switch_dead sw -> Format.fprintf ppf "blackhole: switch %d is down" sw
  | Instance_dead { switch; instance } ->
      Format.fprintf ppf "blackhole: VNF instance %d at switch %d is dead"
        instance switch
