module Prefix_split = Apple_classifier.Prefix_split
module Counters = Apple_obs.Counters

(* Every installed physical rule gets a per-table uid at install time,
   the key under which Apple_obs.Counters accumulates its match/byte
   counters (the moral equivalent of an OpenFlow cookie). *)
type t = {
  sw : int;
  mutable next_uid : int;
  mutable phys : (int * Rule.phys_rule) list;  (* kept sorted by descending priority *)
  mutable vsw : Rule.vswitch_rule list;
}

let create ~switch = { sw = switch; next_uid = 0; phys = []; vsw = [] }
let switch t = t.sw

let fresh_uid t =
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  uid

let sort_phys entries =
  List.stable_sort
    (fun (_, a) (_, b) -> Int.compare b.Rule.priority a.Rule.priority)
    entries

let add_phys t r = t.phys <- sort_phys ((fresh_uid t, r) :: t.phys)
let add_vswitch t r = t.vsw <- r :: t.vsw

let phys_rules t = List.map snd t.phys
let phys_entries t = t.phys
let vswitch_rules t = List.rev t.vsw

let set_phys t rules =
  t.phys <- sort_phys (List.map (fun r -> (fresh_uid t, r)) rules)

let set_vswitch t rules = t.vsw <- List.rev rules

let retain_phys t ~keep =
  let before = List.length t.phys in
  t.phys <- List.filter (fun (uid, _) -> keep uid) t.phys;
  before - List.length t.phys

let tcam_entries t =
  List.fold_left (fun acc (_, r) -> acc + Rule.tcam_entries r) 0 t.phys

let tcam_entries_crossproduct t ~other_table =
  tcam_entries t * max 1 other_table

let vswitch_entries t = List.length t.vsw

type network = t array

let network ~num_switches = Array.init num_switches (fun switch -> create ~switch)

let total_tcam net = Array.fold_left (fun acc t -> acc + tcam_entries t) 0 net

let add_network b net =
  Array.iter
    (fun t ->
      Printf.bprintf b "sw %d\n" t.sw;
      List.iter
        (fun (uid, rule) ->
          Printf.bprintf b "p %d %s\n" uid
            (Format.asprintf "%a" Rule.pp_phys_rule rule))
        (phys_entries t);
      List.iter
        (fun rule ->
          Printf.bprintf b "v %s\n"
            (Format.asprintf "%a" Rule.pp_vswitch_rule rule))
        (vswitch_rules t))
    net

let total_vswitch net =
  Array.fold_left (fun acc t -> acc + vswitch_entries t) 0 net

let host_matches pattern (tags : Tag.tags) =
  match (pattern, tags.Tag.host) with
  | `Any, _ -> true
  | `Empty, Tag.Empty -> true
  | `Fin, Tag.Fin -> true
  | `Host h, Tag.Host h' -> h = h'
  | (`Empty | `Fin | `Host _), _ -> false

let subclass_matches pattern (tags : Tag.tags) =
  match (pattern, tags.Tag.subclass) with
  | `Any, _ -> true
  | `Subclass s, Some s' -> s = s'
  | `Subclass _, None -> false

let prefixes_match prefixes ~src_ip =
  match prefixes with
  | [] -> true
  | ps -> List.exists (fun p -> Prefix_split.member p src_ip) ps

let lookup_phys_entry ?(bytes = 0) t tags ~src_ip =
  let matching (_, r) =
    host_matches r.Rule.pmatch.Rule.m_host tags
    && subclass_matches r.Rule.pmatch.Rule.m_subclass tags
    && prefixes_match r.Rule.pmatch.Rule.m_prefixes ~src_ip
  in
  match List.find_opt matching t.phys with
  | Some (uid, r) ->
      Counters.rule_hit ~sw:t.sw ~uid ~bytes;
      Some (uid, r.Rule.action)
  | None -> None

let lookup_phys t tags ~src_ip =
  Option.map snd (lookup_phys_entry t tags ~src_ip)

let lookup_vswitch t port ~cls ~subclass =
  let matching r =
    r.Rule.v_port = port
    &&
    match r.Rule.v_key with
    | Rule.Per_class { cls = c; subclass = s } ->
        (* Class recovery needs an intact header. *)
        (match cls with Some c' -> c' = c && s = subclass | None -> false)
    | Rule.Global g -> g = subclass
  in
  match List.find_opt matching (List.rev t.vsw) with
  | Some r -> Some r.Rule.v_action
  | None -> None
