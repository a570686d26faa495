module Prefix_split = Apple_classifier.Prefix_split
module Counters = Apple_obs.Counters

(* Every installed physical rule gets a per-table uid at install time,
   the key under which Apple_obs.Counters accumulates its match/byte
   counters (the moral equivalent of an OpenFlow cookie).

   The vSwitch table is [vsw] in install order, then [vsw_pending].
   [vsw_order] lists [vsw]'s positions sorted by (port, key) and, within
   one (port, key), by position, so a lookup binary-searches it for the
   first rule of each key it may match.  Rules installed since the last
   lookup wait in [vsw_pending], and that lookup folds them in. *)
type t = {
  sw : int;
  mutable next_uid : int;
  mutable phys : (int * Rule.phys_rule) list;  (* kept sorted by descending priority *)
  mutable vsw : Rule.vswitch_rule array;
  mutable vsw_order : int array;
  mutable vsw_pending : Rule.vswitch_rule list;  (* newest first *)
}

let create ~switch =
  {
    sw = switch;
    next_uid = 0;
    phys = [];
    vsw = [||];
    vsw_order = [||];
    vsw_pending = [];
  }

let switch t = t.sw

let fresh_uid t =
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  uid

let sort_phys entries =
  List.stable_sort
    (fun (_, a) (_, b) -> Int.compare b.Rule.priority a.Rule.priority)
    entries

(* Before the first entry of priority <= its own: where the stable sort
   of [entry :: phys] puts it. *)
let add_phys t r =
  let entry = (fresh_uid t, r) in
  let rec insert = function
    | ((_, r') :: _) as rest when r'.Rule.priority <= r.Rule.priority ->
        entry :: rest
    | e :: rest -> e :: insert rest
    | [] -> [ entry ]
  in
  t.phys <- insert t.phys

let add_vswitch t r = t.vsw_pending <- r :: t.vsw_pending

let phys_rules t = List.map snd t.phys
let phys_entries t = t.phys

let vswitch_rules t =
  Array.fold_right List.cons t.vsw (List.rev t.vsw_pending)

let set_phys t rules =
  t.phys <- sort_phys (List.map (fun r -> (fresh_uid t, r)) rules)

let set_vswitch t rules =
  t.vsw <- [||];
  t.vsw_order <- [||];
  t.vsw_pending <- List.rev rules

let retain_phys t ~keep =
  let before = List.length t.phys in
  t.phys <- List.filter (fun (uid, _) -> keep uid) t.phys;
  before - List.length t.phys

let tcam_entries t =
  List.fold_left (fun acc (_, r) -> acc + Rule.tcam_entries r) 0 t.phys

let tcam_entries_crossproduct t ~other_table =
  tcam_entries t * max 1 other_table

let vswitch_entries t = Array.length t.vsw + List.length t.vsw_pending

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

(* Total order on (port, key): ports by [Rule.vswitch_port_id], then
   every [Per_class] key before every [Global] one. *)
let compare_key (a : Rule.vswitch_key) (b : Rule.vswitch_key) =
  match (a, b) with
  | Per_class a, Per_class b ->
      let c = Int.compare a.cls b.cls in
      if c <> 0 then c else Int.compare a.subclass b.subclass
  | Global a, Global b -> Int.compare a b
  | Per_class _, Global _ -> -1
  | Global _, Per_class _ -> 1

let compare_rule port key (r : Rule.vswitch_rule) =
  let c = Int.compare port (Rule.vswitch_port_id r.Rule.v_port) in
  if c <> 0 then c else compare_key key r.Rule.v_key

let index t =
  t.vsw <- Array.of_list (vswitch_rules t);
  t.vsw_pending <- [];
  let order = Array.init (Array.length t.vsw) Fun.id in
  Array.stable_sort
    (fun i j ->
      let r = t.vsw.(i) in
      compare_rule (Rule.vswitch_port_id r.Rule.v_port) r.Rule.v_key t.vsw.(j))
    order;
  t.vsw_order <- order

(* Install position of the first rule with this (port, key), or max_int. *)
let first_position t port key =
  let order = t.vsw_order in
  let lo = ref 0 and hi = ref (Array.length order) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if compare_rule port key t.vsw.(order.(mid)) > 0 then lo := mid + 1
    else hi := mid
  done;
  if !lo < Array.length order && compare_rule port key t.vsw.(order.(!lo)) = 0
  then order.(!lo)
  else max_int

let lookup_vswitch t port ~cls ~subclass =
  if t.vsw_pending <> [] then index t;
  let port = Rule.vswitch_port_id port in
  (* Class recovery needs an intact header. *)
  let per_class =
    match cls with
    | Some cls -> first_position t port (Rule.Per_class { cls; subclass })
    | None -> max_int
  in
  match Int.min per_class (first_position t port (Rule.Global subclass)) with
  | i when i = max_int -> None
  | i -> Some t.vsw.(i).Rule.v_action
