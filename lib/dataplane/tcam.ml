module Prefix_split = Apple_classifier.Prefix_split
module Counters = Apple_obs.Counters

(* Every installed physical rule gets a per-table uid at install time,
   the key under which Apple_obs.Counters accumulates its match/byte
   counters (the moral equivalent of an OpenFlow cookie).

   The vSwitch table is [vsw] in install order, then [vsw_pending].
   [vsw_order] lists [vsw]'s positions sorted by (port, key) and, within
   one (port, key), by position, so a lookup binary-searches it for the
   first rule of each key it may match.  Beside it, [vsw_port],
   [vsw_kind], [vsw_a] and [vsw_b] hold each position's (port, key) as
   four ints (see [set_key]), so the search compares ints and never
   touches a rule.  Rules installed since the last lookup wait in
   [vsw_pending], and that lookup folds them in.

   [writes] counts mutator calls; folding pending rules in is not one. *)
type t = {
  sw : int;
  mutable writes : int;
  mutable next_uid : int;
  mutable phys : (int * Rule.phys_rule) list;  (* kept sorted by descending priority *)
  mutable vsw : Rule.vswitch_rule array;
  mutable vsw_order : int array;
  mutable vsw_port : int array;
  mutable vsw_kind : int array;
  mutable vsw_a : int array;
  mutable vsw_b : int array;
  mutable vsw_pending : Rule.vswitch_rule list;  (* newest first *)
}

let create ~switch =
  {
    sw = switch;
    writes = 0;
    next_uid = 0;
    phys = [];
    vsw = [||];
    vsw_order = [||];
    vsw_port = [||];
    vsw_kind = [||];
    vsw_a = [||];
    vsw_b = [||];
    vsw_pending = [];
  }

let switch t = t.sw
let writes t = t.writes
let wrote t = t.writes <- t.writes + 1

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
  wrote t;
  let entry = (fresh_uid t, r) in
  let rec insert = function
    | ((_, r') :: _) as rest when r'.Rule.priority <= r.Rule.priority ->
        entry :: rest
    | e :: rest -> e :: insert rest
    | [] -> [ entry ]
  in
  t.phys <- insert t.phys

let add_vswitch t r =
  wrote t;
  t.vsw_pending <- r :: t.vsw_pending

let phys_rules t = List.map snd t.phys
let phys_entries t = t.phys

let vswitch_rules t =
  Array.fold_right List.cons t.vsw (List.rev t.vsw_pending)

let set_phys t rules =
  wrote t;
  t.phys <- sort_phys (List.map (fun r -> (fresh_uid t, r)) rules)

let set_vswitch t rules =
  wrote t;
  t.vsw <- [||];
  t.vsw_order <- [||];
  t.vsw_pending <- List.rev rules

let retain_phys t ~keep =
  wrote t;
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

(* Position [i]'s (port, key) as four ints: the port id, then 0, cls,
   subclass for [Per_class] and 1, g, 0 for [Global g].  Their
   lexicographic order sorts ports by [Rule.vswitch_port_id], then
   every [Per_class] key before every [Global] one. *)
let set_key t i (r : Rule.vswitch_rule) =
  t.vsw_port.(i) <- Rule.vswitch_port_id r.Rule.v_port;
  match r.Rule.v_key with
  | Rule.Per_class { cls; subclass } ->
      t.vsw_a.(i) <- cls;
      t.vsw_b.(i) <- subclass
  | Rule.Global g ->
      t.vsw_kind.(i) <- 1;
      t.vsw_a.(i) <- g

(* Is position [i]'s key below (port, kind, a, b)? *)
let below t i port kind a b =
  let k = t.vsw_port.(i) in
  k < port
  || k = port
     &&
     let k = t.vsw_kind.(i) in
     k < kind
     || k = kind
        &&
        let k = t.vsw_a.(i) in
        k < a || (k = a && t.vsw_b.(i) < b)

let below_position t i j =
  below t i t.vsw_port.(j) t.vsw_kind.(j) t.vsw_a.(j) t.vsw_b.(j)

(* [vsw] then the pending rules, oldest first, in one array. *)
let fold_pending t =
  match t.vsw_pending with
  | [] -> t.vsw
  | newest :: _ as pending ->
      let a = Array.make (Array.length t.vsw + List.length pending) newest in
      Array.blit t.vsw 0 a 0 (Array.length t.vsw);
      List.iteri (fun i r -> a.(Array.length a - 1 - i) <- r) pending;
      a

let index t =
  let vsw = fold_pending t in
  let n = Array.length vsw in
  t.vsw <- vsw;
  t.vsw_pending <- [];
  t.vsw_port <- Array.make n 0;
  t.vsw_kind <- Array.make n 0;
  t.vsw_a <- Array.make n 0;
  t.vsw_b <- Array.make n 0;
  Array.iteri (set_key t) vsw;
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun i j ->
      if below_position t i j then -1
      else if below_position t j i then 1
      else 0)
    order;
  t.vsw_order <- order

(* Install position of the first rule with this (port, key), or max_int. *)
let first_position t port kind a b =
  let order = t.vsw_order in
  let lo = ref 0 and hi = ref (Array.length order) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if below t order.(mid) port kind a b then lo := mid + 1 else hi := mid
  done;
  if !lo = Array.length order then max_int
  else
    let i = order.(!lo) in
    if
      t.vsw_port.(i) = port
      && t.vsw_kind.(i) = kind
      && t.vsw_a.(i) = a
      && t.vsw_b.(i) = b
    then i
    else max_int

let lookup_vswitch t port ~cls ~subclass =
  (match t.vsw_pending with [] -> () | _ :: _ -> index t);
  let port = Rule.vswitch_port_id port in
  (* Class recovery needs an intact header. *)
  let per_class =
    match cls with
    | Some cls -> first_position t port 0 cls subclass
    | None -> max_int
  in
  let global = first_position t port 1 subclass 0 in
  let i = if per_class < global then per_class else global in
  if i = max_int then None else Some t.vsw.(i).Rule.v_action
