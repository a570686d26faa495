module B = Apple_bdd.Bdd
module Counters = Apple_obs.Counters
module Prefix_split = Apple_classifier.Prefix_split

type mode = Interp | Compiled

let mode_ref = ref Interp
let mode () = !mode_ref
let set_mode m = mode_ref := m

let mode_of_string = function
  | "interp" -> Ok Interp
  | "compiled" -> Ok Compiled
  | s -> Error (Printf.sprintf "unknown dataplane %S (expected interp|compiled)" s)

let mode_to_string = function Interp -> "interp" | Compiled -> "compiled"

let compile_count = ref 0
let stats () = !compile_count
let reset_stats () = compile_count := 0

(* ------------------------------------------------------------------ *)
(* Compiled physical table.

   Lookup context is (subclass tag, host tag, src_ip); the first two
   dispatch in O(1), the third through a per-bucket IP decision stage.
   Order semantics are inherited from the priority-sorted entry list:
   buckets keep their entries in table order, so "first entry whose IP
   predicate holds" is exactly the interpreter's first match. *)

type entry = {
  e_uid : int;
  e_action : Rule.phys_action;
  e_guard : B.t;
      (* effective first-match guard within the bucket: this entry's
         prefix predicate minus every earlier entry's — disjoint by
         construction, so guard evaluation needs no order *)
}

(* IP decision stage of one bucket.  [Scan] evaluates the disjoint BDD
   guards directly (small buckets); [Trie] is a flat int-arena bit trie
   over the address bits, painted in reverse priority order so an O(32)
   descent yields the first match (large buckets).  Node [k] occupies
   [nodes.(3k) = 0-child], [3k+1 = 1-child] (-1 = absent) and
   [3k+2 = entry index] (-1 = unpainted). *)
type ipdec =
  | Miss
  | Scan of entry array
  | Trie of { nodes : int array; entries : entry array }

type slot = {
  sl_hosts : (int, ipdec) Hashtbl.t;
      (* named host code -> merged (wildcard + that host) bucket *)
  sl_default : ipdec;  (* wildcard-host entries only *)
}

type ctable = {
  ct_gen : int;
  ct_sw : int;
  ct_man : B.man;
  ct_slots : slot array;  (* 0 = untagged/unnamed; s+1 = sub-class s *)
  ct_more : (int, slot) Hashtbl.t;  (* named sub-classes out of array range *)
  ct_v_per : (int * int * int, int * Rule.vswitch_action) Hashtbl.t;
  ct_v_glob : (int * int, int * Rule.vswitch_action) Hashtbl.t;
}

type Tcam.cache += Ctable of ctable

(* Host tags and patterns share one integer namespace; Empty/Fin sit
   far below any real host id. *)
let host_key = function
  | Tag.Empty -> min_int
  | Tag.Fin -> min_int + 1
  | Tag.Host h -> h

let pattern_host_key = function
  | `Empty -> Some min_int
  | `Fin -> Some (min_int + 1)
  | `Host h -> Some h
  | `Any -> None

let port_code = function
  | Rule.From_network -> -1
  | Rule.From_production_vm -> -2
  | Rule.From_instance i -> i

(* Largest sub-class tag the dispatch array covers; Tag.max_subclasses
   is 4096, anything above (hand-built tables) falls to [ct_more]. *)
let sub_array_cap = 2 * Tag.max_subclasses

(* Entries whose guard chain leaves more than this many live candidates
   get the trie; below it, evaluating the BDD guards in place is
   cheaper than a 32-level descent. *)
let scan_max = 4

let bit_of addr j = (addr lsr (31 - j)) land 1 = 1

let prefix_bdd man (p : Prefix_split.prefix) =
  let lits = ref [] in
  for j = p.Prefix_split.len - 1 downto 0 do
    lits := (j, bit_of p.Prefix_split.addr j) :: !lits
  done;
  B.cube man !lits

let pred_bdd man prefixes =
  match prefixes with
  | [] -> B.bdd_true man
  | ps ->
      List.fold_left (fun acc p -> B.bdd_or man acc (prefix_bdd man p)) (B.bdd_false man) ps

(* ---- bit trie ----------------------------------------------------- *)

type trie_builder = { mutable arr : int array; mutable n : int }

let tb_create () = { arr = Array.make 96 (-1); n = 0 }

let tb_node tb =
  if 3 * (tb.n + 1) > Array.length tb.arr then begin
    let bigger = Array.make (2 * Array.length tb.arr) (-1) in
    Array.blit tb.arr 0 bigger 0 (3 * tb.n);
    tb.arr <- bigger
  end;
  let k = tb.n in
  tb.n <- k + 1;
  tb.arr.((3 * k) + 0) <- -1;
  tb.arr.((3 * k) + 1) <- -1;
  tb.arr.((3 * k) + 2) <- -1;
  k

(* Overwrite [node] and every existing descendant with entry [e]:
   painting runs from lowest to highest priority, so the final value of
   a region is its first-matching entry. *)
let rec tb_paint_subtree tb node e =
  tb.arr.((3 * node) + 2) <- e;
  let lo = tb.arr.((3 * node) + 0) and hi = tb.arr.((3 * node) + 1) in
  if lo >= 0 then tb_paint_subtree tb lo e;
  if hi >= 0 then tb_paint_subtree tb hi e

let tb_paint_prefix tb (p : Prefix_split.prefix) e =
  let node = ref 0 in
  for j = 0 to p.Prefix_split.len - 1 do
    let side = if bit_of p.Prefix_split.addr j then 1 else 0 in
    let child = tb.arr.((3 * !node) + side) in
    let child =
      if child >= 0 then child
      else begin
        let k = tb_node tb in
        tb.arr.((3 * !node) + side) <- k;
        k
      end
    in
    node := child
  done;
  tb_paint_subtree tb !node e

let trie_of_entries rules entries =
  (* [rules.(i)] is the original prefix list of [entries.(i)]. *)
  let tb = tb_create () in
  ignore (tb_node tb);
  for i = Array.length entries - 1 downto 0 do
    match rules.(i) with
    | [] -> tb_paint_subtree tb 0 i
    | ps -> List.iter (fun p -> tb_paint_prefix tb p i) ps
  done;
  Trie { nodes = Array.sub tb.arr 0 (3 * tb.n); entries }

let trie_lookup nodes ~src_ip =
  let ans = ref nodes.(2) in
  let node = ref 0 in
  let j = ref 0 in
  let live = ref true in
  while !live && !j < 32 do
    let side = if bit_of src_ip !j then 1 else 0 in
    let child = nodes.((3 * !node) + side) in
    if child < 0 then live := false
    else begin
      node := child;
      let r = nodes.((3 * child) + 2) in
      if r >= 0 then ans := r;
      incr j
    end
  done;
  !ans

(* ---- bucket / slot construction ----------------------------------- *)

(* [rules] are (uid, rule) in table order, already narrowed to the
   bucket's (subclass, host) context, so only the IP stage remains.
   The guard chain prunes entries that earlier entries fully shadow. *)
let compile_bucket man rules =
  match rules with
  | [] -> Miss
  | _ ->
      let live = ref [] in
      let seen = ref (B.bdd_false man) in
      List.iter
        (fun (uid, (r : Rule.phys_rule)) ->
          let pred = pred_bdd man r.Rule.pmatch.Rule.m_prefixes in
          let guard = B.bdd_diff man pred !seen in
          seen := B.bdd_or man !seen pred;
          if not (B.is_false man guard) then
            live :=
              (r.Rule.pmatch.Rule.m_prefixes,
               { e_uid = uid; e_action = r.Rule.action; e_guard = guard })
              :: !live)
        rules;
      let live = Array.of_list (List.rev !live) in
      if Array.length live = 0 then Miss
      else begin
        let entries = Array.map snd live in
        if Array.length entries <= scan_max then Scan entries
        else trie_of_entries (Array.map fst live) entries
      end

let subclass_admits context (pat : [ `Subclass of int | `Any ]) =
  match (pat, context) with
  | `Any, _ -> true
  | `Subclass s, Some s' -> s = s'
  | `Subclass _, None -> false

let compile_slot man phys ~context =
  let admitted =
    List.filter (fun (_, r) -> subclass_admits context r.Rule.pmatch.Rule.m_subclass) phys
  in
  (* Named host codes of this slot, in first-appearance order. *)
  let host_codes = ref [] in
  let seen_hosts = Hashtbl.create 8 in
  List.iter
    (fun (_, r) ->
      match pattern_host_key r.Rule.pmatch.Rule.m_host with
      | None -> ()
      | Some k ->
          if not (Hashtbl.mem seen_hosts k) then begin
            Hashtbl.add seen_hosts k ();
            host_codes := k :: !host_codes
          end)
    admitted;
  let bucket_for code =
    compile_bucket man
      (List.filter
         (fun (_, r) ->
           match pattern_host_key r.Rule.pmatch.Rule.m_host with
           | None -> true
           | Some k -> k = code)
         admitted)
  in
  let sl_hosts = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace sl_hosts k (bucket_for k)) (List.rev !host_codes);
  let sl_default =
    compile_bucket man
      (List.filter
         (fun (_, r) ->
           match pattern_host_key r.Rule.pmatch.Rule.m_host with
           | None -> true
           | Some _ -> false)
         admitted)
  in
  { sl_hosts; sl_default }

let tr_compile = Apple_trace.Trace.span ~cat:"dataplane" "dataplane.compile"

let compile (t : Tcam.t) =
  Apple_trace.Trace.with_ tr_compile @@ fun () ->
  incr compile_count;
  let man = B.man () in
  let phys = Tcam.phys_entries t in
  (* Named sub-class tags, in first-appearance order. *)
  let named = ref [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (_, r) ->
      match r.Rule.pmatch.Rule.m_subclass with
      | `Any -> ()
      | `Subclass s ->
          if not (Hashtbl.mem seen s) then begin
            Hashtbl.add seen s ();
            named := s :: !named
          end)
    phys;
  let named = List.rev !named in
  let slot0 = compile_slot man phys ~context:None in
  let in_range = List.filter (fun s -> s >= 0 && s < sub_array_cap) named in
  let cap = List.fold_left (fun acc s -> max acc (s + 2)) 1 in_range in
  let ct_slots = Array.make cap slot0 in
  List.iter
    (fun s -> ct_slots.(s + 1) <- compile_slot man phys ~context:(Some s))
    in_range;
  let ct_more = Hashtbl.create 4 in
  List.iter
    (fun s ->
      if s < 0 || s >= sub_array_cap then
        Hashtbl.replace ct_more s (compile_slot man phys ~context:(Some s)))
    named;
  (* vSwitch chains: (port, key) dispatch with install-order index;
     keeping the first binding per key is exactly first-match. *)
  let ct_v_per = Hashtbl.create 32 in
  let ct_v_glob = Hashtbl.create 32 in
  List.iteri
    (fun i (r : Rule.vswitch_rule) ->
      let pc = port_code r.Rule.v_port in
      match r.Rule.v_key with
      | Rule.Per_class { cls; subclass } ->
          let key = (pc, cls, subclass) in
          if not (Hashtbl.mem ct_v_per key) then
            Hashtbl.add ct_v_per key (i, r.Rule.v_action)
      | Rule.Global g ->
          let key = (pc, g) in
          if not (Hashtbl.mem ct_v_glob key) then
            Hashtbl.add ct_v_glob key (i, r.Rule.v_action))
    (Tcam.vswitch_rules t);
  {
    ct_gen = Tcam.generation t;
    ct_sw = Tcam.switch t;
    ct_man = man;
    ct_slots;
    ct_more;
    ct_v_per;
    ct_v_glob;
  }

let ctable_of (t : Tcam.t) =
  match Tcam.cache_slot t with
  | Ctable c when c.ct_gen = Tcam.generation t -> c
  | _ ->
      let c = compile t in
      Tcam.set_cache_slot t (Ctable c);
      c

(* ---- lookups ------------------------------------------------------ *)

let bucket_lookup man bucket ~src_ip =
  match bucket with
  | Miss -> None
  | Scan entries ->
      let n = Array.length entries in
      let rec go i =
        if i >= n then None
        else if B.eval man entries.(i).e_guard (bit_of src_ip) then Some entries.(i)
        else go (i + 1)
      in
      go 0
  | Trie { nodes; entries } ->
      let r = trie_lookup nodes ~src_ip in
      if r < 0 then None else Some entries.(r)

let slot_for c sub =
  match sub with
  | None -> c.ct_slots.(0)
  | Some s ->
      if s >= 0 && s + 1 < Array.length c.ct_slots then c.ct_slots.(s + 1)
      else (
        match Hashtbl.find_opt c.ct_more s with
        | Some slot -> slot
        | None -> c.ct_slots.(0))

let lookup_phys_entry ?(bytes = 0) t (tags : Tag.tags) ~src_ip =
  let c = ctable_of t in
  let slot = slot_for c tags.Tag.subclass in
  let bucket =
    match Hashtbl.find_opt slot.sl_hosts (host_key tags.Tag.host) with
    | Some b -> b
    | None -> slot.sl_default
  in
  match bucket_lookup c.ct_man bucket ~src_ip with
  | None -> None
  | Some e ->
      Counters.rule_hit ~sw:c.ct_sw ~uid:e.e_uid ~bytes;
      Some (e.e_uid, e.e_action)

let lookup_vswitch t port ~cls ~subclass =
  let c = ctable_of t in
  let pc = port_code port in
  let glob = Hashtbl.find_opt c.ct_v_glob (pc, subclass) in
  let per =
    match cls with
    | Some cl -> Hashtbl.find_opt c.ct_v_per (pc, cl, subclass)
    | None -> None
  in
  match (glob, per) with
  | None, None -> None
  | Some (_, a), None | None, Some (_, a) -> Some a
  | Some (og, ag), Some (op, ap) -> Some (if op < og then ap else ag)

let warm net =
  match !mode_ref with
  | Interp -> ()
  | Compiled -> Array.iter (fun t -> ignore (ctable_of t)) net
