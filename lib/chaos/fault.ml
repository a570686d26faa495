module Rng = Apple_prelude.Rng
module Instance = Apple_vnf.Instance
module Failmask = Apple_dataplane.Failmask
module Tcam = Apple_dataplane.Tcam
module Types = Apple_core.Types
module Netstate = Apple_core.Netstate
module Controller = Apple_core.Controller
module Dynamic_handler = Apple_core.Dynamic_handler
module Resource_orchestrator = Apple_core.Resource_orchestrator
module Rule_generator = Apple_core.Rule_generator

type target = Hottest | Busiest | Id of int | Pair of int * int

type fault =
  | Kill_instance of target
  | Link_down of target
  | Link_up of target
  | Switch_crash of target
  | Switch_restart of target
  | Tcam_loss of target * float
  | Poller_blackout of float

type event = { at : float; fault : fault }
type schedule = event list

let empty = []

(* Insert before the first strictly-later event, so same-time events
   keep insertion order (the engine breaks ties the same way). *)
let add sched ~at fault =
  let e = { at; fault } in
  let rec ins = function
    | [] -> [ e ]
    | x :: rest when x.at <= at -> x :: ins rest
    | later -> e :: later
  in
  ins sched

let fault_name = function
  | Kill_instance _ -> "kill-instance"
  | Link_down _ -> "link-down"
  | Link_up _ -> "link-up"
  | Switch_crash _ -> "switch-crash"
  | Switch_restart _ -> "switch-restart"
  | Tcam_loss _ -> "tcam-loss"
  | Poller_blackout _ -> "poller-blackout"

let target_to_string = function
  | Hottest -> "hottest"
  | Busiest -> "busiest"
  | Id i -> string_of_int i
  | Pair (u, v) -> Printf.sprintf "%d-%d" u v

let pp_fault ppf f =
  match f with
  | Kill_instance t | Link_down t | Link_up t | Switch_crash t
  | Switch_restart t ->
      Format.fprintf ppf "%s %s" (fault_name f) (target_to_string t)
  | Tcam_loss (t, p) ->
      Format.fprintf ppf "%s %s %g" (fault_name f) (target_to_string t) p
  | Poller_blackout d -> Format.fprintf ppf "%s %g" (fault_name f) d

let pp_event ppf e = Format.fprintf ppf "at %g %a" e.at pp_fault e.fault

let to_string sched =
  String.concat ""
    (List.map (fun e -> Format.asprintf "%a\n" pp_event e) sched)

(* ------------------------------------------------------------------ *)
(* Validation.                                                         *)

let legal_target = function
  | Kill_instance (Hottest | Id _) -> true
  | Kill_instance (Busiest | Pair _) -> false
  | (Link_down t | Link_up t) -> ( match t with Busiest | Pair _ -> true | Hottest | Id _ -> false)
  | (Switch_crash t | Switch_restart t) -> (
      match t with Busiest | Id _ -> true | Hottest | Pair _ -> false)
  | Tcam_loss (t, _) -> (
      match t with Busiest | Id _ -> true | Hottest | Pair _ -> false)
  | Poller_blackout _ -> true

(* Link keys are undirected. *)
let norm_pair (u, v) = if u <= v then (u, v) else (v, u)

(* [keyed] pairs each event with a key; [where k e] names the event [e]
   of key [k] in an error. *)
let check_events ~where keyed =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as rest) -> a.at <= b.at && sorted rest
    | [ _ ] | [] -> true
  in
  if not (sorted keyed) then err "schedule is not sorted by time"
  else begin
    (* Per-element (and aggregate symbolic) pairing counts, checked at
       every prefix so an up never precedes its down. *)
    let link_downs = Hashtbl.create 8 and sym_links = ref 0 in
    let sw_downs = Hashtbl.create 8 and sym_sw = ref 0 in
    let bump tbl k d = Hashtbl.replace tbl k (d + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
    let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
    let rec check = function
      | [] -> Ok ()
      | (k, e) :: rest ->
          let fail fmt =
            Format.kasprintf (fun m -> err "%s: %s" (where k e) m) fmt
          in
          if not (Float.is_finite e.at) then fail "time not finite"
          else if e.at < 0.0 then fail "negative time"
          else if not (legal_target e.fault) then
            fail "target not legal for %s" (fault_name e.fault)
          else begin
            let r =
              match e.fault with
              | Tcam_loss (_, p) when not (p > 0.0 && p <= 1.0) ->
                  fail "loss probability %g outside (0, 1]" p
              | Poller_blackout d when not (d > 0.0 && Float.is_finite d) ->
                  fail "blackout duration %g not positive and finite" d
              | Link_down (Pair (u, v)) ->
                  bump link_downs (norm_pair (u, v)) 1;
                  Ok ()
              | Link_down Busiest -> incr sym_links; Ok ()
              | Link_up (Pair (u, v)) ->
                  let k = norm_pair (u, v) in
                  if count link_downs k <= 0 then
                    fail "link-up %s before its link-down"
                      (target_to_string (Pair (u, v)))
                  else begin bump link_downs k (-1); Ok () end
              | Link_up Busiest ->
                  if !sym_links <= 0 then fail "link-up busiest before its link-down"
                  else begin decr sym_links; Ok () end
              | Switch_crash (Id s) -> bump sw_downs s 1; Ok ()
              | Switch_crash Busiest -> incr sym_sw; Ok ()
              | Switch_restart (Id s) ->
                  if count sw_downs s <= 0 then
                    fail "switch-restart %d before its switch-crash" s
                  else begin bump sw_downs s (-1); Ok () end
              | Switch_restart Busiest ->
                  if !sym_sw <= 0 then
                    fail "switch-restart busiest before its switch-crash"
                  else begin decr sym_sw; Ok () end
              | Kill_instance _ | Tcam_loss _ | Poller_blackout _
              | Link_down (Hottest | Id _)
              | Link_up (Hottest | Id _)
              | Switch_crash (Hottest | Pair _)
              | Switch_restart (Hottest | Pair _) ->
                  Ok ()
            in
            match r with Ok () -> check rest | Error _ as e -> e
          end
    in
    check keyed
  end

let validate sched =
  check_events
    ~where:(fun i e -> Printf.sprintf "event %d (at %g)" i e.at)
    (List.mapi (fun i e -> (i, e)) sched)

(* ------------------------------------------------------------------ *)
(* Text format.                                                        *)

let parse_target word =
  match word with
  | "hottest" -> Ok Hottest
  | "busiest" -> Ok Busiest
  | w -> (
      match String.index_opt w '-' with
      | Some i when i > 0 -> (
          match
            ( int_of_string_opt (String.sub w 0 i),
              int_of_string_opt (String.sub w (i + 1) (String.length w - i - 1))
            )
          with
          | Some u, Some v -> Ok (Pair (u, v))
          | _ -> Error (Printf.sprintf "bad link %S" w))
      | _ -> (
          match int_of_string_opt w with
          | Some i -> Ok (Id i)
          | None -> Error (Printf.sprintf "bad target %S" w)))

let parse_line line =
  let words =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
  in
  let ( let* ) = Result.bind in
  match words with
  | "at" :: time :: kind :: args -> (
      let* at =
        match float_of_string_opt time with
        | Some t when Float.is_finite t -> Ok t
        | Some _ | None -> Error (Printf.sprintf "bad time %S" time)
      in
      let one mk = function
        | [ t ] ->
            let* target = parse_target t in
            Ok { at; fault = mk target }
        | _ -> Error (Printf.sprintf "%s takes one target" kind)
      in
      match (kind, args) with
      | "kill-instance", args -> one (fun t -> Kill_instance t) args
      | "link-down", args -> one (fun t -> Link_down t) args
      | "link-up", args -> one (fun t -> Link_up t) args
      | "switch-crash", args -> one (fun t -> Switch_crash t) args
      | "switch-restart", args -> one (fun t -> Switch_restart t) args
      | "tcam-loss", [ t; p ] -> (
          let* target = parse_target t in
          match float_of_string_opt p with
          | Some p -> Ok { at; fault = Tcam_loss (target, p) }
          | None -> Error (Printf.sprintf "bad probability %S" p))
      | "tcam-loss", _ -> Error "tcam-loss takes a target and a probability"
      | "poller-blackout", [ d ] -> (
          match float_of_string_opt d with
          | Some d when Float.is_finite d -> Ok { at; fault = Poller_blackout d }
          | Some _ | None -> Error (Printf.sprintf "bad duration %S" d))
      | "poller-blackout", _ -> Error "poller-blackout takes a duration"
      | k, _ -> Error (Printf.sprintf "unknown fault kind %S" k))
  | _ -> Error "expected: at TIME KIND ARGS"

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let stripped = String.trim line in
        if stripped = "" || stripped.[0] = '#' then go (n + 1) acc rest
        else (
          match parse_line stripped with
          | Ok e -> go (n + 1) ((n, e) :: acc) rest
          | Error m -> Error (Printf.sprintf "line %d: %s" n m))
  in
  match go 1 [] lines with
  | Error _ as e -> e
  | Ok events -> (
      (* Stable, so same-time events keep file order, as [add] keeps
         insertion order; each keeps its line for the checks. *)
      let timed =
        List.stable_sort (fun (_, a) (_, b) -> Float.compare a.at b.at) events
      in
      match check_events ~where:(fun n _ -> Printf.sprintf "line %d" n) timed with
      | Ok () -> Ok (List.map snd timed)
      | Error _ as e -> e)

(* ---- symbolic target resolution (at injection time) --------------- *)

let hottest_instance (st : Netstate.t) =
  Netstate.recompute_loads st;
  List.fold_left
    (fun acc inst ->
      if Failmask.instance_down st.Netstate.mask (Instance.id inst) then acc
      else
        match acc with
        | None -> Some inst
        | Some best ->
            let c =
              Float.compare (Instance.offered inst) (Instance.offered best)
            in
            if c > 0 || (c = 0 && Instance.id inst < Instance.id best) then
              Some inst
            else acc)
    None
    (Netstate.instances_in_use st)

let rate_weighted (s : Types.scenario) fold =
  let weights = Hashtbl.create 32 in
  Array.iter
    (fun (c : Types.flow_class) ->
      if c.Types.rate > 0.0 then
        fold c (fun key ->
            Hashtbl.replace weights key
              (c.Types.rate
              +. Option.value ~default:0.0 (Hashtbl.find_opt weights key))))
    s.Types.classes;
  (* lint: L3 — order erased: consumers sort by (rate, key) *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) weights []

let busiest_link s mask =
  rate_weighted s (fun c add ->
      let p = c.Types.path in
      for i = 1 to Array.length p - 1 do
        add (norm_pair (p.(i - 1), p.(i)))
      done)
  |> List.filter (fun ((u, v), _) -> not (Failmask.link_down mask u v))
  |> List.sort (fun ((a1, a2), va) ((b1, b2), vb) ->
         match Float.compare vb va with
         | 0 -> ( match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)
         | c -> c)
  |> function
  | (k, _) :: _ -> Some k
  | [] -> None

let busiest_switch s mask =
  rate_weighted s (fun c add -> Array.iter add c.Types.path)
  |> List.filter (fun (sw, _) -> not (Failmask.switch_down mask sw))
  |> List.sort (fun (a, va) (b, vb) ->
         match Float.compare vb va with 0 -> Int.compare a b | c -> c)
  |> function
  | (k, _) :: _ -> Some k
  | [] -> None

(* ---- the interpreter ---------------------------------------------- *)

type element = Link of (int * int) | Switch of int
type open_fault = { elem : element; since : float; sym : bool }

type injected =
  | Ignored of string
  | Killed of { dead : Instance.t; stranded : float }
  | Failed of open_fault
  | Restored of { elem : element; healed : open_fault list; held : bool }
  | Rules_lost of { sw : int; lost : int; p : float }
  | Blackout of float

let element_equal a b =
  match (a, b) with
  | Link (u, v), Link (u', v') -> u = u' && v = v'
  | Switch a, Switch b -> a = b
  | (Link _ | Switch _), _ -> false

let element_to_string = function
  | Link (u, v) -> Printf.sprintf "%d-%d" u v
  | Switch sw -> string_of_int sw

let fail_element mask = function
  | Link (u, v) -> Failmask.fail_link mask u v
  | Switch sw -> Failmask.fail_switch mask sw

let live ctrl =
  match (Controller.netstate ctrl, Controller.handler ctrl) with
  | Some st, Some h -> (st, h)
  | _ -> invalid_arg "Fault: run_epoch first"

let reapply ctrl open_faults =
  let st, _ = live ctrl in
  List.iter (fun f -> fail_element st.Netstate.mask f.elem) open_faults

let inject ctrl ~rng open_faults ev =
  let st, handler = live ctrl in
  let s = Controller.scenario ctrl and mask = st.Netstate.mask in
  let ignored why = (Ignored why, open_faults) in
  let fail ~why target = function
    | None -> ignored why
    | Some elem ->
        fail_element mask elem;
        let sym =
          match target with Busiest -> true | Hottest | Id _ | Pair _ -> false
        in
        let f = { elem; since = ev.at; sym } in
        (Failed f, f :: open_faults)
  in
  (* The element comes back only when no fault left open names it. *)
  let restore elem (healed, rest) =
    let held = List.exists (fun f -> element_equal f.elem elem) rest in
    if not held then (
      match elem with
      | Link (u, v) -> Failmask.restore_link mask u v
      | Switch sw -> Failmask.restore_switch mask sw);
    (Restored { elem; healed; held }, rest)
  in
  (* The pairing rule: an explicit up closes every open fault on its
     element, a symbolic one the newest open symbolic fault of its
     kind. *)
  let heal elem =
    restore elem
      (List.partition (fun f -> element_equal f.elem elem) open_faults)
  in
  let heal_symbolic ~link =
    let rec go newer = function
      | [] -> ignored "nothing to heal"
      | f :: older
        when f.sym && (match f.elem with Link _ -> link | Switch _ -> not link)
        ->
          restore f.elem ([ f ], List.rev_append newer older)
      | f :: older -> go (f :: newer) older
    in
    go [] open_faults
  in
  match ev.fault with
  | Kill_instance target -> (
      let victim =
        match target with
        | Hottest -> hottest_instance st
        | Id i ->
            List.find_opt
              (fun inst -> Instance.id inst = i)
              (Resource_orchestrator.instances st.Netstate.orchestrator)
        | Busiest | Pair _ -> None
      in
      match victim with
      | None -> ignored "no eligible instance"
      | Some dead ->
          Failmask.fail_instance mask (Instance.id dead);
          let stranded = Dynamic_handler.repair handler ~dead in
          (Killed { dead; stranded }, open_faults))
  | Link_down target ->
      fail ~why:"no eligible link" target
        (match target with
        | Pair (u, v) -> Some (Link (norm_pair (u, v)))
        | Busiest -> Option.map (fun l -> Link l) (busiest_link s mask)
        | Hottest | Id _ -> None)
  | Switch_crash target ->
      fail ~why:"no eligible switch" target
        (match target with
        | Id sw -> Some (Switch sw)
        | Busiest -> Option.map (fun sw -> Switch sw) (busiest_switch s mask)
        | Hottest | Pair _ -> None)
  | Link_up (Pair (u, v)) -> heal (Link (norm_pair (u, v)))
  | Switch_restart (Id sw) -> heal (Switch sw)
  | Link_up Busiest -> heal_symbolic ~link:true
  | Switch_restart Busiest -> heal_symbolic ~link:false
  | Link_up (Hottest | Id _) | Switch_restart (Hottest | Pair _) ->
      ignored "nothing to heal"
  | Tcam_loss (target, p) -> (
      let sw =
        match target with
        | Id sw -> Some sw
        | Busiest -> busiest_switch s mask
        | Hottest | Pair _ -> None
      in
      match (sw, Controller.last_report ctrl) with
      | Some sw, Some { Controller.rules = { Rule_generator.network; _ }; _ }
        when sw >= 0 && sw < Array.length network ->
          let rng = rng sw in
          let doomed =
            List.filter_map
              (fun (uid, _) -> if Rng.float rng 1.0 < p then Some uid else None)
              (Tcam.phys_entries network.(sw))
          in
          let lost =
            Tcam.retain_phys network.(sw) ~keep:(fun uid ->
                not (List.mem uid doomed))
          in
          (Rules_lost { sw; lost; p }, open_faults)
      | _ -> ignored "no eligible switch")
  | Poller_blackout d -> (Blackout d, open_faults)
