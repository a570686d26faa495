(* The work of one heal, counted.  The install is the failover-heal
   benchmark's: GEANT, at most 120 classes, scenario seed 0, a gravity
   matrix of 6,000 Mbps from Rng.create 0, placed by the default engine
   behind the verifier gate.  One fixed instance (the in-use instance
   with the smallest id) dies, is repaired and respawned; the counted
   window is what each benchmark op does after that:
   [Controller.heal_instance], [Controller.recheck_gate] and one
   [Walk.run_batch] over every sub-class representative.

   tools/heal_work.txt commits the counts.  Walks must match exactly;
   minor words allocated (Gc.minor_words) may exceed the committed count
   by at most [words_tolerance], a margin for another compiler version's
   standard library.  A change that lowers the words on purpose lowers
   the committed count with it. *)

module C = Apple_core
module B = Apple_topology.Builders
module V = Apple_verify.Verify
module Walk = Apple_dataplane.Walk
module Failmask = Apple_dataplane.Failmask
module Instance = Apple_vnf.Instance
module Rng = Apple_prelude.Rng

let words_tolerance = 0.03
let committed_file = "../tools/heal_work.txt"

let committed () =
  In_channel.with_open_text committed_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ name; value ] when not (String.starts_with ~prefix:"#" name) ->
             Some (name, float_of_string value)
         | _ -> None)

let need = function Some x -> x | None -> Alcotest.fail "no epoch installed"

(* Telemetry, tracing and the counter plane off, the log level at its
   default, whatever earlier tests left behind. *)
let quietly f =
  let tel = Apple_telemetry.Telemetry.enabled ()
  and tr = Apple_trace.Trace.enabled ()
  and obs = Apple_obs.Counters.enabled ()
  and level = Logs.level () in
  Apple_telemetry.Telemetry.set_enabled false;
  Apple_trace.Trace.set_enabled false;
  Apple_obs.Counters.set_enabled false;
  Logs.set_level (Some Logs.Warning);
  Fun.protect f ~finally:(fun () ->
      Apple_telemetry.Telemetry.set_enabled tel;
      Apple_trace.Trace.set_enabled tr;
      Apple_obs.Counters.set_enabled obs;
      Logs.set_level level)

(* (verifier walks, dataplane walks, minor words) of one heal. *)
let heal_work () =
  quietly @@ fun () ->
  let topo = B.geant () in
  let n = Apple_topology.Graph.num_nodes topo.B.graph in
  let s =
    C.Scenario.build
      ~config:{ C.Scenario.default_config with max_classes = 120 }
      ~seed:0 topo
      (Apple_traffic.Synth.gravity (Rng.create 0) ~n ~total:6_000.0)
  in
  (* [Verify.gate], counting the verifier's walks. *)
  let verifier_walks = ref 0 in
  let gate s asg built =
    let r = V.check s asg built in
    verifier_walks := !verifier_walks + r.V.walks;
    if V.ok r then Ok () else Error (V.summary r)
  in
  let ctrl = C.Controller.create ~gate s in
  let initial = C.Controller.run_epoch ctrl in
  let asg = need (C.Controller.assignment ctrl) in
  let requests =
    C.Rule_generator.representatives s asg initial.C.Controller.rules
    |> List.concat_map (fun ((c : C.Types.flow_class), reps) ->
           List.map
             (fun (_, (p : Apple_classifier.Prefix_split.prefix)) ->
               {
                 Walk.rq_path = Array.to_list c.path;
                 rq_cls = c.id;
                 rq_src_ip = p.addr;
                 rq_start_in_host = false;
                 rq_flow = -1;
               })
             reps)
    |> Array.of_list
  in
  let st = need (C.Controller.netstate ctrl) in
  let handler = need (C.Controller.handler ctrl) in
  let in_use = C.Netstate.instances_in_use st in
  let dead =
    List.filter
      (fun i -> List.exists (fun j -> Instance.id j = Instance.id i) in_use)
      asg.C.Subclass.instances
    |> List.sort (fun a b -> Int.compare (Instance.id a) (Instance.id b))
    |> List.hd
  in
  Failmask.fail_instance st.C.Netstate.mask (Instance.id dead);
  ignore (C.Dynamic_handler.repair handler ~dead);
  let replacement =
    C.Resource_orchestrator.respawn st.C.Netstate.orchestrator dead
  in
  verifier_walks := 0;
  let words0 = Gc.minor_words () in
  C.Controller.heal_instance ctrl ~dead ~replacement;
  let verdict = C.Controller.recheck_gate ctrl in
  let report = need (C.Controller.last_report ctrl) in
  let walks =
    Walk.run_batch report.C.Controller.rules.C.Rule_generator.network
      ~requests ~mask:st.C.Netstate.mask ()
  in
  let words = Gc.minor_words () -. words0 in
  (match verdict with
  | Ok () -> ()
  | Error e -> Alcotest.failf "healed install refused by the gate: %s" e);
  Array.iter
    (function
      | Ok _ -> ()
      | Error e -> Alcotest.failf "walk after the heal: %a" Walk.pp_error e)
    walks;
  (!verifier_walks, Array.length walks, words)

let test_heal_work () =
  let verifier, dataplane, words = heal_work () in
  let want = committed () in
  let get name =
    match List.assoc_opt name want with
    | Some v -> v
    | None -> Alcotest.failf "%s names no %s" committed_file name
  in
  Alcotest.(check int) "verifier walks"
    (int_of_float (get "verify.walks"))
    verifier;
  Alcotest.(check int) "dataplane walks"
    (int_of_float (get "dataplane.walks"))
    dataplane;
  let limit = get "minor_words" *. (1.0 +. words_tolerance) in
  if words > limit then
    Alcotest.failf "a heal allocated %.0f minor words, over %.0f (%s + %.0f%%)"
      words limit committed_file (100.0 *. words_tolerance)

let suite =
  [
    Alcotest.test_case "one heal's walks and minor words" `Quick
      test_heal_work;
  ]
