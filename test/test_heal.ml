(* Heals that rewrite one vSwitch table, and gate re-checks narrowed to
   the switches those heals rewrote.

   The controller renames a dead instance in place only while every
   table is exactly as it last wrote it, and narrows a re-check only
   when nothing but such heals wrote a table since the gate's last
   [Ok].  The tests below pin both guards; the property drives random
   lifecycles and requires every re-check to equal the full verifier on
   the same live tables, and every in-place heal to leave the tables the
   rule generator would build. *)

module C = Apple_core
module B = Apple_topology.Builders
module V = Apple_verify.Verify
module Tcam = Apple_dataplane.Tcam
module Rule = Apple_dataplane.Rule
module Fault = Apple_chaos.Fault
module Instance = Apple_vnf.Instance
module Rng = Apple_prelude.Rng

let fail = Alcotest.fail

let render net =
  let b = Buffer.create 4096 in
  Tcam.add_network b net;
  Buffer.contents b

let live ctrl =
  (Option.get (C.Controller.last_report ctrl)).C.Controller.rules

let assignment ctrl = Option.get (C.Controller.assignment ctrl)
let netstate ctrl = Option.get (C.Controller.netstate ctrl)

let same_verdict a b =
  match (a, b) with
  | Ok (), Ok () -> true
  | Error x, Error y -> String.equal x y
  | Ok (), Error _ | Error _, Ok () -> false

let show = function Ok () -> "Ok" | Error m -> "Error: " ^ m

(* The full verifier on the controller's live tables. *)
let full_verdict ctrl =
  V.gate (C.Controller.scenario ctrl) (assignment ctrl) (live ctrl)

(* A gated controller whose gate records the [changed] set of each
   call. *)
let spied s =
  let calls = ref [] in
  let gate ?changed s asg built =
    calls := changed :: !calls;
    V.gate ?changed s asg built
  in
  (C.Controller.create ~jobs:1 ~gate s, calls)

let last_changed calls =
  match !calls with c :: _ -> c | [] -> fail "the gate never ran"

(* Kill [dead] through the fault interpreter: mark it dead and repair. *)
let kill ctrl dead =
  match
    fst
      (Fault.inject ctrl
         ~rng:(fun _ -> Rng.create 0)
         []
         { Fault.at = 0.0; fault = Fault.Kill_instance (Fault.Id (Instance.id dead)) })
  with
  | Fault.Killed _ -> ()
  | _ -> fail "kill ignored"

(* Respawn [dead] at once and heal. *)
let respawn_and_heal ctrl dead =
  let replacement =
    C.Resource_orchestrator.respawn (netstate ctrl).C.Netstate.orchestrator dead
  in
  C.Controller.heal_instance ctrl ~dead ~replacement

let geant_controller () =
  let s =
    Apple_chaos.Experiments.scenario_for Apple_chaos.Experiments.default_opts
      (B.geant ())
  in
  let ctrl, calls = spied s in
  ignore (C.Controller.run_epoch ctrl);
  (ctrl, calls)

(* The in-use instance with the smallest id. *)
let victim ctrl =
  match
    List.sort
      (fun a b -> Int.compare (Instance.id a) (Instance.id b))
      (C.Netstate.instances_in_use (netstate ctrl))
  with
  | i :: _ -> i
  | [] -> fail "no instance in use"

let writes net = Array.map Tcam.writes net

(* On tables as the controller wrote them, a heal renames the dead
   instance in its host's vSwitch table only, leaves what a full
   regeneration would, and the next re-check looks at that switch. *)
let test_one_table () =
  let ctrl, calls = geant_controller () in
  let dead = victim ctrl in
  let net = (live ctrl).C.Rule_generator.network in
  let before = writes net in
  kill ctrl dead;
  respawn_and_heal ctrl dead;
  if not ((live ctrl).C.Rule_generator.network == net) then
    fail "the heal regenerated the tables";
  let after = writes net in
  let touched =
    List.filter
      (fun sw -> before.(sw) <> after.(sw))
      (List.init (Array.length net) Fun.id)
  in
  Alcotest.(check (list int)) "only the host's table" [ Instance.host dead ] touched;
  Alcotest.(check string) "as a full regeneration"
    (render
       (C.Rule_generator.build (C.Controller.scenario ctrl) (assignment ctrl))
         .C.Rule_generator.network)
    (render net);
  let full = full_verdict ctrl in
  let got = C.Controller.recheck_gate ctrl in
  Alcotest.(check (option (list int)))
    "narrowed to the host" (Some [ Instance.host dead ]) (last_changed calls);
  Alcotest.(check string) "same verdict as the full check" (show full) (show got);
  Alcotest.(check string) "certified" "Ok" (show got)

(* (a) A write the controller did not make, after a certified heal:
   dropping a pipeline's entry rule at another switch must make the
   next re-check run in full and fail. *)
let test_outside_write () =
  let ctrl, calls = geant_controller () in
  let dead = victim ctrl in
  kill ctrl dead;
  respawn_and_heal ctrl dead;
  (match C.Controller.recheck_gate ctrl with
  | Ok () -> ()
  | Error m -> fail ("healed epoch rejected: " ^ m));
  let dead2 =
    match
      List.filter
        (fun i -> Instance.host i = Instance.host dead)
        (C.Netstate.instances_in_use (netstate ctrl))
    with
    | i :: _ -> i
    | [] -> fail "no second instance at the host"
  in
  kill ctrl dead2;
  respawn_and_heal ctrl dead2;
  let net = (live ctrl).C.Rule_generator.network in
  let other =
    match
      List.filter
        (fun sw -> sw <> Instance.host dead && Tcam.vswitch_rules net.(sw) <> [])
        (List.init (Array.length net) Fun.id)
    with
    | sw :: _ -> sw
    | [] -> fail "every pipeline lives at the healed host"
  in
  (match Tcam.vswitch_rules net.(other) with
  | { Rule.v_port = Rule.From_network; _ } :: rest ->
      Tcam.set_vswitch net.(other) rest
  | _ -> fail "the table does not start with an entry rule");
  let got = C.Controller.recheck_gate ctrl in
  Alcotest.(check (option (list int))) "ran in full" None (last_changed calls);
  (match got with
  | Error _ -> ()
  | Ok () -> fail "the dropped rule went unnoticed");
  Alcotest.(check string) "same verdict as the full check"
    (show (full_verdict ctrl)) (show got)

(* (b) A heal while a TCAM loss is still open regenerates every table,
   so the lost rules come back before any scheduled reinstall. *)
let test_heal_during_loss () =
  let ctrl, calls = geant_controller () in
  let dead = victim ctrl in
  kill ctrl dead;
  let sw = Instance.host dead in
  let net = (live ctrl).C.Rule_generator.network in
  let entries = List.length (Tcam.phys_entries net.(sw)) in
  let lost = Tcam.retain_phys net.(sw) ~keep:(fun uid -> uid mod 2 = 1) in
  if lost = 0 then fail "the loss dropped nothing";
  respawn_and_heal ctrl dead;
  let healed = (live ctrl).C.Rule_generator.network in
  if healed == net then fail "the heal kept the damaged tables";
  Alcotest.(check int) "lost rules back" entries
    (List.length (Tcam.phys_entries healed.(sw)));
  Alcotest.(check string) "as a full regeneration"
    (render
       (C.Rule_generator.build (C.Controller.scenario ctrl) (assignment ctrl))
         .C.Rule_generator.network)
    (render healed);
  (match C.Controller.recheck_gate ctrl with
  | Ok () -> ()
  | Error m -> fail ("healed epoch rejected: " ^ m));
  Alcotest.(check (option (list int))) "ran in full" None (last_changed calls)

(* ---- the equivalence property ------------------------------------- *)

type step =
  | Kill
  | Heal
  | Tcam_loss
  | Reinstall
  | Outside_write
  | Link_flap
  | Recheck

(* Heals and re-checks often enough that most lifecycles reach a
   narrowed re-check between the writes that make it full. *)
let draw_step rng =
  match Rng.int rng 16 with
  | 0 | 1 | 2 | 3 -> Kill
  | 4 | 5 | 6 | 7 -> Heal
  | 8 -> Tcam_loss
  | 9 -> Reinstall
  | 10 -> Outside_write
  | 11 -> Link_flap
  | _ -> Recheck

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Rng.int rng (List.length l)))

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

(* One write behind the controller's back at [sw]: a vSwitch or APPLE
   rule dropped, or the APPLE table rewritten as it was. *)
let outside_write rng net sw =
  let t = net.(sw) in
  match Rng.int rng 3 with
  | 0 -> (
      match Tcam.vswitch_rules t with
      | [] -> Tcam.set_vswitch t []
      | rules -> Tcam.set_vswitch t (drop_nth rules (Rng.int rng (List.length rules))))
  | 1 -> (
      match Tcam.phys_rules t with
      | [] -> Tcam.set_phys t []
      | rules -> Tcam.set_phys t (drop_nth rules (Rng.int rng (List.length rules))))
  | _ -> Tcam.set_phys t (Tcam.phys_rules t)

let run_lifecycle seed =
  let named = if seed mod 2 = 0 then B.internet2 () else B.geant () in
  let rng = Rng.create seed in
  let s =
    Helpers.small_scenario ~seed ~named
      ~total:(1500.0 +. Rng.float rng 4000.0)
      ~max_classes:(4 + Rng.int rng 12)
      ()
  in
  let ctrl, calls = spied s in
  match C.Controller.run_epoch ctrl with
  | exception C.Optimization_engine.Infeasible _ -> true
  | exception C.Controller.Rejected m ->
      QCheck.Test.fail_reportf "first epoch rejected: %s" m
  | _ ->
      let n = Array.length (live ctrl).C.Rule_generator.network in
      let links = Apple_topology.Graph.edges named.B.graph in
      let pending = ref [] and down = ref [] in
      let check_recheck () =
        let full = full_verdict ctrl in
        let got = C.Controller.recheck_gate ctrl in
        if not (same_verdict full got) then
          QCheck.Test.fail_reportf
            "seed %d: re-check (changed %s) gave %s, the full check %s" seed
            (match last_changed calls with
            | None -> "none"
            | Some l -> String.concat "," (List.map string_of_int l))
            (show got) (show full)
      in
      let step = function
        | Kill -> (
            let dead_ids = List.map Instance.id !pending in
            match
              pick rng
                (List.filter
                   (fun i -> not (List.mem (Instance.id i) dead_ids))
                   (C.Netstate.instances_in_use (netstate ctrl)))
            with
            | None -> ()
            | Some dead ->
                kill ctrl dead;
                pending := !pending @ [ dead ])
        | Heal -> (
            match !pending with
            | [] -> ()
            | dead :: rest ->
                pending := rest;
                let net = (live ctrl).C.Rule_generator.network in
                respawn_and_heal ctrl dead;
                (* In place when the network object survived the heal. *)
                if (live ctrl).C.Rule_generator.network == net then
                  let built = C.Rule_generator.build s (assignment ctrl) in
                  if
                    not
                      (String.equal (render net)
                         (render built.C.Rule_generator.network))
                  then
                    QCheck.Test.fail_reportf
                      "seed %d: an in-place heal of %d left tables a \
                       regeneration would not"
                      seed (Instance.id dead))
        | Tcam_loss ->
            ignore
              (Fault.inject ctrl
                 ~rng:(fun sw -> Rng.create ((seed * 31) + sw))
                 []
                 {
                   Fault.at = 0.0;
                   fault = Fault.Tcam_loss (Fault.Id (Rng.int rng n), 0.3);
                 });
            (* Often re-checked at once: the write must make it full. *)
            if Rng.bool rng then check_recheck ()
        | Reinstall -> ignore (C.Controller.reinstall_rules ctrl)
        | Outside_write ->
            let net = (live ctrl).C.Rule_generator.network in
            let sw = Rng.int rng n in
            let before = full_verdict ctrl in
            outside_write rng net sw;
            (* The verifier's own narrowing: one table changed since a
               certified configuration. *)
            (match before with
            | Error _ -> ()
            | Ok () ->
                let asg = assignment ctrl and built = live ctrl in
                let narrowed = V.gate ~changed:[ sw ] s asg built in
                let full = V.gate s asg built in
                if not (same_verdict narrowed full) then
                  QCheck.Test.fail_reportf
                    "seed %d: the check narrowed to switch %d gave %s, the \
                     full check %s"
                    seed sw (show narrowed) (show full));
            if Rng.bool rng then check_recheck ()
        | Link_flap -> (
            let mask = (netstate ctrl).C.Netstate.mask in
            match !down with
            | (u, v) :: rest ->
                Apple_dataplane.Failmask.restore_link mask u v;
                down := rest
            | [] -> (
                match pick rng links with
                | Some (u, v, _) ->
                    Apple_dataplane.Failmask.fail_link mask u v;
                    down := [ (u, v) ]
                | None -> ()))
        | Recheck -> check_recheck ()
      in
      for _ = 1 to 15 + Rng.int rng 20 do
        step (draw_step rng)
      done;
      check_recheck ();
      true

let prop_recheck_equals_full =
  QCheck.Test.make
    ~name:"narrowed re-checks and in-place heals equal the full ones"
    ~count:200 ~long_factor:10
    QCheck.(int_range 0 100_000)
    run_lifecycle

let suite =
  [
    Alcotest.test_case "a heal rewrites one vSwitch table" `Quick test_one_table;
    Alcotest.test_case "an outside write makes the re-check full" `Quick
      test_outside_write;
    Alcotest.test_case "a heal during a TCAM loss regenerates" `Quick
      test_heal_during_loss;
    QCheck_alcotest.to_alcotest prop_recheck_equals_full;
  ]
