(* The causal tracer's contract: disabled-path no-ops, parent/child
   causality, span stamps (raising bodies, sim-clock durations), ring
   overflow accounting, one ring for all domains, export schema,
   self-time attribution, and — the load-bearing property —
   byte-identical sim renders for any --jobs.  Every test restores the
   disabled default so the rest of the suite observes an inert
   tracer. *)

module Trace = Apple_trace.Trace
module C = Apple_core

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  nn = 0 || scan 0

(* Flip tracing on for the body of a test, restoring the disabled
   default and an empty ring no matter how the body exits. *)
let with_trace f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

let sp_outer = Trace.span ~cat:"test" "test.outer"
let sp_inner = Trace.span ~cat:"test" "test.inner"

(* --- disabled path -------------------------------------------------- *)

let test_disabled_noop () =
  Trace.reset ();
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  let v = Trace.with_ sp_outer (fun () -> 42) in
  Alcotest.(check int) "body runs" 42 v;
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()));
  Alcotest.(check int) "no drops" 0 (Trace.dropped ())

(* --- causality ------------------------------------------------------ *)

let test_parent_child () =
  with_trace @@ fun () ->
  Trace.with_ sp_outer (fun () ->
      Trace.with_ sp_inner (fun () -> ());
      Trace.with_ ~cls:7 sp_inner (fun () -> ()));
  let evs = Trace.events () in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let outer =
    List.find (fun e -> e.Trace.ev_name = "test.outer") evs
  in
  let inners =
    List.filter (fun e -> e.Trace.ev_name = "test.inner") evs
  in
  Alcotest.(check int) "two inner" 2 (List.length inners);
  List.iter
    (fun e ->
      Alcotest.(check int) "same trace" outer.Trace.ev_trace e.Trace.ev_trace;
      Alcotest.(check int) "child of outer" outer.Trace.ev_id e.Trace.ev_parent)
    inners;
  (match inners with
  | [ a; b ] ->
      Alcotest.(check bool) "distinct ids" true (a.Trace.ev_id <> b.Trace.ev_id);
      Alcotest.(check int) "seq 0 then 1" 0 a.Trace.ev_seq;
      Alcotest.(check int) "seq 0 then 1" 1 b.Trace.ev_seq;
      Alcotest.(check int) "cls carried" 7 b.Trace.ev_cls
  | _ -> Alcotest.fail "expected exactly two inner events");
  (* Two roots get distinct traces. *)
  Trace.with_ sp_outer (fun () -> ());
  let roots =
    List.filter (fun e -> e.Trace.ev_name = "test.outer") (Trace.events ())
  in
  match roots with
  | [ a; b ] ->
      Alcotest.(check bool) "distinct traces" true
        (a.Trace.ev_trace <> b.Trace.ev_trace)
  | _ -> Alcotest.fail "expected exactly two root events"

(* --- span stamps ---------------------------------------------------- *)

let test_raise_records () =
  with_trace @@ fun () ->
  (try Trace.with_ sp_outer (fun () -> failwith "boom") with Failure _ -> ());
  match Trace.events () with
  | [ e ] ->
      Alcotest.(check string) "event named" "test.outer" e.Trace.ev_name;
      Alcotest.(check bool) "wall stamps ordered" true
        (e.Trace.ev_wall1 >= e.Trace.ev_wall0)
  | l -> Alcotest.failf "expected one event, got %d" (List.length l)

(* Summed sim-mode duration of the events named [name]. *)
let sim_total name =
  match
    List.find_opt
      (fun r -> String.equal r.Trace.r_name name)
      (Trace.rows ~mode:Trace.Sim ())
  with
  | Some r -> r.Trace.r_total
  | None -> Alcotest.failf "no %s row" name

let test_sim_duration () =
  with_trace @@ fun () ->
  let now = ref 10.0 in
  Trace.set_sim_clock (Some (fun () -> !now));
  Fun.protect ~finally:(fun () -> Trace.set_sim_clock None) @@ fun () ->
  Trace.with_ sp_outer (fun () -> now := 13.5);
  Alcotest.(check (float 1e-9)) "sim duration" 3.5 (sim_total "test.outer");
  match Trace.events () with
  | [ e ] -> Alcotest.(check (float 1e-9)) "sim begin" 10.0 e.Trace.ev_sim0
  | l -> Alcotest.failf "expected one event, got %d" (List.length l)

let test_sim_clock_mid_span () =
  with_trace @@ fun () ->
  let now = ref 100.0 in
  Fun.protect ~finally:(fun () -> Trace.set_sim_clock None) @@ fun () ->
  (* Clock installed mid-span: no begin stamp, so the event has no sim
     duration — a partial delta would be meaningless. *)
  Trace.with_ sp_outer (fun () ->
      Trace.set_sim_clock (Some (fun () -> !now));
      now := 107.0);
  Alcotest.(check (float 1e-9)) "no sim with half a stamp" 0.0
    (sim_total "test.outer");
  (* Clock removed mid-span: same rule from the other side. *)
  Trace.with_ sp_inner (fun () -> Trace.set_sim_clock None);
  Alcotest.(check (float 1e-9)) "no sim when removed mid-span" 0.0
    (sim_total "test.inner");
  (* Clock present at both ends again: durations resume. *)
  Trace.set_sim_clock (Some (fun () -> !now));
  Trace.with_ sp_inner (fun () -> now := !now +. 2.25);
  Alcotest.(check (float 1e-9)) "sim resumes" 2.25 (sim_total "test.inner");
  Alcotest.(check int) "every run recorded" 3 (List.length (Trace.events ()))

(* --- ring overflow -------------------------------------------------- *)

let test_ring_overflow () =
  let saved = Trace.ring_capacity () in
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.set_ring_capacity saved)
    (fun () ->
      Trace.set_ring_capacity 8;
      Trace.set_enabled true;
      for _ = 1 to 20 do
        Trace.with_ sp_outer (fun () -> ())
      done;
      Trace.set_enabled false;
      Alcotest.(check int) "ring keeps cap" 8 (List.length (Trace.events ()));
      Alcotest.(check (list int)) "the first events are kept"
        [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        (List.map (fun e -> e.Trace.ev_trace) (Trace.events ()));
      Alcotest.(check int) "drops counted" 12 (Trace.dropped ());
      let s = Trace.render_chrome ~mode:Trace.Sim () in
      Alcotest.(check bool) "drops exported" true
        (contains s "\"dropped\":12"))

(* --- one ring ------------------------------------------------------- *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* An untraced run never holds the ring (~850k words): only switching
   tracing on allocates it. *)
let test_ring_allocated_on_enable () =
  (* Resizing while tracing is off drops any ring an earlier test left. *)
  Trace.set_ring_capacity (Trace.ring_capacity ());
  let off = live_words () in
  Trace.with_ sp_outer (fun () -> ());
  Alcotest.(check bool) "no ring while disabled" true
    (live_words () - off < 10_000);
  with_trace @@ fun () ->
  Alcotest.(check bool) "ring allocated on enable" true
    (live_words () - off > 12 * Trace.ring_capacity ())

(* A span on a fresh domain lands in the one shared ring: it must not
   provision a ring of its own (65536 slots, ~786k live words), which
   would read as a leak to any live-heap check taken before it. *)
let test_fresh_domain_shares_ring () =
  with_trace @@ fun () ->
  Trace.with_ sp_outer (fun () -> ());
  let before = live_words () in
  Domain.join (Domain.spawn (fun () -> Trace.with_ sp_inner (fun () -> ())));
  let grown = live_words () - before in
  Alcotest.(check bool)
    (Printf.sprintf "live words grew by %d (< 10000)" grown)
    true (grown < 10_000);
  let domains =
    List.sort_uniq Int.compare
      (List.map (fun e -> e.Trace.ev_domain) (Trace.events ()))
  in
  Alcotest.(check int) "both domains recorded" 2 (List.length domains)

(* --- export --------------------------------------------------------- *)

let test_chrome_schema () =
  with_trace @@ fun () ->
  Trace.with_ sp_outer (fun () -> Trace.with_ sp_inner (fun () -> ()));
  let sim = Trace.render_chrome ~mode:Trace.Sim () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("sim render has " ^ needle) true
        (contains sim needle))
    [
      "\"schema\":\"apple-trace/1\"";
      "\"mode\":\"sim\"";
      "\"traceEvents\":[";
      "\"ph\":\"X\"";
      "\"cat\":\"test\"";
      (* Host-dependent fields are zeroed in sim mode. *)
      "\"tid\":0";
      "\"wall_us\":0.000";
      "\"minor_words\":0";
    ];
  let wall = Trace.render_chrome ~mode:Trace.Wall () in
  Alcotest.(check bool) "wall render tagged" true
    (contains wall "\"mode\":\"wall\"")

let test_rows_and_phases () =
  with_trace @@ fun () ->
  Trace.with_ sp_outer (fun () ->
      for _ = 1 to 3 do
        Trace.with_ sp_inner (fun () -> Sys.opaque_identity (ignore (Array.make 100 0.0)))
      done);
  let rows = Trace.rows ~mode:Trace.Wall () in
  Alcotest.(check int) "two row names" 2 (List.length rows);
  let inner = List.find (fun r -> r.Trace.r_name = "test.inner") rows in
  Alcotest.(check int) "inner count" 3 inner.Trace.r_count;
  Alcotest.(check bool) "self <= total" true
    (inner.Trace.r_self <= inner.Trace.r_total +. 1e-12);
  let phases = Trace.phases ~mode:Trace.Wall () in
  Alcotest.(check int) "one phase" 1 (List.length phases);
  let p = List.hd phases in
  Alcotest.(check string) "phase cat" "test" p.Trace.ph_cat;
  Alcotest.(check int) "phase count" 4 p.Trace.ph_count;
  let table = Trace.render_table ~mode:Trace.Wall () in
  Alcotest.(check bool) "table headed" true (contains table "APPLE profile");
  Alcotest.(check bool) "table lists span" true (contains table "test.inner")

(* --- jobs invariance ------------------------------------------------ *)

(* One gated epoch of the default engine over a small scenario, traced;
   its greedy half maps over the domain pool, and the sim render zeroes
   every host-dependent field, so it must come out byte for byte the
   same whatever the worker count. *)
let traced_epoch_render ~seed ~jobs =
  let s = Helpers.small_scenario ~seed ~total:3000.0 ~max_classes:12 () in
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled false)
    (fun () ->
      let ctrl =
        C.Controller.create ~jobs ~gate:Apple_verify.Verify.gate s
      in
      ignore (C.Controller.run_epoch ctrl);
      Trace.render_chrome ~mode:Trace.Sim ())

let test_sim_render_jobs_invariant () =
  let a = traced_epoch_render ~seed:11 ~jobs:1 in
  let b = traced_epoch_render ~seed:11 ~jobs:4 in
  Alcotest.(check bool) "some events traced" true
    (contains a "pool.item");
  Alcotest.(check string) "jobs 1 = jobs 4" a b;
  Trace.reset ()

let prop_sim_render_jobs_invariant =
  QCheck.Test.make ~count:4 ~name:"sim render invariant under --jobs"
    QCheck.(make Gen.(int_range 1 1000))
    (fun seed ->
      let a = traced_epoch_render ~seed ~jobs:1 in
      let b = traced_epoch_render ~seed ~jobs:3 in
      Trace.reset ();
      String.equal a b)

let suite =
  [
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "parent/child causality" `Quick test_parent_child;
    Alcotest.test_case "span: raising body still records" `Quick
      test_raise_records;
    Alcotest.test_case "span: sim-clock duration" `Quick test_sim_duration;
    Alcotest.test_case "span: sim clock installed/removed mid-span" `Quick
      test_sim_clock_mid_span;
    Alcotest.test_case "ring overflow accounting" `Quick test_ring_overflow;
    Alcotest.test_case "ring allocated when tracing starts" `Quick
      test_ring_allocated_on_enable;
    Alcotest.test_case "fresh domain shares the one ring" `Quick
      test_fresh_domain_shares_ring;
    Alcotest.test_case "chrome export schema" `Quick test_chrome_schema;
    Alcotest.test_case "rows, phases and table" `Quick test_rows_and_phases;
    Alcotest.test_case "sim render --jobs invariant" `Quick
      test_sim_render_jobs_invariant;
    QCheck_alcotest.to_alcotest prop_sim_render_jobs_invariant;
  ]
