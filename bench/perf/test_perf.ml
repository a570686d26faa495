(* The benchmark's own checks: its statistics, the determinism of every
   workload at small sizes, the slice replay against Trace.run, and the
   agreement between BENCHMARK.json and the metrics the runner emits. *)

module B = Apple_topology.Builders
module Stats = Apple_prelude.Stats
module Slice = Apple_slice.Slice
module Strace = Apple_slice.Trace

(* ---- statistics ------------------------------------------------------ *)

let test_tail_rule () =
  let check n want =
    Alcotest.(check (option (float 0.0)))
      (Printf.sprintf "n=%d" n) want (Measure.tail_percentile n)
  in
  check 20 None;
  check 99 None;
  check 100 (Some 90.0);
  check 120 (Some 90.0);
  check 200 (Some 95.0);
  check 1200 (Some 99.0);
  check 10_000 (Some 99.9)

let test_percentiles_are_prelude () =
  let rng = Apple_prelude.Rng.create 7 in
  let xs = Array.init 137 (fun _ -> Apple_prelude.Rng.float rng 100.0) in
  let s = Measure.summarize ~chunk:137 xs in
  Alcotest.(check (float 0.0)) "p50" (Stats.percentile xs 50.0) s.p50;
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    "tail"
    (Some (90.0, Stats.percentile xs 90.0))
    s.tail;
  Alcotest.(check (float 0.0)) "one chunk" (Stats.mean xs) s.chunk_mean;
  Alcotest.(check int) "n" 137 s.n

let test_chunk_mean () =
  (* Three chunks with means 1, 10 and 2 (the trailing 7 is dropped):
     the slow chunk is voted out. *)
  let xs = [| 1.0; 1.0; 10.0; 10.0; 2.0; 2.0; 7.0 |] in
  Alcotest.(check (float 0.0))
    "median of chunk means" 2.0
    (Measure.summarize ~chunk:2 xs).chunk_mean

let test_scaling_exponent () =
  let law b =
    List.map (fun x -> (x, 3.0 *. (x ** b))) [ 10.0; 40.0; 90.0; 300.0; 1e3 ]
  in
  let fit pts = Option.value ~default:nan (Measure.scaling_exponent pts) in
  Alcotest.(check (float 1e-9)) "quadratic" 2.0 (fit (law 2.0));
  Alcotest.(check (float 1e-9)) "sqrt" 0.5 (fit (law 0.5));
  let none pts = Option.is_none (Measure.scaling_exponent pts) in
  Alcotest.(check bool) "one point" true (none [ (1.0, 1.0) ]);
  Alcotest.(check bool)
    "narrow x" true
    (none [ (10.0, 1.0); (12.0, 2.0); (14.0, 3.0) ])

let test_closure () =
  let u = Measure.unattributed in
  Alcotest.(check (float 1e-12)) "remainder" 0.05 (u ~stages:0.95 ~total:1.0);
  Alcotest.(check (float 1e-12)) "closed" 0.0 (u ~stages:2.5 ~total:2.5)

(* ---- workloads at small sizes ------------------------------------------ *)

let small =
  [
    Workloads.cold_reopt ~classes:6 ~rungs:2 ~min_ops:3 ();
    Workloads.diurnal_soak ~classes:8 ~reopt_every:6 ~min_ops:13 ();
    Workloads.slice_churn ~substrates:2 ~low:1 ~high:3 ~min_ops:8 ();
    Workloads.failover_heal ~classes:12 ~min_ops:3 ();
  ]

let run ?(jobs = 2) ?(traced = false) w =
  Runner.run ~jobs w ~seed:5 ~seconds:0.0 ~traced

let clean (r : Runner.report) =
  if r.failed <> 0 || not (List.is_empty r.errors) then
    Alcotest.failf "%s: %s" r.workload (String.concat "; " r.errors)

let test_deterministic (w : Workloads.t) () =
  let a = run w and b = run w in
  let c = run ~jobs:1 w and t = run ~traced:true w in
  List.iter clean [ a; b; c; t ];
  Alcotest.(check string) "repeat" a.digest b.digest;
  Alcotest.(check string) "jobs=1 vs jobs=2" a.digest c.digest;
  Alcotest.(check string) "traced replay" a.digest t.digest;
  Alcotest.(check int) "ops" w.min_ops a.attempted

(* ---- slices ------------------------------------------------------------ *)

let test_replay_matches_trace_run () =
  let topo = B.internet2 () in
  let tr = Strace.synth ~seed:17 ~events:16 in
  let _, o = Strace.run ~jobs:2 topo tr in
  let churn = Workloads.Churn.of_trace ~jobs:2 topo tr in
  let probe = Probe.create ~traced:false in
  let rec drain () =
    match Workloads.Churn.step churn probe with
    | None -> ()
    | Some (_, Ok _) -> drain ()
    | Some (_, Error m) -> Alcotest.fail m
  in
  drain ();
  let mgr = Workloads.Churn.manager churn in
  let rejected =
    o.rejected_capacity + o.rejected_tag_space + o.rejected_verifier
  in
  Alcotest.(check int)
    "admitted" o.admitted
    (Workloads.Churn.admitted churn);
  Alcotest.(check int) "rejected" rejected (Workloads.Churn.rejected churn);
  Alcotest.(check int)
    "residents" o.residents
    (List.length (Slice.residents mgr));
  Alcotest.(check string)
    "fingerprint" o.final_fingerprint (Slice.fingerprint mgr)

let test_rejection_is_pure () =
  let topo = B.internet2 () in
  let mgr = Slice.create ~jobs:1 ~host_cores:8 topo in
  let spec ~name ~rate =
    Slice.synth_spec topo ~seed:3 ~tenant:"t" ~name ~rate ~classes:2 ()
  in
  (match Slice.admit mgr (spec ~name:"small" ~rate:100.0) with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "small slice refused: %s" (Slice.reason_name r));
  let before = Slice.fingerprint mgr in
  match Slice.admit mgr (spec ~name:"huge" ~rate:50_000.0) with
  | Ok _ -> Alcotest.fail "a 50 Gbps slice fit on 8-core hosts"
  | Error _ ->
      Alcotest.(check string) "fingerprint" before (Slice.fingerprint mgr)

(* ---- BENCHMARK.json agrees with the runner ------------------------------- *)

(* Just enough JSON for BENCHMARK.json: objects, arrays, numbers and
   strings whose only escapes are single-character ones. *)
type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float

let parse_json s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let rec ws () =
    if !pos < String.length s && String.contains " \n\r\t" (peek ()) then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    incr pos
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        Obj (members ())
    | '[' ->
        incr pos;
        Arr (elements ())
    | '"' -> Str (str ())
    | _ ->
        let start = !pos in
        while
          !pos < String.length s && String.contains "+-.eE0123456789" (peek ())
        do
          incr pos
        done;
        Num (float_of_string (String.sub s start (!pos - start)))
  and str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          Buffer.add_char b s.[!pos + 1];
          pos := !pos + 2;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  and members () =
    ws ();
    if peek () = '}' then begin
      incr pos;
      []
    end
    else
      let k = str () in
      expect ':';
      let v = value () in
      ws ();
      if peek () = ',' then begin
        incr pos;
        (k, v) :: members ()
      end
      else begin
        expect '}';
        [ (k, v) ]
      end
  and elements () =
    ws ();
    if peek () = ']' then begin
      incr pos;
      []
    end
    else
      let v = value () in
      ws ();
      if peek () = ',' then begin
        incr pos;
        v :: elements ()
      end
      else begin
        expect ']';
        [ v ]
      end
  in
  value ()

let field k = function
  | Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> Alcotest.failf "no key %s" k)
  | _ -> Alcotest.failf "%s: not an object" k

let str = function Str s -> s | _ -> Alcotest.fail "expected a string"
let list = function Arr l -> l | _ -> Alcotest.fail "expected an array"

(* dune runs the test from its build directory, two levels below the
   root that holds BENCHMARK.json. *)
let benchmark () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_json (really_input_string ic (in_channel_length ic)))

let named_units key j =
  List.map
    (fun m -> (str (field "name" m), str (field "unit" m)))
    (list (field key j))

let sorted l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let test_names_agree () =
  let j = benchmark () in
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    (List.map (fun w -> str (field "name" w)) (list (field "workloads" j)));
  let emitted traced =
    let r = run ~traced (List.hd small) in
    sorted (List.map (fun (m : Runner.metric) -> (m.name, m.unit_)) r.metrics)
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end"
    (sorted (named_units "end_to_end" j))
    (emitted false);
  Alcotest.check pairs "per_layer"
    (sorted (named_units "per_layer" j))
    (emitted true)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "apple_perf"
    [
      ( "stats",
        [
          case "tail rule" test_tail_rule;
          case "percentiles come from Apple_prelude.Stats"
            test_percentiles_are_prelude;
          case "chunk mean" test_chunk_mean;
          case "scaling exponent" test_scaling_exponent;
          case "closure" test_closure;
        ] );
      ( "workloads",
        List.map
          (fun (w : Workloads.t) ->
            case (w.name ^ " deterministic") (test_deterministic w))
          small );
      ( "slice",
        [
          case "replay matches Trace.run" test_replay_matches_trace_run;
          case "rejected admit keeps the fingerprint" test_rejection_is_pure;
        ] );
      ("names", [ case "BENCHMARK.json matches the runner" test_names_agree ]);
    ]
