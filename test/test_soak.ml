(* Soak harness: endurance-run invariants, checkpoint round-trips and
   the byte-identical resume guarantee, at miniature scale (a 24-snapshot
   cycle instead of 672 keeps each case well under a second). *)

module Soak = Apple_soak.Soak
module Checkpoint = Apple_soak.Checkpoint
module Fault = Apple_chaos.Fault
module B = Apple_topology.Builders

let mini ?(seed = 7) ?(epochs = 36) ?(load_source = Soak.Oracle)
    ?(schedule = Fault.empty) ?jobs ?(engine = `Best) () =
  {
    (Soak.default_config (B.internet2 ())) with
    Soak.seed;
    epochs;
    reopt_every = 12;
    cycle = 24;
    total_rate = 2500.0;
    max_classes = 10;
    heal_after = 2;
    engine;
    jobs;
    load_source;
    schedule;
  }

let drill =
  match
    Fault.parse
      "at 14 kill-instance hottest\nat 20 link-down busiest\nat 27 link-up \
       busiest"
  with
  | Ok s -> s
  | Error e -> invalid_arg ("drill schedule: " ^ e)

let session cfg =
  match Soak.create cfg with
  | Ok s -> s
  | Error e -> Alcotest.failf "Soak.create: %s" e

(* Throwaway state dirs for checkpoint-writing runs. *)
let with_tmpdir f =
  let dir = Filename.temp_file "apple_soak" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1)) in
  go 0

(* A checkpoint rendering without its trailing digest line, and a body
   re-sealed with a fresh digest (to get past the integrity check and
   reach the field parser). *)
let body_of str =
  let trimmed = String.sub str 0 (String.length str - 1) in
  String.sub str 0 (String.rindex trimmed '\n' + 1)

let redigest body =
  body ^ Printf.sprintf "digest %s\n" (Digest.to_hex (Digest.string body))

(* --- unit tests ---------------------------------------------------- *)

let test_mini_run_clean () =
  let o = Soak.run (session (mini ~schedule:drill ())) in
  Alcotest.(check bool) "completed" true o.Soak.completed;
  Alcotest.(check int) "all epochs" 36 o.Soak.epochs_run;
  Alcotest.(check (list string)) "no violations" [] o.Soak.violations;
  Alcotest.(check bool)
    "stream ends with the summary line" true
    (contains ~needle:"\nS epochs=36 violations=0\n" o.Soak.stream);
  Alcotest.(check bool)
    "summary says completed" true
    (contains ~needle:"status: completed" o.Soak.summary)

let test_validate_config () =
  (match Soak.validate_config (mini ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mini config invalid: %s" e);
  (match Soak.validate_config { (mini ()) with Soak.epochs = 0 } with
  | Ok () -> Alcotest.fail "accepted zero epochs"
  | Error _ -> ());
  (* Fault times must be integral epochs in soak (unlike chaos seconds). *)
  let frac = Fault.add Fault.empty ~at:14.5 (Fault.Kill_instance Fault.Hottest) in
  match Soak.validate_config { (mini ()) with Soak.schedule = frac } with
  | Ok () -> Alcotest.fail "accepted fractional epoch"
  | Error e -> Alcotest.(check bool) "names the time" true (contains ~needle:"14.5" e)

let test_checkpoint_parse_errors () =
  let sess = session (mini ()) in
  ignore (Soak.run ~halt_at:12 sess);
  Alcotest.(check bool) "boundary checkpointable" true (Soak.checkpointable sess);
  let ck =
    match Soak.checkpoint_now sess with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "checkpoint_now: %s" e
  in
  let str = Checkpoint.to_string ck in
  (match Checkpoint.of_string str with
  | Ok ck' ->
      Alcotest.(check int) "epoch survives" ck.Checkpoint.epoch ck'.Checkpoint.epoch
  | Error e -> Alcotest.failf "round-trip parse: %s" e);
  (* Flip one digest character: refused. *)
  let corrupt = Bytes.of_string str in
  let last = Bytes.length corrupt - 2 in
  Bytes.set corrupt last (if Bytes.get corrupt last = '0' then '1' else '0');
  (match Checkpoint.of_string (Bytes.to_string corrupt) with
  | Ok _ -> Alcotest.fail "corrupt digest accepted"
  | Error e -> Alcotest.(check bool) "names digest" true (contains ~needle:"digest" e));
  (* Unknown version: refused. *)
  (match Checkpoint.of_string "apple-soak-ckpt/999\n" with
  | Ok _ -> Alcotest.fail "bad version accepted"
  | Error _ -> ());
  (* The previous format, re-sealed so the digest passes: refused by
     the version check. *)
  let body = body_of str in
  let v2 = "apple-soak-ckpt/2\n" in
  let n = String.length v2 in
  Alcotest.(check string) "current header" v2 (String.sub body 0 n);
  let v1 =
    "apple-soak-ckpt/1\n" ^ String.sub body n (String.length body - n)
  in
  (match Checkpoint.of_string (redigest v1) with
  | Ok _ -> Alcotest.fail "apple-soak-ckpt/1 accepted"
  | Error e ->
      Alcotest.(check bool)
        ("version error: " ^ e) true
        (contains ~needle:"line 1: unsupported checkpoint version" e));
  (* A malformed line under a valid digest: the error names its line. *)
  let misnamed =
    String.concat "\n"
      (List.mapi
         (fun i l -> if i = 2 then "epoc 12" else l)
         (String.split_on_char '\n' body))
  in
  (match Checkpoint.of_string (redigest misnamed) with
  | Ok _ -> Alcotest.fail "misnamed epoch line accepted"
  | Error e ->
      Alcotest.(check bool)
        ("line-numbered: " ^ e) true
        (contains ~needle:"checkpoint: line 3: expected \"epoch\" line" e));
  (* Restoring under a different config: fingerprint mismatch. *)
  match Soak.restore (mini ~seed:8 ()) ck with
  | Ok _ -> Alcotest.fail "fingerprint mismatch accepted"
  | Error e ->
      Alcotest.(check bool) "names fingerprint" true (contains ~needle:"fingerprint" e)

(* Kill at 11 heals at 13, but the epoch-12 re-optimization supersedes
   the heal: the boundary drops it ("D 12 drop-heal") and is then
   checkpointed like any other.  Resuming from that checkpoint after a
   kill at 17 reproduces the drop line and the uninterrupted stream. *)
let test_checkpoint_after_dropped_heal () =
  let schedule =
    match Fault.parse "at 11 kill-instance hottest" with
    | Ok s -> s
    | Error e -> invalid_arg e
  in
  let cfg = mini ~schedule () in
  let sess = session cfg in
  let full = Soak.run sess in
  Alcotest.(check (list int)) "every boundary checkpointed" [ 12; 24; 36 ]
    (Soak.checkpoint_epochs sess);
  Alcotest.(check (list string)) "no violations" [] full.Soak.violations;
  Alcotest.(check bool) "heal dropped at the boundary" true
    (contains ~needle:"\nD 12 drop-heal id=" full.Soak.stream);
  with_tmpdir @@ fun dir ->
  let stream_path = Filename.concat dir "stream.log" in
  let killed =
    match Soak.create ~stream_path cfg with
    | Ok s -> s
    | Error e -> Alcotest.failf "Soak.create: %s" e
  in
  ignore (Soak.run ~halt_at:17 ~state_dir:dir killed);
  match Soak.resume_dir cfg ~dir with
  | Error e -> Alcotest.failf "resume_dir: %s" e
  | Ok resumed ->
      Alcotest.(check int) "resumed at the boundary" 12 (Soak.epoch resumed);
      let o = Soak.run ~state_dir:dir resumed in
      Alcotest.(check bool) "drop line survives resume" true
        (contains ~needle:"\nD 12 drop-heal id=" o.Soak.stream);
      Alcotest.(check string) "stream identical" full.Soak.stream o.Soak.stream;
      Alcotest.(check string) "summary identical" full.Soak.summary
        o.Soak.summary

let test_checkpoints_on_boundaries_only load_source () =
  with_tmpdir @@ fun dir ->
  let sess = session (mini ~load_source ~schedule:drill ()) in
  let o = Soak.run ~state_dir:dir sess in
  Alcotest.(check bool) "completed" true o.Soak.completed;
  Alcotest.(check (list string)) "no violations" [] o.Soak.violations;
  Alcotest.(check (list int)) "one checkpoint per boundary" [ 12; 24; 36 ]
    (Soak.checkpoint_epochs sess)

let test_jobs_variation_identical () =
  List.iter
    (fun engine ->
      let run jobs =
        Soak.run (session (mini ~engine ?jobs ~schedule:drill ()))
      in
      let a = run None and b = run (Some 3) in
      Alcotest.(check string) "stream identical" a.Soak.stream b.Soak.stream;
      Alcotest.(check string) "summary identical" a.Soak.summary b.Soak.summary)
    [ `Greedy; `Best ]

(* Faults landing exactly on a re-optimization boundary (epoch mod
   reopt_every = 0) hit the trickiest ordering in the epoch step:
   start_window re-solves first, then heals are processed, then the
   fault injects into the freshly installed window.  The run must stay
   clean and byte-identical across repeats and jobs values. *)
let boundary_drill =
  match
    Fault.parse
      "at 12 kill-instance hottest\n\
       at 24 link-down busiest\n\
       at 30 link-up busiest"
  with
  | Ok s -> s
  | Error e -> invalid_arg ("boundary drill: " ^ e)

let test_chaos_at_boundary_deterministic () =
  let run jobs =
    Soak.run (session (mini ~engine:`Best ?jobs ~schedule:boundary_drill ()))
  in
  let a = run None in
  Alcotest.(check (list string)) "no violations" [] a.Soak.violations;
  Alcotest.(check int) "all epochs ran" 36 a.Soak.epochs_run;
  (* both faults actually fired *)
  Alcotest.(check bool) "kill fired at the boundary" true
    (contains ~needle:"F 12 kill-instance" a.Soak.stream);
  Alcotest.(check bool) "link-down fired at the boundary" true
    (contains ~needle:"F 24 link-down" a.Soak.stream);
  let b = run None and c = run (Some 3) in
  Alcotest.(check string) "repeat identical" a.Soak.stream b.Soak.stream;
  Alcotest.(check string) "jobs identical" a.Soak.stream c.Soak.stream;
  Alcotest.(check string) "summary identical" a.Soak.summary c.Soak.summary

let test_bench_json_shape () =
  let sess = session (mini ()) in
  let o = Soak.run sess in
  let j = Soak.bench_json sess o in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~needle j))
    [
      "\"schema\": \"apple-bench-soak/1\"";
      "\"trajectory\": [";
      "\"totals\": {";
      "\"completed\": true";
    ]

(* --- properties ----------------------------------------------------- *)

let schedule_of = function
  | 0 -> Fault.empty
  | 1 -> drill
  | _ -> (
      match Fault.parse "at 9 tcam-loss busiest 0.3\nat 16 poller-blackout 2" with
      | Ok s -> s
      | Error e -> invalid_arg e)

(* restore (checkpoint st) == st: the rebuilt controller state carries
   the same fingerprint (assignment dump, rule tables, handler counters,
   failure mask) as the live session it was taken from.  Checkpoints
   deliberately carry no controller state (the next re-optimization
   recreates it), so both sessions advance one epoch first. *)
let prop_checkpoint_roundtrip =
  QCheck.Test.make ~name:"checkpoint round-trip preserves state" ~count:8
    QCheck.(triple (int_range 0 1000) (int_range 0 2) (int_range 1 3))
    (fun (seed, sched, window) ->
      let halt = 12 * window in
      let cfg = mini ~seed ~epochs:48 ~schedule:(schedule_of sched) () in
      let sess = session cfg in
      let o = Soak.run ~halt_at:halt sess in
      if not (Soak.checkpointable sess) then
        (* A re-optimization was rejected earlier in the run, so no
           boundary is checkpointable any more.  Vacuous draw. *)
        true
      else
        match Soak.checkpoint_now sess with
        | Error e -> QCheck.Test.fail_reportf "checkpoint_now: %s" e
        | Ok ck -> (
            match Checkpoint.of_string (Checkpoint.to_string ck) with
            | Error e -> QCheck.Test.fail_reportf "parse: %s" e
            | Ok ck' -> (
                match Soak.restore ~stream_prefix:o.Soak.stream cfg ck' with
                | Error e -> QCheck.Test.fail_reportf "restore: %s" e
                | Ok sess' ->
                    ignore (Soak.run ~halt_at:(halt + 1) sess);
                    ignore (Soak.run ~halt_at:(halt + 1) sess');
                    String.equal
                      (Soak.state_fingerprint sess)
                      (Soak.state_fingerprint sess'))))

(* Checkpoint at epoch k, kill, resume: the continued run's stream and
   summary are byte-identical to an uninterrupted run — across seeds,
   halt points, schedules, and the polled load source. *)
let prop_resume_equals_uninterrupted =
  QCheck.Test.make ~name:"resume reproduces the uninterrupted run" ~count:6
    QCheck.(
      quad (int_range 0 1000) (int_range 12 35) (int_range 0 2) bool)
    (fun (seed, halt, sched, polled) ->
      let load_source = if polled then Soak.Polled else Soak.Oracle in
      (* The drill's symbolic link faults need oracle determinism at the
         polled sampling points too; both sources must replay cleanly. *)
      let cfg = mini ~seed ~load_source ~schedule:(schedule_of sched) () in
      let uninterrupted = Soak.run (session cfg) in
      with_tmpdir @@ fun dir ->
      let stream_path = Filename.concat dir "stream.log" in
      let killed =
        match Soak.create ~stream_path cfg with
        | Ok s -> s
        | Error e -> invalid_arg ("Soak.create: " ^ e)
      in
      ignore (Soak.run ~halt_at:halt ~state_dir:dir killed);
      if not (Sys.file_exists (Filename.concat dir "checkpoint.apple")) then
        (* A rejected re-optimization before the first boundary leaves
           nothing to resume from; the property is vacuous for this draw. *)
        true
      else
        match Soak.resume_dir cfg ~dir with
        | Error e -> QCheck.Test.fail_reportf "resume_dir: %s" e
        | Ok resumed ->
            let o = Soak.run ~state_dir:dir resumed in
            String.equal uninterrupted.Soak.stream o.Soak.stream
            && String.equal uninterrupted.Soak.summary o.Soak.summary)

(* The parser never raises and never accepts a damaged file: every
   truncation and every single-byte mutation of a real checkpoint
   (halted at 24, so the drill's link fault is still open) is an
   [Error] that names a line of the damaged file. *)
let prop_checkpoint_parser_fuzz =
  QCheck.Test.make ~name:"damaged checkpoints are refused" ~count:4
    QCheck.(triple (int_range 0 1000) (int_range 0 2) (int_range 0 254))
    (fun (seed, sched, shift) ->
      let sess = session (mini ~seed ~schedule:(schedule_of sched) ()) in
      ignore (Soak.run ~halt_at:24 sess);
      let str =
        match Soak.checkpoint_now sess with
        | Ok ck -> Checkpoint.to_string ck
        | Error e -> QCheck.Test.fail_reportf "checkpoint_now: %s" e
      in
      let refused what s =
        match Checkpoint.of_string s with
        | Ok _ -> QCheck.Test.fail_reportf "%s accepted" what
        | Error m -> (
            let lines = List.length (String.split_on_char '\n' s) in
            match Scanf.sscanf_opt m "checkpoint: line %u:" Fun.id with
            | Some n when 1 <= n && n <= lines -> ()
            | Some _ | None ->
                QCheck.Test.fail_reportf "%s: %S names no line of the file"
                  what m)
        | exception ex ->
            QCheck.Test.fail_reportf "%s raised %s" what
              (Printexc.to_string ex)
      in
      let n = String.length str in
      for len = 0 to n - 1 do
        refused (Printf.sprintf "truncation to %d bytes" len)
          (String.sub str 0 len)
      done;
      for i = 0 to n - 1 do
        let b = Bytes.of_string str in
        let c = (Char.code str.[i] + 1 + ((shift + i) mod 255)) mod 256 in
        Bytes.set b i (Char.chr c);
        refused (Printf.sprintf "byte %d -> %d" i c) (Bytes.to_string b)
      done;
      true)

let suite =
  [
    Alcotest.test_case "mini endurance run is clean" `Quick test_mini_run_clean;
    Alcotest.test_case "config validation" `Quick test_validate_config;
    Alcotest.test_case "checkpoint parse errors" `Quick test_checkpoint_parse_errors;
    Alcotest.test_case "checkpoint after a dropped heal" `Quick
      test_checkpoint_after_dropped_heal;
    Alcotest.test_case "polled checkpoints land on boundaries" `Quick
      (test_checkpoints_on_boundaries_only Soak.Polled);
    Alcotest.test_case "oracle checkpoints land on boundaries" `Quick
      (test_checkpoints_on_boundaries_only Soak.Oracle);
    Alcotest.test_case "jobs variation is byte-identical" `Quick
      test_jobs_variation_identical;
    Alcotest.test_case "chaos at a re-opt boundary is deterministic" `Quick
      test_chaos_at_boundary_deterministic;
    Alcotest.test_case "bench_json shape" `Quick test_bench_json_shape;
    QCheck_alcotest.to_alcotest prop_checkpoint_roundtrip;
    QCheck_alcotest.to_alcotest prop_resume_equals_uninterrupted;
    QCheck_alcotest.to_alcotest prop_checkpoint_parser_fuzz;
  ]
