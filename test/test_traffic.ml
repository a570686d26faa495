module M = Apple_traffic.Matrix
module S = Apple_traffic.Synth
module B = Apple_topology.Builders
module Rng = Apple_prelude.Rng
module Stats = Apple_prelude.Stats

let test_matrix_ops () =
  let a = M.zeros 3 in
  a.(0).(1) <- 2.0;
  a.(2).(0) <- 3.0;
  Alcotest.(check (float 1e-9)) "total" 5.0 (M.total a);
  let b = M.scale a 2.0 in
  Alcotest.(check (float 1e-9)) "scale" 10.0 (M.total b);
  Alcotest.(check (float 1e-9)) "original untouched" 5.0 (M.total a);
  let c = M.add a b in
  Alcotest.(check (float 1e-9)) "add" 15.0 (M.total c);
  Alcotest.(check (float 1e-9)) "max entry" 9.0 (M.max_entry (M.scale a 3.0))

let test_mean_of () =
  let a = M.zeros 2 and b = M.zeros 2 in
  a.(0).(1) <- 2.0;
  b.(0).(1) <- 4.0;
  let m = M.mean_of [ a; b ] in
  Alcotest.(check (float 1e-9)) "mean entry" 3.0 m.(0).(1);
  Alcotest.check_raises "empty" (Invalid_argument "Matrix.mean_of: empty list")
    (fun () -> ignore (M.mean_of []))

let test_gravity_total () =
  let rng = Rng.create 1 in
  let tm = S.gravity rng ~n:10 ~total:5000.0 in
  Alcotest.(check bool) "total preserved" true (abs_float (M.total tm -. 5000.0) < 1e-6)

let test_gravity_zero_diagonal () =
  let rng = Rng.create 2 in
  let tm = S.gravity rng ~n:8 ~total:100.0 in
  for i = 0 to 7 do
    Alcotest.(check (float 1e-12)) "diagonal" 0.0 tm.(i).(i)
  done

let test_gravity_nonnegative () =
  let rng = Rng.create 3 in
  let tm = S.gravity rng ~n:8 ~total:100.0 in
  Array.iter (Array.iter (fun v -> Alcotest.(check bool) "nonneg" true (v >= 0.0))) tm

let test_sequence_length_and_nonneg () =
  let rng = Rng.create 4 in
  let base = S.gravity rng ~n:6 ~total:1000.0 in
  let profile = { S.default_profile with S.snapshots = 50 } in
  let seq = S.sequence rng profile ~base in
  Alcotest.(check int) "snapshot count" 50 (List.length seq);
  List.iter
    (fun tm ->
      Array.iter (Array.iter (fun v -> Alcotest.(check bool) "nonneg" true (v >= 0.0))) tm)
    seq

let test_diurnal_cycle_visible () =
  let rng = Rng.create 5 in
  let base = S.gravity rng ~n:6 ~total:10_000.0 in
  let profile =
    {
      S.default_profile with
      S.snapshots = 96;
      period = 96;
      diurnal_depth = 0.5;
      mvr_scale = 0.0;
      burst_probability = 0.0;
    }
  in
  let seq = S.sequence rng profile ~base in
  let totals = Array.of_list (List.map M.total seq) in
  (* peak near t=24 (quarter cycle), trough near t=72 *)
  Alcotest.(check bool) "peak > trough" true (totals.(24) > totals.(72) *. 1.5)

let test_bursts_raise_max () =
  let rng1 = Rng.create 6 and rng2 = Rng.create 6 in
  let base = S.gravity (Rng.create 7) ~n:6 ~total:1000.0 in
  let quiet =
    { S.default_profile with S.snapshots = 100; burst_probability = 0.0; mvr_scale = 0.0; diurnal_depth = 0.0 }
  in
  let bursty = { quiet with S.burst_probability = 0.3; burst_factor = 10.0 } in
  let max_of profile rng =
    S.sequence rng profile ~base
    |> List.fold_left (fun acc tm -> max acc (M.max_entry tm)) 0.0
  in
  Alcotest.(check bool) "bursts visible" true
    (max_of bursty rng2 > max_of quiet rng1 *. 3.0)

let test_mvr_noise_scales () =
  let base = S.gravity (Rng.create 8) ~n:6 ~total:1000.0 in
  let profile scale =
    { S.default_profile with S.snapshots = 200; mvr_scale = scale; burst_probability = 0.0; diurnal_depth = 0.0 }
  in
  let variance_of scale seed =
    let seq = S.sequence (Rng.create seed) (profile scale) ~base in
    let entry = Array.of_list (List.map (fun tm -> tm.(0).(1)) seq) in
    Stats.variance entry
  in
  Alcotest.(check bool) "more mvr, more variance" true
    (variance_of 1.0 9 > variance_of 0.01 10)

let test_for_topology_masks_cores () =
  let univ1 = B.univ1 () in
  let rng = Rng.create 11 in
  let profile = { S.default_profile with S.snapshots = 3 } in
  let seq = S.for_topology rng profile univ1 in
  List.iter
    (fun tm ->
      (* core switches 0 and 1 neither send nor receive *)
      for j = 0 to M.size tm - 1 do
        Alcotest.(check (float 1e-12)) "core sends nothing" 0.0 tm.(0).(j);
        Alcotest.(check (float 1e-12)) "core receives nothing" 0.0 tm.(j).(1)
      done)
    seq

let test_for_topology_deterministic () =
  let named = B.internet2 () in
  let profile = { S.default_profile with S.snapshots = 5 } in
  let s1 = S.for_topology (Rng.create 42) profile named in
  let s2 = S.for_topology (Rng.create 42) profile named in
  List.iter2
    (fun a b ->
      Alcotest.(check (float 1e-12)) "same totals" (M.total a) (M.total b))
    s1 s2

let suite =
  [
    Alcotest.test_case "matrix ops" `Quick test_matrix_ops;
    Alcotest.test_case "mean_of" `Quick test_mean_of;
    Alcotest.test_case "gravity total" `Quick test_gravity_total;
    Alcotest.test_case "gravity zero diagonal" `Quick test_gravity_zero_diagonal;
    Alcotest.test_case "gravity nonnegative" `Quick test_gravity_nonnegative;
    Alcotest.test_case "sequence shape" `Quick test_sequence_length_and_nonneg;
    Alcotest.test_case "diurnal cycle" `Quick test_diurnal_cycle_visible;
    Alcotest.test_case "bursts" `Quick test_bursts_raise_max;
    Alcotest.test_case "mvr noise" `Quick test_mvr_noise_scales;
    Alcotest.test_case "topology masking" `Quick test_for_topology_masks_cores;
    Alcotest.test_case "deterministic" `Quick test_for_topology_deterministic;
  ]

(* ---- CSV I/O ---- *)

module Io = Apple_traffic.Io

let test_csv_roundtrip () =
  let rng = Rng.create 12 in
  let tm = S.gravity rng ~n:5 ~total:1234.5 in
  match Io.of_csv (Io.to_csv tm) with
  | Error e -> Alcotest.fail e
  | Ok tm' ->
      Alcotest.(check int) "size" (M.size tm) (M.size tm');
      for i = 0 to 4 do
        for j = 0 to 4 do
          Alcotest.(check bool) "entry" true
            (abs_float (tm.(i).(j) -. tm'.(i).(j)) < 1e-3)
        done
      done

let test_csv_rejects_garbage () =
  List.iter
    (fun (label, text) ->
      match Io.of_csv text with
      | Ok _ -> Alcotest.fail ("accepted " ^ label)
      | Error _ -> ())
    [
      ("empty", "");
      ("non-square", "1,2\n3,4,5\n");
      ("non-number", "1,x\n2,3\n");
      ("negative", "1,-2\n3,4\n");
      ("nan", "1,nan\n3,4\n");
    ];
  (* Errors name physical lines: comments and blank lines count. *)
  List.iter
    (fun (label, text, line) ->
      match Io.of_csv text with
      | Ok _ -> Alcotest.fail ("accepted " ^ label)
      | Error e ->
          let want = Printf.sprintf "line %d:" line in
          Alcotest.(check string) label want
            (String.sub e 0 (min (String.length e) (String.length want))))
    [
      ("non-number after a header", "# h\n1,2\n3,x\n", 3);
      ("non-square after a header", "# h\n1,2\n\n3,4,5\n", 4);
      ("short first row", "1\n2,3\n", 1);
    ]

let test_csv_comments_ignored () =
  match Io.of_csv "# a comment\n1,2\n# another\n3,4\n" with
  | Ok tm ->
      Alcotest.(check int) "2x2" 2 (M.size tm);
      Alcotest.(check (float 1e-9)) "entry" 3.0 tm.(1).(0)
  | Error e -> Alcotest.fail e

let test_file_roundtrip () =
  let rng = Rng.create 13 in
  let tm = S.gravity rng ~n:4 ~total:100.0 in
  let path = Filename.temp_file "apple_tm" ".csv" in
  Io.save tm ~path;
  (match Io.load ~path with
  | Ok tm' -> Alcotest.(check bool) "same total" true (abs_float (M.total tm -. M.total tm') < 1e-2)
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_sequence_roundtrip () =
  let rng = Rng.create 14 in
  let base = S.gravity rng ~n:4 ~total:100.0 in
  let seq = S.sequence rng { S.default_profile with S.snapshots = 5 } ~base in
  let dir = Filename.temp_file "apple_seq" "" in
  Sys.remove dir;
  Io.save_sequence seq ~dir;
  (match Io.load_sequence ~dir with
  | Ok seq' ->
      Alcotest.(check int) "count" 5 (List.length seq');
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "totals" true (abs_float (M.total a -. M.total b) < 1e-2))
        seq seq'
  | Error e -> Alcotest.fail e);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let io_suite =
  [
    Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv rejects garbage" `Quick test_csv_rejects_garbage;
    Alcotest.test_case "csv comments" `Quick test_csv_comments_ignored;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "sequence roundtrip" `Quick test_sequence_roundtrip;
  ]

let suite = suite @ io_suite
