(* Differential regression: every golden artifact re-renders
   byte-identically.  On drift the failure message carries a unified
   diff; refresh intentionally with [make goldens] and review the diff
   like any other code change (see README). *)

module Goldens = Apple_chaos.Goldens

let check_entry (name, render) () =
  let path = Filename.concat "goldens" (name ^ ".txt") in
  match Goldens.check ~path ~actual:(render ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_diff_format () =
  Alcotest.(check string)
    "equal texts diff to empty" ""
    (Goldens.diff ~expected:"a\nb\n" ~actual:"a\nb\n");
  let d = Goldens.diff ~expected:"a\nb\nc\n" ~actual:"a\nx\nc\n" in
  Alcotest.(check string) "readable unified diff" "  a\n- b\n+ x\n  c\n" d

(* An empty golden against real output must show every line as added —
   not claim equality (the empty file splits to zero lines). *)
let test_empty_golden_diff () =
  Alcotest.(check string)
    "all lines added" "+ x\n+ y\n"
    (Goldens.diff ~expected:"" ~actual:"x\ny\n");
  Alcotest.(check string)
    "all lines removed" "- x\n- y\n"
    (Goldens.diff ~expected:"x\ny\n" ~actual:"")

(* Texts that differ only in the trailing newline split into identical
   line arrays; the diff must say so explicitly instead of rendering a
   dump with no - / + markers. *)
let test_trailing_newline_diff () =
  let d = Goldens.diff ~expected:"a\nb" ~actual:"a\nb\n" in
  Alcotest.(check string)
    "explicit trailing-newline message"
    "(no line differs: the texts disagree only on the trailing newline)\n" d;
  let d' = Goldens.diff ~expected:"a\nb\n" ~actual:"a\nb" in
  Alcotest.(check string) "symmetric" d d'

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1)) in
  go 0

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* A missing golden must point at `make goldens`, not just error out. *)
let test_missing_golden_names_refresh () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "no_such_golden.txt" in
  if Sys.file_exists path then Sys.remove path;
  match Goldens.check ~path ~actual:"anything\n" with
  | Ok () -> Alcotest.fail "missing golden accepted"
  | Error msg ->
      Alcotest.(check bool)
        "names make goldens" true
        (contains ~needle:"make goldens" msg);
      Alcotest.(check bool) "names the path" true (contains ~needle:path msg)

(* A stale golden must fail with the drift diff and the refresh hint. *)
let test_stale_golden_names_refresh () =
  let path = Filename.temp_file "apple_golden" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "old line\n";
      (match Goldens.check ~path ~actual:"new line\n" with
      | Ok () -> Alcotest.fail "stale golden accepted"
      | Error msg ->
          Alcotest.(check bool)
            "names make goldens" true
            (contains ~needle:"make goldens" msg);
          Alcotest.(check bool)
            "carries the diff" true
            (contains ~needle:"- old line" msg
            && contains ~needle:"+ new line" msg));
      (* An empty recorded golden behaves like any other stale golden. *)
      write_file path "";
      (match Goldens.check ~path ~actual:"fresh\n" with
      | Ok () -> Alcotest.fail "empty golden accepted non-empty output"
      | Error msg ->
          Alcotest.(check bool)
            "empty golden shows additions" true
            (contains ~needle:"+ fresh" msg));
      (* And matching output still passes against an empty golden. *)
      match Goldens.check ~path ~actual:"" with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("empty golden vs empty output: " ^ msg))

let suite =
  [
    Alcotest.test_case "diff format" `Quick test_diff_format;
    Alcotest.test_case "empty golden diff" `Quick test_empty_golden_diff;
    Alcotest.test_case "trailing newline diff" `Quick test_trailing_newline_diff;
    Alcotest.test_case "missing golden names make goldens" `Quick
      test_missing_golden_names_refresh;
    Alcotest.test_case "stale golden names make goldens" `Quick
      test_stale_golden_names_refresh;
  ]
  @ List.map
      (fun entry ->
        Alcotest.test_case ("golden " ^ fst entry) `Quick (check_entry entry))
      Goldens.entries
