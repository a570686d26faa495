(* The [apple] CLI driven through its built binary.  The option surface
   of every subcommand (names, short aliases, docvs, defaults and env
   vars) is pinned against [cli_surface.txt], so a refactor of the
   command definitions cannot silently change what an operator types.
   Every report-writing option refuses a missing parent directory before
   any work, and the subcommands no other check runs get a smoke run. *)

module Goldens = Apple_chaos.Goldens

let exe = Filename.concat ".." (Filename.concat "bin" "apple_cli.exe")

let slurp path = In_channel.with_open_bin path In_channel.input_all

type outcome = { code : int; out : string; err : string }

let run args =
  let out = Filename.temp_file "apple-cli" ".out" in
  let err = Filename.temp_file "apple-cli" ".err" in
  Fun.protect ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
  @@ fun () ->
  let code =
    Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args)
  in
  { code; out = slurp out; err = slurp err }

let subcommands =
  [ "experiment"; "solve"; "verify"; "replay"; "policies"; "top"; "trace";
    "chaos"; "failover"; "soak"; "slice"; "profile"; "topologies" ]

(* The header line of every positional argument and option in [cmd]'s
   plain-text help, without the prose below it. *)
let surface cmd =
  let r = run [ cmd; "--help=plain" ] in
  if r.code <> 0 then Alcotest.failf "%s --help=plain exited %d" cmd r.code;
  let header l =
    String.length l > 7 && String.sub l 0 7 = "       " && l.[7] <> ' '
  in
  let _, lines =
    List.fold_left
      (fun (section, acc) l ->
        if l <> "" && l.[0] <> ' ' then (l, acc)
        else if (section = "ARGUMENTS" || section = "OPTIONS") && header l
        then (section, String.trim l :: acc)
        else (section, acc))
      ("", [])
      (String.split_on_char '\n' r.out)
  in
  String.concat "\n" (("[" ^ cmd ^ "]") :: List.rev lines) ^ "\n"

let test_surface () =
  let actual = String.concat "" (List.map surface subcommands) in
  match Goldens.diff ~expected:(slurp "cli_surface.txt") ~actual with
  | "" -> ()
  | d -> Alcotest.failf "the CLI surface drifted from cli_surface.txt:\n%s" d

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let policies =
  Filename.concat ".." (Filename.concat "examples" "policies_internet2.txt")

(* Each subcommand with arguments that keep a full run short, and its
   options that write a file (or, for --state-dir, create a directory). *)
let output_options =
  [
    ([ "experiment"; "table4" ], [ "--metrics-out" ]);
    ([ "solve" ], [ "--metrics-out"; "--trace-out" ]);
    ([ "verify" ], [ "--metrics-out"; "--flight-out" ]);
    ([ "replay"; "--snapshots"; "2" ], [ "--metrics-out" ]);
    ([ "policies"; policies ], [ "--metrics-out" ]);
    ([ "top" ], [ "--metrics-out"; "--flight-out" ]);
    ([ "chaos" ], [ "--metrics-out"; "--trace-out"; "--flight-out" ]);
    ([ "failover" ], [ "--metrics-out" ]);
    ( [ "soak"; "--epochs"; "2" ],
      [ "--metrics-out"; "--trace-out"; "--flight-out"; "--summary-out";
        "--bench-json"; "--stream"; "--state-dir" ] );
    ([ "slice" ], [ "--metrics-out"; "--trace-out" ]);
    ([ "profile"; "--scale"; "0.05" ], [ "--metrics-out"; "--trace-out" ]);
  ]

(* cmdliner wraps its error messages: compare with whitespace collapsed. *)
let squash s =
  String.split_on_char ' ' (String.map (function '\n' -> ' ' | c -> c) s)
  |> List.filter (fun w -> w <> "")
  |> String.concat " "

let test_missing_output_dir () =
  List.iter
    (fun (args, options) ->
      List.iter
        (fun opt ->
          let args = args @ [ opt; "/nonexistent/d/out" ] in
          let line = String.concat " " args in
          let r = run args in
          Alcotest.(check int) (line ^ ": exit code") 124 r.code;
          Alcotest.(check string) (line ^ ": no work done") "" r.out;
          if
            not
              (contains (squash r.err)
                 "parent directory /nonexistent/d does not exist")
          then
            Alcotest.failf "%s: stderr does not name the directory:\n%s" line
              r.err)
        options)
    output_options

let smoke args expected () =
  let r = run args in
  let line = String.concat " " args in
  Alcotest.(check int) (line ^ ": exit code") 0 r.code;
  if not (contains r.out expected) then
    Alcotest.failf "%s: no %S in stdout:\n%s" line expected r.out

(* A traffic matrix the parser rejects is an error naming the file and
   the physical line (header comment counted), not an uncaught
   exception. *)
let test_bad_tm_file () =
  let path = Filename.temp_file "apple-tm" ".csv" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "# h\n1,2\n3,x\n");
  let r = run [ "solve"; "-t"; "internet2"; "--tm"; path ] in
  Alcotest.(check int) "exit code" 124 r.code;
  Alcotest.(check string) "no report" "" r.out;
  let want = path ^ ": line 3:" in
  if not (contains (squash r.err) want) then
    Alcotest.failf "stderr does not contain %S:\n%s" want r.err

let suite =
  [
    Alcotest.test_case "every subcommand keeps its options" `Quick test_surface;
    Alcotest.test_case "a missing output directory fails before any work"
      `Quick test_missing_output_dir;
    Alcotest.test_case "topologies lists the paper topologies" `Quick
      (smoke [ "topologies" ] "AS-3679");
    Alcotest.test_case "replay runs a short trace" `Quick
      (smoke
         [ "replay"; "-t"; "internet2"; "--snapshots"; "8" ]
         "loss (fast failover)");
    Alcotest.test_case "policies certifies the example file" `Quick
      (smoke [ "policies"; policies; "--verify" ] "verified:");
    Alcotest.test_case "profile prints the attribution table" `Quick
      (smoke [ "profile"; "--scale"; "0.05" ] "APPLE profile");
    Alcotest.test_case "solve names the bad line of a TM file" `Quick
      test_bad_tm_file;
  ]
