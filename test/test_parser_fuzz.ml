(* Parser fuzz for every input format: the three operator text formats
   (policy file, chaos schedule, slice trace), traffic-matrix CSV and
   flight-recorder dumps.  Damaged copies of each must come back as [Ok]
   or [Error], never as an exception.  The chaos-schedule, slice-trace and
   CSV parsers must also name a line of the input in every [Error]; a
   policy-file error carries its line as a field, and a flight dump is
   binary. *)

module B = Apple_topology.Builders
module Flight = Apple_obs.Flight

(* A committed example file; dune runtest runs from the test dir, dune
   exec from the root. *)
let example name =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "../examples" name; Filename.concat "examples" name ]
  in
  In_channel.with_open_bin path In_channel.input_all

(* [parse] answers [text] with [Ok] or [Error], never an exception, and
   [located text e] holds of every [Error e]. *)
let must_not_raise ?(located = fun _ _ -> true) ~parse what text =
  match parse text with
  | Ok _ -> ()
  | Error e ->
      if not (located text e) then
        QCheck.Test.fail_reportf "%s: the error names no line of the input" what
  | exception ex ->
      QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string ex)

(* Every truncation of [text], and at every byte one mutation drawn from
   [shift]. *)
let damaged ?located ~parse ~shift text =
  let n = String.length text in
  for len = 0 to n - 1 do
    must_not_raise ?located ~parse
      (Printf.sprintf "truncation to %d bytes" len)
      (String.sub text 0 len)
  done;
  for i = 0 to n - 1 do
    let b = Bytes.of_string text in
    let c = (Char.code text.[i] + 1 + ((shift + i) mod 255)) mod 256 in
    Bytes.set b i (Char.chr c);
    must_not_raise ?located ~parse
      (Printf.sprintf "byte %d -> %d" i c)
      (Bytes.to_string b)
  done

(* [m] starts with "line N:" for a line N of [text]. *)
let names_line text m =
  match Scanf.sscanf_opt m "line %u:" Fun.id with
  | Some n -> 1 <= n && n <= List.length (String.split_on_char '\n' text)
  | None -> false

let is_digit c = c >= '0' && c <= '9'

(* [text] with each maximal digit run in turn replaced by [by]. *)
let renumbered text ~by =
  let n = String.length text in
  let rec runs i acc =
    if i >= n then List.rev acc
    else if is_digit text.[i] then begin
      let j = ref i in
      while !j < n && is_digit text.[!j] do incr j done;
      runs !j ((i, !j) :: acc)
    end
    else runs (i + 1) acc
  in
  List.map
    (fun (i, j) -> String.sub text 0 i ^ by ^ String.sub text j (n - j))
    (runs 0 [])

let fuzz_shift = QCheck.int_range 0 254

let prop_policy_parser_fuzz =
  QCheck.Test.make ~name:"policy-file parser never raises" ~count:5 fuzz_shift
    (fun shift ->
      let env = Apple_classifier.Predicate.env () in
      let parse = Apple_core.Policy_file.parse ~env ~topology:(B.internet2 ()) in
      let text = example "policies_internet2.txt" in
      damaged ~parse ~shift text;
      (* Numbers just past the 16-bit port and 8-bit protocol fields, an
         inverted range and a negative. *)
      List.iter
        (fun by ->
          List.iter
            (must_not_raise ~parse ("number -> " ^ by))
            (renumbered text ~by))
        [ "256"; "300"; "65536"; "70000"; "90-80"; "-1" ];
      true)

let prop_schedule_parser_fuzz =
  QCheck.Test.make ~name:"chaos schedule parser never raises" ~count:5
    fuzz_shift (fun shift ->
      (* The chaos drill, and the soak drill the same parser reads. *)
      List.iter
        (fun file ->
          damaged ~parse:Apple_chaos.Fault.parse ~located:names_line ~shift
            (example file))
        [ "chaos_internet2.sched"; "soak_internet2.soak" ];
      true)

let prop_slice_trace_parser_fuzz =
  QCheck.Test.make ~name:"slice trace parser never raises" ~count:5
    fuzz_shift (fun shift ->
      damaged ~parse:Apple_slice.Trace.parse ~located:names_line ~shift
        (example "slices_internet2.trace");
      true)

(* A gravity matrix drawn from [shift] as seed, as Io.to_csv writes it
   (comment header included).  Only input without a data row may fail
   without a line: it has no line to name. *)
let prop_tm_csv_fuzz =
  QCheck.Test.make ~name:"traffic-matrix CSV parser never raises" ~count:5
    fuzz_shift (fun shift ->
      let tm =
        Apple_traffic.Synth.gravity (Apple_prelude.Rng.create shift) ~n:5
          ~total:1500.0
      in
      let no_data_row text =
        List.for_all
          (fun l ->
            let l = String.trim l in
            l = "" || l.[0] = '#')
          (String.split_on_char '\n' text)
      in
      let located text m =
        names_line text m || (m = "empty matrix" && no_data_row text)
      in
      damaged ~parse:Apple_traffic.Io.of_csv ~located ~shift
        (Apple_traffic.Io.to_csv tm);
      true)

(* The bytes of a dump holding one event of each of a few kinds. *)
let flight_dump path =
  let saved = Apple_obs.Counters.enabled () in
  Flight.clear ();
  Apple_obs.Counters.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Apple_obs.Counters.set_enabled saved;
      Flight.clear ())
    (fun () ->
      Flight.record Flight.Walk_start ~a:1 ~b:2 ~c:3 ~d:4 ();
      Flight.record Flight.Rule_match ~a:1 ~b:0 ~c:12 ~d:1 ();
      Flight.record Flight.Violation ~a:2 ~b:1 ~c:(-1) ();
      Flight.record Flight.Blackhole ~a:1 ~b:5 ~c:(-1) ~d:2 ();
      Flight.dump ~path;
      In_channel.with_open_bin path In_channel.input_all)

let prop_flight_load_fuzz =
  QCheck.Test.make ~name:"flight dump loader never raises" ~count:5 fuzz_shift
    (fun shift ->
      let path = Filename.temp_file "apple-flight-fuzz" ".bin" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let parse bytes =
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
        Flight.load ~path
      in
      damaged ~parse ~shift (flight_dump path);
      true)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_policy_parser_fuzz;
      prop_schedule_parser_fuzz;
      prop_slice_trace_parser_fuzz;
      prop_tm_csv_fuzz;
      prop_flight_load_fuzz;
    ]
