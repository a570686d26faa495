(* Parser fuzz for the three operator text formats (policy file, chaos
   schedule, slice trace): damaged copies of each committed example must
   come back as [Ok] or [Error], never as an exception. *)

module B = Apple_topology.Builders

(* A committed example file; dune runtest runs from the test dir, dune
   exec from the root. *)
let example name =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "../examples" name; Filename.concat "examples" name ]
  in
  In_channel.with_open_bin path In_channel.input_all

(* [parse] answers [text] with [Ok] or [Error], never an exception. *)
let must_not_raise ~parse what text =
  match parse text with
  | Ok _ | Error _ -> ()
  | exception ex ->
      QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string ex)

(* Every truncation of [text], and at every byte one mutation drawn from
   [shift]. *)
let damaged ~parse ~shift text =
  let n = String.length text in
  for len = 0 to n - 1 do
    must_not_raise ~parse
      (Printf.sprintf "truncation to %d bytes" len)
      (String.sub text 0 len)
  done;
  for i = 0 to n - 1 do
    let b = Bytes.of_string text in
    let c = (Char.code text.[i] + 1 + ((shift + i) mod 255)) mod 256 in
    Bytes.set b i (Char.chr c);
    must_not_raise ~parse (Printf.sprintf "byte %d -> %d" i c) (Bytes.to_string b)
  done

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
      damaged ~parse:Apple_chaos.Fault.parse ~shift
        (example "chaos_internet2.sched");
      true)

let prop_slice_trace_parser_fuzz =
  QCheck.Test.make ~name:"slice trace parser never raises" ~count:5
    fuzz_shift (fun shift ->
      damaged ~parse:Apple_slice.Trace.parse ~shift
        (example "slices_internet2.trace");
      true)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_policy_parser_fuzz; prop_schedule_parser_fuzz; prop_slice_trace_parser_fuzz ]
