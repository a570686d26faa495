(* The work gate: what the benchmark's own operations cost, counted
   exactly.

   Each workload of [Workloads.all] is set up at seed 1 and runs exactly
   its [min_ops] operations: the window its digest covers, the runner's
   warm-up being op 0 of it.  The probe is untraced and Telemetry
   counts; tracing, the counter plane and the log level stay at their
   defaults.  One worker domain, because [Gc.minor_words] counts the
   calling domain only.

   tools/perf_work.txt commits one [<workload> <counter> <value>] line
   per count.  Counters must match exactly, zeros included; minor words
   may be at most [words_tolerance] over, a margin for another
   compiler's standard library.  Every count the gate reads needs a
   line and every line must name one, so no gap passes silently.  A
   change that moves a count on purpose commits the new one: a failing
   run prints every fresh line. *)

module T = Apple_telemetry.Telemetry

let committed_file = "tools/perf_work.txt"
let words = "gc.minor_words"
let words_tolerance = 0.03

let counters =
  [
    "apple.lp.solves";
    "apple.lp.pivots";
    "apple.lp.phase1_pivots";
    "apple.lp.phase1_reused";
    "apple.lp.reduced_costs";
    "apple.opt.pricing_passes";
    "apple.opt.lp_fallbacks";
    "apple.verify.walks";
    "apple.dataplane.walks";
    words;
  ]

(* ---- the committed file ---------------------------------------------- *)

type entry = { key : string * string; value : int; line : int }

(* Blank lines and [#] comments are skipped; any other line is a
   workload, a counter and a non-negative count, naming its (workload,
   counter) once. *)
let parse text =
  let rec go acc i = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
        let err fmt =
          Printf.ksprintf
            (fun m -> Error (Printf.sprintf "%s:%d: %s" committed_file i m))
            fmt
        in
        match String.split_on_char ' ' (String.trim l) with
        | [ "" ] -> go acc (i + 1) rest
        | w :: _ when w.[0] = '#' -> go acc (i + 1) rest
        | [ w; c; v ] -> (
            match
              (int_of_string_opt v, List.find_opt (fun e -> e.key = (w, c)) acc)
            with
            | Some value, None when value >= 0 ->
                go ({ key = (w, c); value; line = i } :: acc) (i + 1) rest
            | Some _, Some e -> err "%s %s repeats line %d" w c e.line
            | _ -> err "count %S is not a non-negative integer" v)
        | _ -> err "expected <workload> <counter> <value>, got %S" l)
  in
  go [] 1 (String.split_on_char '\n' text)

let render measured =
  String.concat ""
    (List.map (fun ((w, c), v) -> Printf.sprintf "%s %s %d\n" w c v) measured)

let within c ~committed got =
  if c = words then
    float_of_int got <= float_of_int committed *. (1.0 +. words_tolerance)
  else got = committed

(* Every disagreement between the file and the run: the lines naming no
   count the run has, then the run's counts in order. *)
let mismatches ~committed measured =
  List.filter_map
    (fun { key = w, c; line; _ } ->
      if List.mem_assoc (w, c) measured then None
      else
        Some
          (Printf.sprintf "%s:%d: the run counts no %s %s" committed_file line
             w c))
    committed
  @ List.filter_map
      (fun ((w, c), got) ->
        match List.find_opt (fun e -> e.key = (w, c)) committed with
        | None -> Some (Printf.sprintf "%s names no %s %s" committed_file w c)
        | Some e when within c ~committed:e.value got -> None
        | Some e ->
            Some
              (Printf.sprintf "%s %s: the run counted %d, line %d says %d%s" w
                 c got e.line e.value
                 (if c = words then " (+3% allowed)" else "")))
      measured

(* ---- the windows ----------------------------------------------------- *)

(* The failed operations and the counts of one workload's window. *)
let window (w : Workloads.t) =
  let session = w.setup ~jobs:1 ~seed:1 in
  let probe = Probe.create ~traced:false in
  T.reset ();
  let failed = ref [] in
  let fail i m =
    failed := Printf.sprintf "%s op %d: %s" w.name i m :: !failed
  in
  let words0 = Gc.minor_words () in
  for i = 0 to w.min_ops - 1 do
    match session.op probe with
    | _, Ok _ -> ()
    | _, Error m -> fail i m
    | exception e -> fail i (Printexc.to_string e)
  done;
  let minor = int_of_float (Gc.minor_words () -. words0) in
  let count c =
    if c = words then minor
    else Option.value ~default:0 (List.assoc_opt c (T.counters ()))
  in
  (List.rev !failed, List.map (fun c -> ((w.name, c), count c)) counters)

(* All four windows, once for every test below. *)
let measured =
  lazy
    (T.set_enabled true;
     let runs = List.map window Workloads.all in
     (List.concat_map fst runs, List.concat_map snd runs))

let counts () = snd (Lazy.force measured)

let test_gate () =
  List.iter Alcotest.fail (fst (Lazy.force measured));
  let text =
    In_channel.with_open_text ("../../" ^ committed_file) In_channel.input_all
  in
  match parse text with
  | Error m -> Alcotest.fail m
  | Ok committed -> (
      match mismatches ~committed (counts ()) with
      | [] -> ()
      | problems ->
          Alcotest.failf "%s\nthe run's counts:\n%s"
            (String.concat "\n" problems)
            (render (counts ())))

(* ---- the gate's own checks ------------------------------------------- *)

let test_malformed () =
  List.iter
    (fun bad ->
      let at = committed_file ^ ":4:" in
      match parse ("# header\n\ncold-reopt apple.lp.solves 200\n" ^ bad) with
      | Error m when String.starts_with ~prefix:at m -> ()
      | Error m -> Alcotest.failf "%S: %S does not start with %S" bad m at
      | Ok _ -> Alcotest.failf "%S parsed" bad)
    [
      "cold-reopt apple.lp.solves";
      "cold-reopt apple.lp.solves 200 1";
      "cold-reopt apple.lp.pivots 1.5";
      "cold-reopt apple.lp.pivots -1";
      "cold-reopt apple.lp.pivots many";
      "cold-reopt apple.lp.solves 200";
    ]

(* [text] must parse, then disagree with the run, or agree when [ok]. *)
let gate ?(ok = false) what text =
  match parse text with
  | Error m -> Alcotest.failf "%s: %s" what m
  | Ok committed ->
      let problems = mismatches ~committed (counts ()) in
      if ok <> List.is_empty problems then
        Alcotest.failf "%s: %s" what
          (if ok then String.concat "; " problems else "passed the gate")

let test_gaps () =
  let lines = List.map (fun l -> render [ l ]) (counts ()) in
  let text = String.concat "" lines in
  gate "a workload the run lacks" (text ^ "no-such-workload apple.lp.solves 0");
  gate "a counter the run lacks" (text ^ "cold-reopt apple.lp.no_such 0");
  List.iteri
    (fun i l ->
      gate ("a file without " ^ String.trim l)
        (String.concat "" (List.filteri (fun j _ -> j <> i) lines)))
    lines

let doctored key v =
  render (List.map (fun (k, v') -> (k, if k = key then v else v')) (counts ()))

let test_off_by_one () =
  List.iter
    (fun (((w, c) as key), v) ->
      if c <> words then
        List.iter
          (fun v -> gate (Printf.sprintf "%s %s %d" w c v) (doctored key v))
          (if v > 0 then [ v - 1; v + 1 ] else [ 1 ]))
    (counts ())

(* The smallest committed words whose limit covers the run passes, with
   the run's other counts as they are; one word less fails. *)
let test_words_limit () =
  List.iter
    (fun (((w, c) as key), got) ->
      if c = words then begin
        let least =
          int_of_float
            (Float.ceil (float_of_int got /. (1.0 +. words_tolerance)))
        in
        gate ~ok:true
          (Printf.sprintf "%s words %d" w least)
          (doctored key least);
        gate
          (Printf.sprintf "%s words %d" w (least - 1))
          (doctored key (least - 1))
      end)
    (counts ())

let () =
  Alcotest.run "work"
    [
      ( "gate",
        [
          Alcotest.test_case "each window's work equals tools/perf_work.txt"
            `Quick test_gate;
        ] );
      ( "gate-checks",
        [
          Alcotest.test_case "a malformed line names its number" `Quick
            test_malformed;
          Alcotest.test_case "a line missing or unknown fails" `Quick test_gaps;
          Alcotest.test_case "any count off by one fails" `Quick
            test_off_by_one;
          Alcotest.test_case "words over the 3% limit fail" `Quick
            test_words_limit;
        ] );
    ]
