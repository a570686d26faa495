module T = Apple_telemetry.Telemetry
module S = Apple_prelude.Stats

type metric = { name : string; value : float; unit_ : string }

type report = {
  workload : string;
  attempted : int;
  failed : int;
  errors : string list;
  latency : Measure.summary;
  digest : string;
  metrics : metric list;
}

let default_jobs () = min 2 (Domain.recommended_domain_count ())

(* Untraced runs set up at least three times and, while set-up is cheap,
   until a second has passed (at most nine times); setup_s is the
   median. *)
let more_setups ~count ~spent = count < 3 || (spent < 1.0 && count < 9)

(* Per-op figures are over the timed operations; an empty series reads
   as zero (the layer was not on this workload's path). *)
let ratio num den = if den > 0.0 then num /. den else 0.0
let mean_or_zero xs = if Array.length xs = 0 then 0.0 else S.mean xs
let max_or_zero xs = if Array.length xs = 0 then 0.0 else S.maximum xs

let counter name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name (T.counters ())))

let layer_metrics probe ~ops ~busy ~gc_minor ~gc_major =
  let n = float_of_int ops in
  let sum = Probe.sum probe and samples = Probe.samples probe in
  let fit key =
    Option.value ~default:0.0
      (Measure.scaling_exponent (Probe.points probe key))
  in
  let admits = sum "admits" in
  let unattributed =
    (* Re-optimizations close against run_epoch; every other operation
       is made of its timed calls, so it closes against its own
       duration. *)
    match samples "unattributed" with
    | [||] ->
        Measure.unattributed ~stages:(Probe.busy_total probe) ~total:busy
    | xs -> S.median xs
  in
  List.map
    (fun l ->
      ( Probe.layer_name l ^ ".share",
        "fraction",
        ratio (Probe.busy probe l) busy ))
    Probe.layers
  @ [
      ("optimization_engine.lp_kept_ratio", "fraction",
       ratio (sum "lp_kept") (sum "solves"));
      ("optimization_engine.scaling_exp", "exponent",
       fit "optimization_engine");
      ("lp.pivots_per_op", "count", ratio (counter "apple.lp.pivots") n);
      ("lp.solves_per_op", "count", ratio (counter "apple.lp.solves") n);
      ("subclass.subclasses_mean", "count",
       mean_or_zero (samples "subclasses"));
      ("rule_generator.vswitch_rules_mean", "count",
       mean_or_zero (samples "vswitch_rules"));
      ("verify.walks_per_op", "count", ratio (counter "apple.verify.walks") n);
      ("verify.scaling_exp", "exponent", fit "verify");
      ("dynamic_handler.events_per_op", "count",
       ratio (sum "handler_events") n);
      ("dataplane.walks_per_op", "count", ratio (sum "walks") n);
      ("netstate.mean_loss", "fraction", mean_or_zero (samples "loss"));
      ("slice.admit_ratio", "fraction", ratio (sum "admitted") admits);
      ("slice.reject_capacity_ratio", "fraction",
       ratio (sum "reject_capacity") admits);
      ("slice.reject_tag_space_ratio", "fraction",
       ratio (sum "reject_tag-space") admits);
      ("slice.reject_verifier_ratio", "fraction",
       ratio (sum "reject_verifier") admits);
      ("slice.depart_refused_ratio", "fraction",
       ratio (sum "depart_refused") (sum "departs"));
      ("slice.residents_max", "count", max_or_zero (samples "residents"));
      ("gc.minor_mwords_per_op", "Mwords", gc_minor /. 1e6 /. n);
      ("gc.major_collections_per_op", "count", gc_major /. n);
      ("unattributed_share", "fraction", unattributed);
    ]

let named = List.map (fun (name, unit_, value) -> { name; value; unit_ })

let heap_mb () =
  let words = (Gc.quick_stat ()).top_heap_words in
  float_of_int (words * (Sys.word_size / 8)) /. 1e6

let run ?(jobs = default_jobs ()) (w : Workloads.t) ~seed ~seconds ~traced =
  let setup_times, session =
    let rec go acc =
      let session, dt = Measure.time (fun () -> w.setup ~jobs ~seed) in
      let acc = dt :: acc in
      let spent = List.fold_left ( +. ) 0.0 acc in
      if traced || not (more_setups ~count:(List.length acc) ~spent) then
        (acc, session)
      else go acc
    in
    go []
  in
  if traced then T.set_enabled true;
  let digest = Buffer.create 4096 in
  Buffer.add_string digest session.describe;
  Buffer.add_char digest '\n';
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let installed = ref [] and latencies = ref [] in
  let busy = ref 0.0 and gc_minor = ref 0.0 and gc_major = ref 0 in
  (* Read once the deterministic prefix is done, so it does not depend
     on how many operations the time budget allowed. *)
  let peak_heap = ref 0.0 in
  let step probe ~timed =
    let i = !attempted in
    incr attempted;
    let prefix = i < w.min_ops in
    let g0 = Gc.quick_stat () in
    let fail m =
      incr failed;
      errors := Printf.sprintf "op %d: %s" i m :: !errors;
      if prefix then Printf.bprintf digest "FAILED %s\n" m
    in
    (match session.op probe with
    | exception e -> fail (Printexc.to_string e)
    | _, Error m -> fail m
    | dt, Ok o ->
        if timed then begin
          latencies := dt :: !latencies;
          busy := !busy +. dt
        end;
        List.iter (Probe.sample probe "loss") o.loss;
        if prefix then begin
          Buffer.add_string digest o.line;
          Buffer.add_char digest '\n';
          Option.iter (fun x -> installed := x :: !installed) o.installed
        end);
    if i = w.min_ops - 1 then peak_heap := heap_mb ();
    if timed then begin
      let g1 = Gc.quick_stat () in
      gc_minor := !gc_minor +. (g1.minor_words -. g0.minor_words);
      gc_major := !gc_major + (g1.major_collections - g0.major_collections)
    end
  in
  (* The warm-up runs the same code path, traced or not, into a probe
     that is thrown away; Telemetry counters restart after it. *)
  step (Probe.create ~traced) ~timed:false;
  if traced then T.reset ();
  let probe = Probe.create ~traced in
  let t0 = Measure.now_ns () in
  while !attempted < max 2 w.min_ops || Measure.since t0 < seconds do
    step probe ~timed:true
  done;
  let ms =
    Measure.summarize ~chunk:w.chunk
      (Array.of_list (List.rev_map (fun s -> s *. 1e3) !latencies))
  in
  let metrics =
    if traced then begin
      let values =
        layer_metrics probe ~ops:ms.n ~busy:!busy ~gc_minor:!gc_minor
          ~gc_major:(float_of_int !gc_major)
      in
      T.set_enabled false;
      named values
    end
    else
      let inst = Array.of_list !installed in
      let quality key f =
        (key, "count", S.mean (Array.map (fun i -> float_of_int (f i)) inst))
      in
      named
        [
          ("setup_s", "s", S.median (Array.of_list setup_times));
          ("op_ms_p50", "ms", ms.p50);
          ("op_ms_mean", "ms", ms.chunk_mean);
          quality "instances_mean" (fun i -> i.Workloads.instances);
          quality "cores_mean" (fun i -> i.Workloads.cores);
          quality "tcam_entries_mean" (fun i -> i.Workloads.tcam);
          ("peak_heap_mb", "MB", !peak_heap);
        ]
  in
  let run_checks =
    (if (not traced) && List.is_empty !installed then
       [
         Printf.sprintf "no configuration installed in the first %d operations"
           w.min_ops;
       ]
     else [])
    @ List.filter_map
        (fun m ->
          if Float.is_finite m.value then None
          else Some (m.name ^ " is not finite"))
        metrics
  in
  {
    workload = w.name;
    attempted = !attempted;
    failed = !failed;
    errors = List.rev_append !errors run_checks;
    latency = ms;
    digest = Digest.to_hex (Digest.string (Buffer.contents digest));
    metrics;
  }

(* ---- command line ---------------------------------------------------- *)

let usage =
  "usage: apple_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
  \  workloads: "
  ^ String.concat ", "
      (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)

let parse argv =
  let workload v =
    List.find_opt (fun (x : Workloads.t) -> String.equal x.name v) Workloads.all
  in
  let rec go ((w, seed, secs, trace) as acc) = function
    | [] -> Ok acc
    | [ flag ] -> Error ("missing value for " ^ flag)
    | flag :: v :: rest -> (
        match (flag, v) with
        | "--workload", _ -> (
            match workload v with
            | Some x -> go (Some x, seed, secs, trace) rest
            | None -> Error ("unknown workload " ^ v))
        | "--seed", _ -> (
            match int_of_string_opt v with
            | Some n -> go (w, n, secs, trace) rest
            | None -> Error ("bad --seed " ^ v))
        | "--seconds", _ -> (
            match float_of_string_opt v with
            | Some s when s >= 0.0 -> go (w, seed, s, trace) rest
            | _ -> Error ("bad --seconds " ^ v))
        | "--trace", "0" -> go (w, seed, secs, false) rest
        | "--trace", "1" -> go (w, seed, secs, true) rest
        | "--trace", _ -> Error ("bad --trace " ^ v)
        | _ -> Error ("unknown argument " ^ flag))
  in
  match go (None, 1, 15.0, false) (List.tl (Array.to_list argv)) with
  | Ok (Some w, seed, secs, trace) -> Ok (w, seed, secs, trace)
  | Ok (None, _, _, _) -> Error "--workload is required"
  | Error m -> Error m

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json r =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value)
      m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (List.is_empty r.errors) r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let main argv =
  match parse argv with
  | Error m ->
      prerr_endline m;
      prerr_endline usage;
      2
  | Ok (w, seed, seconds, traced) ->
      let r = run w ~seed ~seconds ~traced in
      List.iter (Printf.printf "check failed: %s\n") r.errors;
      Printf.printf "workload %s seed %d seconds %g traced %b jobs %d\n"
        r.workload seed seconds traced (default_jobs ());
      Printf.printf "ops %d timed, %d attempted, %d failed; p50 %s ms\n"
        r.latency.n r.attempted r.failed (number r.latency.p50);
      (match r.latency.tail with
      | Some (p, v) ->
          Printf.printf "tail p%g %s ms (not a metric: too noisy to gate)\n" p
            (number v)
      | None -> print_endline "tail: too few operations beyond p90");
      Printf.printf "digest %s\n" r.digest;
      List.iter
        (fun m -> Printf.printf "%s %s %s\n" m.name (number m.value) m.unit_)
        r.metrics;
      print_endline (json r);
      if List.is_empty r.errors then 0 else 1
