(* Global observability registry.

   Design constraints, in order: (1) the disabled path is one boolean
   load and a branch, so instrumentation can sit on hot paths (simplex
   pivots, pool chunk claims) without moving Table-V timings; (2) every
   update is safe from any domain — counters are atomic, everything
   else takes a short per-metric mutex; (3) nothing here is read back by
   the engines, so telemetry can never change a placement. *)

(* A plain ref, not an Atomic: bool loads cannot tear, and a worker
   domain reading a stale value for a few instructions only delays
   metric visibility, never correctness. *)
let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* ---- metric structures ------------------------------------------- *)

type counter = { c_name : string; c_value : int Atomic.t }

type gauge = { g_name : string; g_mutex : Mutex.t; mutable g_value : float }

type histogram = {
  h_name : string;
  h_upper : float array;  (* inclusive upper bounds; last is infinity *)
  h_counts : int Atomic.t array;
  h_mutex : Mutex.t;  (* guards the float accumulators below *)
  mutable h_sum : float;
  mutable h_max : float;
}

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* Look up [name], build-and-register with [make] when absent; [cast]
   rejects a name already registered as a different metric type. *)
let intern name ~make ~cast =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match cast m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Telemetry: %S is already registered as a different metric \
                    type"
                   name))
      | None ->
          let v, m = make () in
          Hashtbl.add registry name m;
          v)

module Counter = struct
  type t = counter

  let create name =
    intern name
      ~make:(fun () ->
        let c = { c_name = name; c_value = Atomic.make 0 } in
        (c, M_counter c))
      ~cast:(function M_counter c -> Some c | _ -> None)

  let add c n = if !enabled_flag then ignore (Atomic.fetch_and_add c.c_value n)
  let incr c = add c 1
  let value c = Atomic.get c.c_value
  let name c = c.c_name
end

module Gauge = struct
  type t = gauge

  let create name =
    intern name
      ~make:(fun () ->
        let g = { g_name = name; g_mutex = Mutex.create (); g_value = 0.0 } in
        (g, M_gauge g))
      ~cast:(function M_gauge g -> Some g | _ -> None)

  let set g v =
    if !enabled_flag then begin
      Mutex.lock g.g_mutex;
      g.g_value <- v;
      Mutex.unlock g.g_mutex
    end

  let set_max g v =
    if !enabled_flag then begin
      Mutex.lock g.g_mutex;
      if v > g.g_value then g.g_value <- v;
      Mutex.unlock g.g_mutex
    end

  let value g = g.g_value
  let name g = g.g_name
end

module Histogram = struct
  type t = histogram

  let make_bounds ~lo ~buckets_per_decade ~decades =
    if lo <= 0.0 then invalid_arg "Telemetry.Histogram: lo must be positive";
    if buckets_per_decade < 1 || decades < 1 then
      invalid_arg "Telemetry.Histogram: bucket shape must be positive";
    let n = (buckets_per_decade * decades) + 1 in
    Array.init n (fun i ->
        if i = n - 1 then infinity
        else lo *. (10.0 ** (float_of_int (i + 1) /. float_of_int buckets_per_decade)))

  let create ?(lo = 1e-6) ?(buckets_per_decade = 4) ?(decades = 12) name =
    intern name
      ~make:(fun () ->
        let upper = make_bounds ~lo ~buckets_per_decade ~decades in
        let h =
          {
            h_name = name;
            h_upper = upper;
            h_counts = Array.init (Array.length upper) (fun _ -> Atomic.make 0);
            h_mutex = Mutex.create ();
            h_sum = 0.0;
            h_max = neg_infinity;
          }
        in
        (h, M_histogram h))
      ~cast:(function M_histogram h -> Some h | _ -> None)

  (* Smallest bucket whose inclusive upper bound covers [v]; the
     boundaries are precomputed so membership is exact. *)
  let bucket_index h v =
    let n = Array.length h.h_upper in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= h.h_upper.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let observe h v =
    (* NaN would fail every [v <= upper] comparison, land in the overflow
       bucket and poison [h_sum] forever; drop it.  Zero and negative
       values are real observations (an instant duration, a clock that
       went backwards) and land in the smallest bucket, which the binary
       search already guarantees. *)
    if !enabled_flag && not (Float.is_nan v) then begin
      ignore (Atomic.fetch_and_add h.h_counts.(bucket_index h v) 1);
      Mutex.lock h.h_mutex;
      h.h_sum <- h.h_sum +. v;
      if v > h.h_max then h.h_max <- v;
      Mutex.unlock h.h_mutex
    end

  let count h = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.h_counts
  let sum h = h.h_sum
  let max_value h = h.h_max
  let num_buckets h = Array.length h.h_upper
  let bucket_upper h i = h.h_upper.(i)
  let bucket_count h i = Atomic.get h.h_counts.(i)

  let percentile h p =
    let total = count h in
    if total = 0 then nan
    else begin
      let rank =
        let r = int_of_float (ceil (p /. 100.0 *. float_of_int total)) in
        if r < 1 then 1 else if r > total then total else r
      in
      let i = ref 0 and cum = ref 0 in
      while !cum < rank do
        cum := !cum + Atomic.get h.h_counts.(!i);
        if !cum < rank then incr i
      done;
      (* The overflow bucket has no finite bound; report the true max. *)
      if h.h_upper.(!i) = infinity then h.h_max else h.h_upper.(!i)
    end

  let name h = h.h_name
end

(* ---- snapshots ---------------------------------------------------- *)

let sorted_metrics () =
  (* lint: L3 — order erased: sorted by metric name below *)
  let all = with_registry (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry []) in
  let name_of = function
    | M_counter c -> c.c_name
    | M_gauge g -> g.g_name
    | M_histogram h -> h.h_name
  in
  List.sort (fun a b -> String.compare (name_of a) (name_of b)) all

let counters () =
  List.filter_map
    (function M_counter c -> Some (c.c_name, Counter.value c) | _ -> None)
    (sorted_metrics ())

let gauges () =
  List.filter_map
    (function M_gauge g -> Some (g.g_name, g.g_value) | _ -> None)
    (sorted_metrics ())

type histogram_summary = {
  h_count : int;
  h_sum : float;
  h_max : float;
  h_p50 : float;
  h_p95 : float;
}

let histograms () =
  List.filter_map
    (function
      | M_histogram h ->
          Some
            ( h.h_name,
              {
                h_count = Histogram.count h;
                h_sum = h.h_sum;
                h_max = h.h_max;
                h_p50 = Histogram.percentile h 50.0;
                h_p95 = Histogram.percentile h 95.0;
              } )
      | _ -> None)
    (sorted_metrics ())

let reset () =
  with_registry (fun () ->
      (* lint: L3 — independent per-metric resets; order cannot leak *)
      Hashtbl.iter
        (fun _ m ->
          match m with
          | M_counter c -> Atomic.set c.c_value 0
          | M_gauge g -> g.g_value <- 0.0
          | M_histogram h ->
              Array.iter (fun c -> Atomic.set c 0) h.h_counts;
              h.h_sum <- 0.0;
              h.h_max <- neg_infinity)
        registry)

(* ---- exporters ---------------------------------------------------- *)

type format = Text | Json | Prom

let format_of_string = function
  | "text" -> Ok Text
  | "json" -> Ok Json
  | "prom" | "prometheus" -> Ok Prom
  | s -> Error (Printf.sprintf "unknown metrics format %S (expected text|json|prom)" s)

let format_to_string = function Text -> "text" | Json -> "json" | Prom -> "prom"

module Table = Apple_prelude.Text_table
module Trace = Apple_trace.Trace

(* Span timings come from the tracer: one wall-time row per span name,
   in name order like every other block. *)
let span_rows () =
  List.sort
    (fun (a : Trace.row) b -> String.compare a.r_name b.r_name)
    (Trace.rows ~mode:Trace.Wall ())

let render_text () =
  let buf = Buffer.create 1024 in
  let section title table rows =
    if rows <> [] then begin
      Buffer.add_string buf (Printf.sprintf "-- %s --\n" title);
      List.iter (Table.add_row table) rows;
      Buffer.add_string buf (Table.render table);
      Buffer.add_char buf '\n'
    end
  in
  Buffer.add_string buf "== APPLE telemetry report ==\n";
  section "counters"
    (Table.create [ "counter"; "value" ])
    (List.map (fun (n, v) -> [ n; string_of_int v ]) (counters ()));
  section "gauges"
    (Table.create [ "gauge"; "value" ])
    (List.map (fun (n, v) -> [ n; Printf.sprintf "%.4g" v ]) (gauges ()));
  section "histograms"
    (Table.create [ "histogram"; "count"; "mean"; "p50"; "p95"; "max" ])
    (List.filter_map
       (fun (n, s) ->
         if s.h_count = 0 then None
         else
           Some
             [
               n;
               string_of_int s.h_count;
               Printf.sprintf "%.4g" (s.h_sum /. float_of_int s.h_count);
               Printf.sprintf "%.4g" s.h_p50;
               Printf.sprintf "%.4g" s.h_p95;
               Printf.sprintf "%.4g" s.h_max;
             ])
       (histograms ()));
  section
    (Printf.sprintf "spans (%d dropped)" (Trace.dropped ()))
    (Table.create [ "span"; "count"; "total s"; "self s" ])
    (List.map
       (fun (r : Trace.row) ->
         [
           r.r_name;
           string_of_int r.r_count;
           Printf.sprintf "%.4f" r.r_total;
           Printf.sprintf "%.4f" r.r_self;
         ])
       (span_rows ()));
  Buffer.contents buf

(* Minimal JSON helpers: we only emit, never parse. *)
let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.9g" v
  else if v = infinity then "1e308"
  else if v = neg_infinity then "-1e308"
  else "null"

let render_json_lines () =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun (n, v) ->
      line "{\"type\":\"counter\",\"name\":%s,\"value\":%d}" (json_string n) v)
    (counters ());
  List.iter
    (fun (n, v) ->
      line "{\"type\":\"gauge\",\"name\":%s,\"value\":%s}" (json_string n)
        (json_float v))
    (gauges ());
  List.iter
    (fun (n, s) ->
      line
        "{\"type\":\"histogram\",\"name\":%s,\"count\":%d,\"sum\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s}"
        (json_string n) s.h_count (json_float s.h_sum)
        (json_float (if s.h_count = 0 then 0.0 else s.h_max))
        (json_float (if s.h_count = 0 then 0.0 else s.h_p50))
        (json_float (if s.h_count = 0 then 0.0 else s.h_p95)))
    (histograms ());
  List.iter
    (fun (r : Trace.row) ->
      line
        "{\"type\":\"span\",\"name\":%s,\"count\":%d,\"total_seconds\":%s,\"self_seconds\":%s}"
        (json_string r.r_name) r.r_count (json_float r.r_total)
        (json_float r.r_self))
    (span_rows ());
  Buffer.contents buf

let prom_name n =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    n

(* Exposition-format label values escape backslash, double quote and
   newline (and nothing else). *)
let prom_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_prometheus () =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let raw_name = function
    | M_counter c -> c.c_name
    | M_gauge g -> g.g_name
    | M_histogram h -> h.h_name
  in
  let emit = function
    | M_counter c ->
        let n = prom_name c.c_name in
        line "# TYPE %s counter" n;
        line "%s %d" n (Counter.value c)
    | M_gauge g ->
        let n = prom_name g.g_name in
        line "# TYPE %s gauge" n;
        line "%s %s" n (json_float g.g_value)
    | M_histogram h ->
        (* Raw cumulative buckets, not the summary. *)
        let n = prom_name h.h_name in
        line "# TYPE %s histogram" n;
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            cum := !cum + Atomic.get c;
            let le =
              if h.h_upper.(i) = infinity then "+Inf"
              else json_float h.h_upper.(i)
            in
            line "%s_bucket{le=\"%s\"} %d" n (prom_label_value le) !cum)
          h.h_counts;
        line "%s_sum %s" n (json_float h.h_sum);
        line "%s_count %d" n !cum
  in
  let emit_span (r : Trace.row) =
    let n = prom_name r.r_name in
    line "# TYPE %s_seconds_total counter" n;
    line "%s_seconds_total %s" n (json_float r.r_total);
    line "# TYPE %s_count counter" n;
    line "%s_count %d" n r.r_count
  in
  (* One pass, globally ordered by exposition name (raw name breaks
     ties): the output is byte-stable regardless of metric kind or
     registry insertion order.  Sorting by [prom_name] rather than the
     raw name matters — the sanitizer maps '.'/'-' to '_', which does
     not preserve [String.compare] order.  Spans join the same order. *)
  let blocks =
    List.map (fun m -> (raw_name m, fun () -> emit m)) (sorted_metrics ())
    @ List.map
        (fun (r : Trace.row) -> (r.r_name, fun () -> emit_span r))
        (Trace.rows ~mode:Trace.Wall ())
  in
  blocks
  |> List.map (fun (raw, out) -> ((prom_name raw, raw), out))
  |> List.sort (fun ((pa, ra), _) ((pb, rb), _) ->
         match String.compare pa pb with
         | 0 -> String.compare ra rb
         | c -> c)
  |> List.iter (fun (_, out) -> out ());
  Buffer.contents buf

let render = function
  | Text -> render_text ()
  | Json -> render_json_lines ()
  | Prom -> render_prometheus ()
