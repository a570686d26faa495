(* Causal tracing: per-span events in one shared ring.

   Determinism is structural, not temporal: every id below is a pure
   function of (trace, parent, seq) where sequence numbers are handed
   out by the submitting side, so the set of events and their sort
   order cannot depend on --jobs or on domain scheduling.  Only the
   wall stamps, executing-domain ids and allocation counters are
   host-dependent, and the Sim render zeroes exactly those. *)

(* ------------------------------------------------------------------ *)
(* Sim clock                                                           *)

let sim_clock : (unit -> float) option ref = ref None
let set_sim_clock c = sim_clock := c
let sim_now () = match !sim_clock with Some c -> Some (c ()) | None -> None
let current_sim_clock () = !sim_clock

(* ------------------------------------------------------------------ *)
(* Span descriptors (interned name + category)                         *)

type span = int

let registry_mu = Mutex.create ()
let span_names : string array ref = ref [||]
let span_cats : string array ref = ref [||]
let span_index : (string, int) Hashtbl.t = Hashtbl.create 64

let span ?(cat = "misc") name =
  Mutex.lock registry_mu;
  let id =
    match Hashtbl.find_opt span_index name with
    | Some i -> i
    | None ->
        let i = Array.length !span_names in
        span_names := Array.append !span_names [| name |];
        span_cats := Array.append !span_cats [| cat |];
        Hashtbl.add span_index name i;
        i
  in
  Mutex.unlock registry_mu;
  id

(* ------------------------------------------------------------------ *)
(* Deterministic ids                                                   *)

(* A splitmix-style finalizer over OCaml's 63-bit ints (constants kept
   under 2^62 so the literals fit; wraparound is well-defined and
   identical on every 64-bit platform).  Quality only has to be good
   enough that independently-derived (parent, seq) pairs do not
   collide in practice — ids are names, not hashes of content. *)
let mix a b =
  let x = (a * 0x1E3779B97F4A7C15) + b in
  let x = x lxor (x lsr 30) in
  let x = x * 0x3F58476D1CE4E5B9 in
  let x = x lxor (x lsr 27) in
  let x = x * 0x14D049BB133111EB in
  (x lxor (x lsr 31)) land max_int

let span_id ~trace ~parent ~seq = mix (mix (trace + 1) (parent + 1)) (seq + 1)

(* ------------------------------------------------------------------ *)
(* Per-domain current frame                                            *)

type frame = { f_trace : int; f_span : int; mutable f_next : int }

let frame_key : frame option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let trace_counter = Atomic.make 0

(* ------------------------------------------------------------------ *)
(* The event ring                                                      *)

(* One struct-of-arrays ring shared by every domain.  A writer claims a
   slot with [fetch_and_add] and owns it; claims past [cap] are counted
   as dropped and never written, so a full ring keeps the first events
   and no slot is written twice. *)
type ring = {
  cap : int;
  claimed : int Atomic.t;  (* slots ever claimed, dropped ones included *)
  rg_domain : int array;
  rg_trace : int array;
  rg_id : int array;
  rg_parent : int array;
  rg_seq : int array;
  rg_span : int array;
  rg_cls : int array;
  rg_w0 : float array;
  rg_w1 : float array;
  rg_s0 : float array;
  rg_s1 : float array;
  rg_minor : float array;
  rg_major : float array;
}

let make_ring cap =
  {
    cap;
    claimed = Atomic.make 0;
    rg_domain = Array.make cap 0;
    rg_trace = Array.make cap 0;
    rg_id = Array.make cap 0;
    rg_parent = Array.make cap 0;
    rg_seq = Array.make cap 0;
    rg_span = Array.make cap 0;
    rg_cls = Array.make cap 0;
    rg_w0 = Array.make cap 0.0;
    rg_w1 = Array.make cap 0.0;
    rg_s0 = Array.make cap 0.0;
    rg_s1 = Array.make cap 0.0;
    rg_minor = Array.make cap 0.0;
    rg_major = Array.make cap 0.0;
  }

let default_capacity = 65536
let capacity = ref default_capacity
let ring_capacity () = !capacity

(* Empty until tracing is switched on: a process that never traces
   never holds the ring. *)
let ring = ref (make_ring 0)

let reset () =
  Atomic.set !ring.claimed 0;
  Atomic.set trace_counter 0

let dropped () =
  let r = !ring in
  max 0 (Atomic.get r.claimed - r.cap)

(* ------------------------------------------------------------------ *)
(* Global switch                                                       *)

let enabled_flag = ref false
let enabled () = !enabled_flag

let set_enabled v =
  if v && !ring.cap <> !capacity then ring := make_ring !capacity;
  enabled_flag := v

let set_ring_capacity n =
  capacity := max 1 n;
  ring := make_ring (if !enabled_flag then !capacity else 0);
  Atomic.set trace_counter 0

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let sim_stamp () = match !sim_clock with Some c -> c () | None -> Float.nan

let record ~trace ~id ~parent ~seq ~sp ~cls ~w0 ~w1 ~s0 ~s1 ~minor ~major =
  let r = !ring in
  let i = Atomic.fetch_and_add r.claimed 1 in
  if i < r.cap then begin
    r.rg_domain.(i) <- (Domain.self () :> int);
    r.rg_trace.(i) <- trace;
    r.rg_id.(i) <- id;
    r.rg_parent.(i) <- parent;
    r.rg_seq.(i) <- seq;
    r.rg_span.(i) <- sp;
    r.rg_cls.(i) <- cls;
    r.rg_w0.(i) <- w0;
    r.rg_w1.(i) <- w1;
    r.rg_s0.(i) <- s0;
    r.rg_s1.(i) <- s1;
    r.rg_minor.(i) <- minor;
    r.rg_major.(i) <- major
  end

let run_span ~slot ~saved ~trace ~id ~parent ~seq ~sp ~cls f =
  slot := Some { f_trace = trace; f_span = id; f_next = 0 };
  let minor0, _, major0 = Gc.counters () in
  let s0 = sim_stamp () in
  let w0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let w1 = Unix.gettimeofday () in
      let s1 = sim_stamp () in
      let minor1, _, major1 = Gc.counters () in
      slot := saved;
      record ~trace ~id ~parent ~seq ~sp ~cls ~w0 ~w1 ~s0 ~s1
        ~minor:(minor1 -. minor0) ~major:(major1 -. major0))
    f

let with_ ?(cls = -1) sp f =
  if not !enabled_flag then f ()
  else begin
    let slot = Domain.DLS.get frame_key in
    let saved = !slot in
    let trace, parent, seq =
      match saved with
      | Some fr ->
          let s = fr.f_next in
          fr.f_next <- s + 1;
          (fr.f_trace, fr.f_span, s)
      | None -> (Atomic.fetch_and_add trace_counter 1, 0, 0)
    in
    let id = span_id ~trace ~parent ~seq in
    run_span ~slot ~saved ~trace ~id ~parent ~seq ~sp ~cls f
  end

(* ------------------------------------------------------------------ *)
(* Pool propagation                                                    *)

type context = { c_trace : int; c_span : int; c_token : int }

let capture () =
  if not !enabled_flag then None
  else
    let slot = Domain.DLS.get frame_key in
    match !slot with
    | Some fr ->
        let tok = fr.f_next in
        fr.f_next <- tok + 1;
        Some { c_trace = fr.f_trace; c_span = fr.f_span; c_token = tok }
    | None ->
        (* Fan-out with no enclosing span: give the items a trace of
           their own.  The id is allocated on the submitting side, so it
           is as deterministic as a root span's. *)
        let t = Atomic.fetch_and_add trace_counter 1 in
        Some { c_trace = t; c_span = 0; c_token = 0 }

let sp_pool_item = span ~cat:"parallel" "pool.item"

let branch ctx ~index f =
  if not !enabled_flag then f ()
  else begin
    let slot = Domain.DLS.get frame_key in
    let saved = !slot in
    (* Sequence numbers under the captured parent must not collide with
       the parent frame's sequential children (small ints) or with other
       maps' items: mixing (token, index) spreads them over 63 bits. *)
    let seq = mix (ctx.c_token + 1) (index + 1) in
    let id = span_id ~trace:ctx.c_trace ~parent:ctx.c_span ~seq in
    run_span ~slot ~saved ~trace:ctx.c_trace ~id ~parent:ctx.c_span ~seq
      ~sp:sp_pool_item ~cls:index f
  end

let wrap_items f =
  match capture () with
  | None -> f
  | Some ctx -> fun i -> branch ctx ~index:i (fun () -> f i)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

type event = {
  ev_trace : int;
  ev_id : int;
  ev_parent : int;
  ev_seq : int;
  ev_name : string;
  ev_cat : string;
  ev_cls : int;
  ev_domain : int;
  ev_wall0 : float;
  ev_wall1 : float;
  ev_sim0 : float;
  ev_sim1 : float;
  ev_minor : float;
  ev_major : float;
}

let compare_event a b =
  let c = Int.compare a.ev_trace b.ev_trace in
  if c <> 0 then c
  else
    let c = Int.compare a.ev_parent b.ev_parent in
    if c <> 0 then c
    else
      let c = Int.compare a.ev_seq b.ev_seq in
      if c <> 0 then c
      else
        let c = Int.compare a.ev_id b.ev_id in
        if c <> 0 then c
        else
          let c = String.compare a.ev_name b.ev_name in
          if c <> 0 then c else Int.compare a.ev_cls b.ev_cls

let events () =
  let names = !span_names and cats = !span_cats in
  let r = !ring in
  List.init
    (min (Atomic.get r.claimed) r.cap)
    (fun i ->
      let sp = r.rg_span.(i) in
      {
        ev_trace = r.rg_trace.(i);
        ev_id = r.rg_id.(i);
        ev_parent = r.rg_parent.(i);
        ev_seq = r.rg_seq.(i);
        ev_name = names.(sp);
        ev_cat = cats.(sp);
        ev_cls = r.rg_cls.(i);
        ev_domain = r.rg_domain.(i);
        ev_wall0 = r.rg_w0.(i);
        ev_wall1 = r.rg_w1.(i);
        ev_sim0 = r.rg_s0.(i);
        ev_sim1 = r.rg_s1.(i);
        ev_minor = r.rg_minor.(i);
        ev_major = r.rg_major.(i);
      })
  |> List.sort compare_event

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

type mode = Wall | Sim

let mode_of_string = function
  | "wall" -> Ok Wall
  | "sim" -> Ok Sim
  | s -> Error (Printf.sprintf "unknown trace mode %S (expected sim or wall)" s)

let mode_to_string = function Wall -> "wall" | Sim -> "sim"

let sim_ts e = if Float.is_nan e.ev_sim0 then 0.0 else e.ev_sim0

let sim_dur e =
  if Float.is_nan e.ev_sim0 || Float.is_nan e.ev_sim1 then 0.0
  else max 0.0 (e.ev_sim1 -. e.ev_sim0)

let dur_seconds mode e =
  match mode with Wall -> max 0.0 (e.ev_wall1 -. e.ev_wall0) | Sim -> sim_dur e

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let render_chrome ?(mode = Sim) () =
  let evs = events () in
  let wall_base =
    List.fold_left (fun m e -> min m e.ev_wall0) infinity evs
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":\"apple-trace/1\",\"mode\":\"%s\",\"events\":%d,\"dropped\":%d,\"traceEvents\":[\n"
       (mode_to_string mode) (List.length evs) (dropped ()));
  let first = ref true in
  List.iter
    (fun e ->
      if !first then first := false else Buffer.add_string b ",\n";
      let ts, dur, tid, wall_us, minor, major =
        match mode with
        | Wall ->
            ( (e.ev_wall0 -. wall_base) *. 1e6,
              dur_seconds Wall e *. 1e6,
              e.ev_domain,
              dur_seconds Wall e *. 1e6,
              e.ev_minor,
              e.ev_major )
        | Sim ->
            (sim_ts e *. 1e6, sim_dur e *. 1e6, 0, 0.0, 0.0, 0.0)
      in
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"trace\":%d,\"id\":\"%d\",\"parent\":\"%d\",\"seq\":\"%d\",\"cls\":%d,\"wall_us\":%.3f,\"sim_us\":%.3f,\"minor_words\":%.0f,\"major_words\":%.0f}}"
           (json_string e.ev_name) (json_string e.ev_cat) ts dur tid e.ev_trace
           e.ev_id e.ev_parent e.ev_seq e.ev_cls wall_us (sim_dur e *. 1e6)
           minor major))
    evs;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Self-time attribution                                               *)

type row = {
  r_name : string;
  r_cat : string;
  r_count : int;
  r_total : float;
  r_self : float;
  r_minor : float;
}

(* Per-event self time: duration minus the summed durations of direct
   children, clamped at zero (clock granularity can make a child appear
   longer than its parent). *)
let self_times mode evs =
  let child_sum : (int, float ref) Hashtbl.t =
    Hashtbl.create (List.length evs)
  in
  List.iter
    (fun e ->
      let d = dur_seconds mode e in
      match Hashtbl.find_opt child_sum e.ev_parent with
      | Some r -> r := !r +. d
      | None -> Hashtbl.add child_sum e.ev_parent (ref d))
    evs;
  List.map
    (fun e ->
      let children =
        match Hashtbl.find_opt child_sum e.ev_id with
        | Some r -> !r
        | None -> 0.0
      in
      (e, max 0.0 (dur_seconds mode e -. children)))
    evs

let rows ?(mode = Wall) () =
  let evs = events () in
  let acc : (string, row ref) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (e, self) ->
      let minor = match mode with Wall -> e.ev_minor | Sim -> 0.0 in
      match Hashtbl.find_opt acc e.ev_name with
      | Some r ->
          r :=
            {
              !r with
              r_count = !r.r_count + 1;
              r_total = !r.r_total +. dur_seconds mode e;
              r_self = !r.r_self +. self;
              r_minor = !r.r_minor +. minor;
            }
      | None ->
          order := e.ev_name :: !order;
          Hashtbl.add acc e.ev_name
            (ref
               {
                 r_name = e.ev_name;
                 r_cat = e.ev_cat;
                 r_count = 1;
                 r_total = dur_seconds mode e;
                 r_self = self;
                 r_minor = minor;
               }))
    (self_times mode evs);
  let collected =
    List.rev_map
      (fun name ->
        match Hashtbl.find_opt acc name with
        | Some r -> !r
        | None -> assert false)
      !order
  in
  List.sort
    (fun a b ->
      let c = Float.compare b.r_self a.r_self in
      if c <> 0 then c else String.compare a.r_name b.r_name)
    collected

type phase = {
  ph_cat : string;
  ph_count : int;
  ph_self : float;
  ph_share : float;
}

let phases ?(mode = Wall) () =
  let rs = rows ~mode () in
  let acc : (string, (int * float) ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      match Hashtbl.find_opt acc r.r_cat with
      | Some cell ->
          let n, s = !cell in
          cell := (n + r.r_count, s +. r.r_self)
      | None ->
          order := r.r_cat :: !order;
          Hashtbl.add acc r.r_cat (ref (r.r_count, r.r_self)))
    rs;
  let total =
    List.fold_left (fun t r -> t +. r.r_self) 0.0 rs
  in
  let collected =
    List.rev_map
      (fun cat ->
        match Hashtbl.find_opt acc cat with
        | Some cell ->
            let n, s = !cell in
            {
              ph_cat = cat;
              ph_count = n;
              ph_self = s;
              ph_share = (if total > 0.0 then s /. total else 0.0);
            }
        | None -> assert false)
      !order
  in
  List.sort
    (fun a b ->
      let c = Float.compare b.ph_share a.ph_share in
      if c <> 0 then c else String.compare a.ph_cat b.ph_cat)
    collected

let render_table ?(mode = Wall) () =
  let module Tt = Apple_prelude.Text_table in
  let rs = rows ~mode () in
  let total = List.fold_left (fun t r -> t +. r.r_self) 0.0 rs in
  let spans_t =
    Tt.create [ "span"; "phase"; "count"; "total s"; "self s"; "self %"; "minor Mw" ]
  in
  List.iter
    (fun r ->
      Tt.add_row spans_t
        [
          r.r_name;
          r.r_cat;
          string_of_int r.r_count;
          Printf.sprintf "%.6f" r.r_total;
          Printf.sprintf "%.6f" r.r_self;
          Printf.sprintf "%5.1f"
            (if total > 0.0 then 100.0 *. r.r_self /. total else 0.0);
          Printf.sprintf "%.2f" (r.r_minor /. 1e6);
        ])
    rs;
  let phases_t = Tt.create [ "phase"; "count"; "self s"; "share %" ] in
  List.iter
    (fun p ->
      Tt.add_row phases_t
        [
          p.ph_cat;
          string_of_int p.ph_count;
          Printf.sprintf "%.6f" p.ph_self;
          Printf.sprintf "%5.1f" (100.0 *. p.ph_share);
        ])
    (phases ~mode ());
  Printf.sprintf
    "APPLE profile (%s time, %d event(s), %d dropped)\n\n%s\n\n%s"
    (mode_to_string mode)
    (List.length (events ()))
    (dropped ()) (Tt.render spans_t) (Tt.render phases_t)
