module T = Apple_telemetry.Telemetry

let m_events = T.Counter.create "apple.sim.events"
let m_queue_high_water = T.Gauge.create "apple.sim.queue_high_water"

type event = { time : float; seq : int; action : t -> unit }

and t = {
  mutable clock : float;
  mutable heap : event array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  {
    clock = 0.0;
    heap = Array.make 64 { time = 0.0; seq = 0; action = (fun _ -> ()) };
    size = 0;
    next_seq = 0;
  }

let now t = t.clock

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let push t ev =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) ev in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  T.Gauge.set_max m_queue_high_water (float_of_int t.size);
  let i = ref (t.size - 1) in
  while !i > 0 && before t.heap.(!i) t.heap.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let tmp = t.heap.(p) in
    t.heap.(p) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := p
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
      if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.heap.(!smallest) in
        t.heap.(!smallest) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    Some top
  end

let schedule_at t ~time action =
  if time < t.clock -. 1e-12 then invalid_arg "Engine.schedule_at: time in the past";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t { time = max time t.clock; seq; action }

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) action

let every t ~period ?until action =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  let rec tick world =
    let fire =
      match until with Some limit -> now world <= limit +. 1e-12 | None -> true
    in
    if fire then begin
      action world;
      schedule world ~delay:period tick
    end
  in
  schedule t ~delay:period tick

let run ?until t =
  (* Spans and flight records made inside event actions pick up virtual
     timestamps; the previous hook is restored so nested or
     back-to-back engines do not clobber each other. *)
  let prev_clock = Apple_trace.Trace.current_sim_clock () in
  Apple_trace.Trace.set_sim_clock (Some (fun () -> t.clock));
  Fun.protect ~finally:(fun () -> Apple_trace.Trace.set_sim_clock prev_clock)
  @@ fun () ->
  let continue = ref true in
  while !continue do
    match pop t with
    | None -> continue := false
    | Some ev -> (
        match until with
        | Some limit when ev.time > limit ->
            (* Put nothing back: simulation is over. *)
            t.clock <- limit;
            continue := false
        | _ ->
            t.clock <- ev.time;
            T.Counter.incr m_events;
            ev.action t)
  done

let pending t = t.size

module Series = struct
  type series = { s_name : string; mutable rev_points : (float * float) list }

  let create s_name = { s_name; rev_points = [] }
  let record s ~time v = s.rev_points <- (time, v) :: s.rev_points
  let name s = s.s_name
  let points s = List.rev s.rev_points
  let values s = Array.of_list (List.rev_map snd s.rev_points)

  let between s t0 t1 =
    List.filter (fun (time, _) -> time >= t0 && time < t1) (points s)
end

module Counter = struct
  type counter = { c_name : string; mutable total : float }

  let create c_name = { c_name; total = 0.0 }
  let add c v = c.total <- c.total +. v
  let value c = c.total
  let name c = c.c_name
end
