module Engine = Apple_sim.Engine
module T = Apple_telemetry.Telemetry

let m_detections = T.Counter.create "apple.overload.detections"
let m_recoveries = T.Counter.create "apple.overload.recoveries"

type state = Normal | Overloaded

type t = {
  poll_period : float;
  high_watermark : float;
  low_watermark : float;
  mutable state : state;
}

let create ?(poll_period = 0.05) ~high_watermark ~low_watermark () =
  if low_watermark > high_watermark then
    invalid_arg "Overload.create: low watermark above high watermark";
  if poll_period <= 0.0 then invalid_arg "Overload.create: bad poll period";
  { poll_period; high_watermark; low_watermark; state = Normal }

let poll_period t = t.poll_period
let state t = t.state

let observe t ~rate =
  match t.state with
  | Normal when rate > t.high_watermark ->
      t.state <- Overloaded;
      T.Counter.incr m_detections;
      (Overloaded, `Went_overloaded)
  | Overloaded when rate <= t.low_watermark ->
      t.state <- Normal;
      T.Counter.incr m_recoveries;
      (Normal, `Recovered)
  | s -> (s, `No_change)

let attach t world ~rate ~on_overload ~on_recover ~until =
  Engine.every world ~period:t.poll_period ~until (fun w ->
      match observe t ~rate:(rate ()) with
      | _, `Went_overloaded -> on_overload w
      | _, `Recovered -> on_recover w
      | _, `No_change -> ())
