module S = Apple_prelude.Stats

let now_ns () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* Percentiles in tenths, so "samples beyond" is exact integer
   arithmetic: n * (1000 - p) / 1000. *)
let tail_percentile n =
  List.find_map
    (fun p ->
      if n * (1000 - p) / 1000 >= 10 then Some (float_of_int p /. 10.0)
      else None)
    [ 999; 990; 950; 900 ]

type summary = {
  n : int;
  p50 : float;
  tail : (float * float) option;
  chunk_mean : float;
}

let summarize ~chunk xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Measure.summarize: empty sample";
  let chunk = max 1 (min chunk n) in
  let means =
    Array.init (n / chunk) (fun i -> S.mean (Array.sub xs (i * chunk) chunk))
  in
  {
    n;
    p50 = S.percentile xs 50.0;
    tail = Option.map (fun p -> (p, S.percentile xs p)) (tail_percentile n);
    chunk_mean = S.median means;
  }

let scaling_exponent points =
  let logs =
    List.filter_map
      (fun (x, y) -> if x > 0.0 && y > 0.0 then Some (log x, log y) else None)
      points
  in
  match logs with
  | [] | [ _ ] -> None
  | _ ->
      let xs = Array.of_list (List.map fst logs) in
      let ys = Array.of_list (List.map snd logs) in
      if S.maximum xs -. S.minimum xs < log 1.5 then None
      else
        let mx = S.mean xs and my = S.mean ys in
        let sxy = ref 0.0 and sxx = ref 0.0 in
        Array.iteri
          (fun i x ->
            sxy := !sxy +. ((x -. mx) *. (ys.(i) -. my));
            sxx := !sxx +. ((x -. mx) *. (x -. mx)))
          xs;
        Some (!sxy /. !sxx)

let unattributed ~stages ~total = 1.0 -. (stages /. total)
