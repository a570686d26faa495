let to_csv tm =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# traffic matrix, Mbps; row = origin, column = destination\n";
  Array.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.6g") row)));
      Buffer.add_char buf '\n')
    tm;
  Buffer.contents buf

let of_csv text =
  (* Number physical lines, so an error names the line an editor shows
     even past comments and blank lines. *)
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  let parse_line (lineno, line) =
    let cells = String.split_on_char ',' line in
    let values =
      List.map
        (fun cell ->
          match float_of_string_opt (String.trim cell) with
          | Some v when Float.is_finite v && v >= 0.0 -> Ok v
          | Some _ -> Error (Printf.sprintf "line %d: negative or non-finite demand" lineno)
          | None -> Error (Printf.sprintf "line %d: %S is not a number" lineno cell))
        cells
    in
    List.fold_right
      (fun v acc ->
        match (v, acc) with
        | Ok x, Ok xs -> Ok (x :: xs)
        | Error e, _ -> Error e
        | _, Error e -> Error e)
      values (Ok [])
  in
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | ((lineno, _) as line) :: rest -> (
        match parse_line line with
        | Ok row -> parse ((lineno, Array.of_list row) :: acc) rest
        | Error e -> Error e)
  in
  match parse [] lines with
  | Error e -> Error e
  | Ok [] -> Error "empty matrix"
  | Ok rows -> (
      let n = List.length rows in
      match List.find_opt (fun (_, r) -> Array.length r <> n) rows with
      | Some (lineno, r) ->
          Error
            (Printf.sprintf "line %d: %d values in a %d-row matrix (not square)"
               lineno (Array.length r) n)
      | None -> Ok (Array.of_list (List.map snd rows)))

let save tm ~path =
  let oc = open_out path in
  output_string oc (to_csv tm);
  close_out oc

let load ~path =
  try
    let ic = open_in path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    of_csv text
  with Sys_error e -> Error e

let save_sequence tms ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iteri
    (fun i tm -> save tm ~path:(Filename.concat dir (Printf.sprintf "tm_%04d.csv" i)))
    tms

let load_sequence ~dir =
  try
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 3
             && String.sub f 0 3 = "tm_"
             && Filename.check_suffix f ".csv")
      |> List.sort String.compare
    in
    if files = [] then Error (Printf.sprintf "no tm_*.csv files in %s" dir)
    else
      List.fold_right
        (fun f acc ->
          match (load ~path:(Filename.concat dir f), acc) with
          | Ok tm, Ok tms -> Ok (tm :: tms)
          | Error e, _ -> Error (f ^ ": " ^ e)
          | _, Error e -> Error e)
        files (Ok [])
  with Sys_error e -> Error e
