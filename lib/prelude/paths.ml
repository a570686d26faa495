(* Up-front validation for CLI output paths: a missing parent directory
   should be a one-line actionable error at argument time, not a raw
   [Sys_error] after the run has already done its work. *)

let check_parent ~what path =
  let dir = Filename.dirname path in
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else
      Error
        (Printf.sprintf "cannot write %s %s: %s is not a directory" what path
           dir)
  else
    Error
      (Printf.sprintf
         "cannot write %s %s: parent directory %s does not exist (create it \
          or pass a different path)"
         what path dir)
