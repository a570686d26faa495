(** Output-path validation for the CLI's report-writing options. *)

val check_parent : what:string -> string -> (unit, string) result
(** [check_parent ~what path] is [Ok ()] when [path]'s parent directory
    exists and is a directory; otherwise an [Error] with a one-line
    actionable message naming [what] (e.g. ["metrics report"],
    ["trace"]) and the missing directory. *)
