(** Traffic-matrix serialization.

    Real deployments would feed measured matrices (Abilene/TOTEM style)
    into the Optimization Engine; this module reads and writes the
    simple CSV convention those archives use: one row per origin, one
    column per destination, demands in Mbps, [#]-prefixed comment lines
    ignored. *)

val to_csv : Matrix.t -> string
(** Render with 6 significant digits. *)

val of_csv : string -> (Matrix.t, string) result
(** Parse; the matrix must be square with non-negative finite entries.
    Errors carry a human-readable reason and the offending physical line
    of [text], counting comments and blank lines; a matrix that is not
    square names its first row whose width differs from the row count. *)

val save : Matrix.t -> path:string -> unit
(** Write {!to_csv} to a file. *)

val load : path:string -> (Matrix.t, string) result
(** Read a file through {!of_csv}. *)

val save_sequence : Matrix.t list -> dir:string -> unit
(** Write snapshots as [dir/tm_0000.csv], [dir/tm_0001.csv], ...
    creating [dir] if needed. *)

val load_sequence : dir:string -> (Matrix.t list, string) result
(** Read back every [tm_*.csv] in lexicographic order. *)
