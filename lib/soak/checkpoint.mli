(** Serialized soak-harness state: everything a resumed run needs to
    continue byte-identically from a re-optimization boundary.

    The format is a versioned, digest-protected text file
    ([apple-soak-ckpt/2]).  Checkpoints are taken only at boundaries
    (epoch ≡ 0 mod [reopt_every]), so they carry no controller state at
    all: the next epoch's [run_epoch] rebuilds the placement, rules and
    Dynamic Handler from the scenario, which is itself derived from the
    seed.  What remains is the harness's own bookkeeping — faults still
    open, aggregate totals, completed window rows — plus the length of
    the stream emitted so far. *)

type t = {
  fingerprint : string;  (** config digest; restore refuses a mismatch *)
  epoch : int;  (** next epoch to execute; a multiple of [reopt_every] *)
  stream_bytes : int;
      (** bytes of the deterministic stream emitted so far; resume
          truncates the stream file here *)
  blind_until : int;  (** poller-blackout horizon (epoch) *)
  mem_baseline : int;  (** live-words baseline (0 = unset; perf only) *)
  mem_peak : int;  (** live-words peak so far (perf only) *)
  open_faults : Apple_chaos.Fault.open_fault list;
      (** oldest first; [since] is a whole epoch *)
  totals : (string * float) list;  (** soak aggregate counters *)
  violations : string list;  (** invariant violations so far *)
  windows : string list;  (** completed window rows, serialized *)
}

val to_string : t -> string
(** Render, ending in a [digest] line protecting everything above it. *)

val of_string : string -> (t, string) result
(** Parse and verify the digest.  Never raises: every error names the
    1-based line it was found on
    ([checkpoint: line N: expected "epoch" line, got ...]).  Any other
    format version, including [apple-soak-ckpt/1], is refused. *)

val save : path:string -> t -> unit
(** Atomic write: a temporary file in the same directory, then rename. *)

val load : path:string -> (t, string) result
