(** Header-space predicates compiled to BDDs.

    A predicate denotes a set of packets.  Predicates support full boolean
    algebra plus emptiness, membership, and conversion back to wildcard
    cubes (for TCAM rule counting). *)

type env = Apple_bdd.Bdd.man
(** Shared BDD manager for a family of predicates. *)

type t
(** A predicate bound to its environment. *)

val env : unit -> env

val always : env -> t
val never : env -> t

val src_prefix : env -> string -> int -> t
(** [src_prefix e "10.1.0.0" 16] matches packets whose source address lies
    in 10.1.0.0/16. *)

val dst_prefix : env -> string -> int -> t

val src_prefix_int : env -> int -> int -> t
(** Same with a numeric address. *)

val dst_prefix_int : env -> int -> int -> t

val proto : env -> int -> t
val src_port : env -> int -> t
val dst_port : env -> int -> t

val dst_port_range : env -> int -> int -> t
(** [dst_port_range e lo hi] matches destination ports in [\[lo, hi\]]. *)

val src_port_range : env -> int -> int -> t

val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val neg : t -> t
val diff : t -> t -> t

val is_empty : t -> bool
val equal : t -> t -> bool
val subset : t -> t -> bool

val matches : t -> Header.packet -> bool
(** Concrete-packet membership: one root-to-terminal descent of the BDD,
    O(depth), allocating no node in the environment. *)

val fraction_of_space : t -> float
(** |t| / 2^104 — the fraction of header space covered. *)

val wildcard_rules : t -> int
(** Number of ternary (wildcard) rules needed to express the predicate as a
    TCAM match list, i.e. the number of true paths of its BDD. *)

val witness : t -> Header.packet option
(** Some packet satisfying the predicate, or [None] if empty. *)
