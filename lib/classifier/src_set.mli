(** Exact sets of IPv4 source addresses.

    Every symbolic predicate the static verifier builds is a union of
    source prefixes ([Apple_dataplane.Rule.phys_match] matches nothing
    else symbolically), so it can work on these sets instead of BDDs.  A
    set is a sorted array of disjoint, non-adjacent half-open intervals
    [\[lo, hi)] inside [\[0, 2^32)].  The form is canonical, and every
    operation is one linear merge: no manager, no cache, no state kept
    between calls. *)

type t

val empty : t
val full : t
(** All [2^32] source addresses. *)

val of_prefixes : Prefix_split.prefix list -> t
(** The union of the prefixes; [[]] gives {!empty}.  An address's bits
    below its prefix length are ignored, as in
    {!Predicate.src_prefix_int}.  Raises [Invalid_argument] on a length
    outside [0..32]. *)

val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t

val is_empty : t -> bool
val subset : t -> t -> bool

val witness : t -> Header.packet option
(** The packet {!Predicate.witness} returns for the same set of source
    addresses, or [None] for the empty set.  [Bdd.any_sat] with the
    source bits ordered most significant first amounts to this: from
    the top bit down, take 0 where the current block's two halves hold
    the same pattern (the BDD has no node for that bit), else 1 when the
    upper half is non-empty, else 0.  Every other header field is 0. *)
