(** Hash-consed reduced ordered binary decision diagrams.

    The classifier compiles packet-header predicates (prefix and wildcard
    matches) to BDDs and computes {e atomic predicates} (Yang & Lam,
    ICNP 2013) — the coarsest partition of header space such that every
    predicate is a union of atoms.  Flows are then grouped into the paper's
    equivalence classes.

    Variables are identified by non-negative integers; variable order is
    the integer order (smaller index closer to the root).  All operations
    are memoized; a manager owns the unique-table and caches.

    {b Kernel.}  The unique table and the operation caches are
    open-addressed int arrays (linear probing, [-1] for an empty slot,
    doubled before the load passes one half), so a lookup allocates
    nothing and a miss is [-1], not [None].  [bdd_and], [bdd_or],
    [bdd_diff] and [bdd_xor] share one apply recursion, each with its
    own terminal cases and cache, so [bdd_or] and [bdd_diff] build no
    negations.  [cube] sorts its literals by descending variable and
    makes one node per literal, bottom-up.  Tables start small and grow
    on demand, so a fresh manager is cheap.

    {b Results do not depend on the kernel.}  For a fixed variable order
    an ROBDD is canonical: every operation returns the same function
    with the same node structure whatever the evaluation order.  Only
    node ids, which follow allocation order, may differ between kernels,
    and no result exposes one: [equal] compares ids within one manager,
    and [any_sat], [fold_paths], [sat_count], [eval] and [size] read
    structure only. *)

type man
(** BDD manager (unique table + operation caches). *)

type t
(** A node handle, valid for the manager that created it. *)

val man : unit -> man
(** Fresh manager. *)

val bdd_true : man -> t
val bdd_false : man -> t

val var : man -> int -> t
(** [var m i] is the predicate "bit [i] is 1". *)

val nvar : man -> int -> t
(** [nvar m i] is the predicate "bit [i] is 0". *)

val bdd_not : man -> t -> t
val bdd_and : man -> t -> t -> t
val bdd_or : man -> t -> t -> t
val bdd_xor : man -> t -> t -> t
val bdd_diff : man -> t -> t -> t
(** [bdd_diff m a b] is [a && not b]. *)

val bdd_imp : man -> t -> t -> t

val ite : man -> t -> t -> t -> t
(** If-then-else combinator: [ite m f g h] is [(f && g) || (h && not f)]. *)

val exists : man -> int list -> t -> t
(** Existential quantification over the listed variables. *)

val equal : t -> t -> bool
(** Constant-time semantic equality (hash-consing). *)

val is_true : man -> t -> bool
val is_false : man -> t -> bool

val eval : man -> t -> (int -> bool) -> bool
(** [eval m a f] decides [a] under the total assignment [f] (bit [i] is
    [f i]) by a single root-to-terminal descent: O(depth),
    allocation-free.  The classifier's [Predicate.matches] tests a
    concrete packet with it. *)

val cube : man -> (int * bool) list -> t
(** Conjunction of literals: [(i, true)] means bit i set. *)

val sat_count : man -> num_vars:int -> t -> float
(** Number of satisfying assignments over [num_vars] variables (as float:
    header spaces have up to 2^104 points). *)

val any_sat : man -> t -> (int * bool) list option
(** Some satisfying partial assignment (unlisted variables are free), or
    [None] for the false BDD. *)

val fold_paths : man -> t -> init:'a -> f:('a -> (int * bool) list -> 'a) -> 'a
(** Fold over all true paths (partial assignments / wildcard cubes) of the
    BDD.  Used to turn predicates back into TCAM wildcard rules. *)

val size : man -> t -> int
(** Number of distinct internal nodes reachable from [t]. *)

val node_count : man -> int
(** Total nodes ever created in the manager. *)
