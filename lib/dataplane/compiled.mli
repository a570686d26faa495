(** Compiled flow tables: the raw-speed dataplane (ROADMAP item 2).

    {!Tcam} interprets each lookup rule-by-rule over a priority-sorted
    list.  This module compiles a table into a dispatch structure —

    - a {b tag-keyed dispatch array} over the sub-class tag (slot 0 for
      untagged / unnamed tags, slot [s+1] for tag [s]),
    - a host-code dispatch per slot (named host patterns hash to their
      merged candidate list, everything else falls to the
      wildcard-host bucket), and
    - per bucket an {b IP decision stage}: every entry's prefix set is
      compiled to a hash-consed BDD over the 32 source-address bits and
      chained into disjoint first-match guards ([p_i] minus every
      earlier predicate), which prunes shadowed entries outright; small
      buckets are then decided by evaluating the BDD guards directly,
      large ones are flattened into a flat-arena bit trie with an O(32)
      descent —

    and caches the result in the table's {!Tcam.cache_slot}, stamped
    with {!Tcam.generation}: any mutation ([set_phys], [retain_phys],
    [add_*], [set_vswitch]) invalidates the compile, which is rebuilt
    lazily at the next lookup.  Failure masks are deliberately {e not}
    baked in: {!Walk} checks liveness dynamically, so failmask flips
    never require a recompile.

    Lookup results, counter credits ({!Apple_obs.Counters.rule_hit})
    and misses are bit-for-bit identical to the interpreted path —
    [test/test_dataplane_diff.ml] holds the two implementations equal
    under QCheck. *)

type mode = Interp | Compiled

val mode : unit -> mode
val set_mode : mode -> unit
(** Process-wide engine selector (default [Interp]); {!Walk} consults
    it on every lookup.  The CLI exposes it as [--dataplane]. *)

val mode_of_string : string -> (mode, string) result
val mode_to_string : mode -> string

val lookup_phys_entry :
  ?bytes:int -> Tcam.t -> Tag.tags -> src_ip:int -> (int * Rule.phys_action) option
(** Drop-in equivalent of {!Tcam.lookup_phys_entry} over the compiled
    structure (compiling it first if the cache is missing or stale). *)

val lookup_vswitch :
  Tcam.t ->
  Rule.vswitch_port ->
  cls:int option ->
  subclass:int ->
  Rule.vswitch_action option
(** Drop-in equivalent of {!Tcam.lookup_vswitch}: O(1) probes of the
    compiled (port, key) dispatch tables, first-match resolved by
    install-order index. *)

val warm : Tcam.network -> unit
(** Compile every (stale) table up front — a no-op in [Interp] mode.
    {!Walk.run_batch} calls this so the batch loop itself never takes a
    compile hit. *)

val stats : unit -> int
(** Table compiles performed since the last {!reset_stats}.  Tests use
    it to pin the invalidate/rebuild lifecycle. *)

val reset_stats : unit -> unit
