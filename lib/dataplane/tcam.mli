(** Per-switch flow tables with TCAM accounting.

    A switch's APPLE table holds host-match, classification and pass-by
    rules (Table III); the vSwitch of its APPLE host holds the three-tuple
    rules.  TCAM cost is what Fig. 10 measures: with pipelining each rule
    costs its own entries; without pipelining the semantics need the
    cross-product of the APPLE table and the next table. *)

type t

val create : switch:int -> t
val switch : t -> int

val writes : t -> int
(** How many times the table has been written: every call of
    {!add_phys}, {!add_vswitch}, {!set_phys}, {!set_vswitch} and
    {!retain_phys} counts one.  Lookups never count, including the one
    that folds newly added vSwitch rules into the index.  The controller
    compares these counts with the ones it recorded after its own writes
    to tell whether anything else has changed its tables since. *)

val add_phys : t -> Rule.phys_rule -> unit
(** Insert before the first entry of equal or lower priority: the
    newest rule of a priority band matches first.  Costs the entries
    ahead of it. *)

val add_vswitch : t -> Rule.vswitch_rule -> unit

val phys_rules : t -> Rule.phys_rule list
(** Descending priority. *)

val phys_entries : t -> (int * Rule.phys_rule) list
(** Descending priority, with each rule's install-time uid — the key
    under which {!Apple_obs.Counters} accumulates match/byte counters
    (the moral equivalent of an OpenFlow cookie). *)

val vswitch_rules : t -> Rule.vswitch_rule list
(** Match order (first match wins). *)

val set_phys : t -> Rule.phys_rule list -> unit
(** Replace the whole APPLE table (rules are re-sorted by descending
    priority, stable).  Meant for fault injection in verifier tests. *)

val set_vswitch : t -> Rule.vswitch_rule list -> unit
(** Replace the vSwitch table, keeping the given match order. *)

val retain_phys : t -> keep:(int -> bool) -> int
(** Drop every APPLE-table entry whose uid fails [keep], preserving the
    uids (and counters) of survivors; returns the number of entries
    lost.  Models partial TCAM rule loss (e.g. a line-card reset) for
    fault injection — unlike {!set_phys} it does not re-number rules, so
    a subsequent reinstall is observable as fresh uids. *)

val tcam_entries : t -> int
(** Entries in the physical switch's APPLE table (pipelined layout). *)

val tcam_entries_crossproduct : t -> other_table:int -> int
(** Entries if the switch cannot pipeline and must merge the APPLE table
    with a next table of [other_table] rules (upper bound: product). *)

val vswitch_entries : t -> int

type network = t array
(** One table set per switch. *)

val network : num_switches:int -> network
val total_tcam : network -> int
val total_vswitch : network -> int

val add_network : Buffer.t -> network -> unit
(** Append every table as text: [sw <id>], then one [p <uid> <rule>]
    line per APPLE-table entry and one [v <rule>] line per vSwitch rule,
    in match order.  The table half of the soak and slice state
    digests. *)

val host_matches : [ `Empty | `Host of int | `Fin | `Any ] -> Tag.tags -> bool
(** Does the rule's host pattern admit the packet's host tag?  [`Any]
    admits everything; [`Empty], [`Fin] and [`Host h] each admit exactly
    their own tag value. *)

val lookup_phys : t -> Tag.tags -> src_ip:int -> Rule.phys_action option
(** Highest-priority matching rule's action, mimicking the Fig. 2 walk.
    When {!Apple_obs.Counters.enabled}, the matched rule's counter is
    bumped (with zero bytes). *)

val lookup_phys_entry :
  ?bytes:int -> t -> Tag.tags -> src_ip:int -> (int * Rule.phys_action) option
(** Like {!lookup_phys} but also returns the matched rule's uid, and
    credits [bytes] (default 0) to its byte counter when counters are
    enabled. *)

val lookup_vswitch :
  t ->
  Rule.vswitch_port ->
  cls:int option ->
  subclass:int ->
  Rule.vswitch_action option
(** The action of the first rule in {!vswitch_rules} order whose port is
    the given one and whose key is [Per_class {cls; subclass}] or
    [Global subclass]; when both keys have a rule, the one installed
    first wins.  [cls = None] models a packet whose header was rewritten
    by an NF: header-derived class matching is impossible, so only
    {!Rule.Global} keyed rules can match.

    A lookup makes two binary searches (one when [cls = None]) over the
    table's (port, key) pairs, sorted and kept as ints, so it costs
    O(log n) and allocates only the returned option.  The first lookup
    after {!add_vswitch} or {!set_vswitch} re-sorts the table: O(n log n),
    once per batch of changes. *)
