(** Static dataplane verifier: machine-checks APPLE's three guarantees
    (paper Sec. III) over a generated configuration {e before} it is
    installed.

    The Rule Generator emits physical-switch and vSwitch tables realizing
    a sub-class assignment.  {!check} proves, per sub-class, by symbolic
    header-space exploration over exact source-address sets
    ({!Apple_classifier.Src_set}):

    - {b chain order} — every packet walk reachable from the sub-class's
      source block visits its policy chain's NF kinds in order, exactly
      once each;
    - {b interference freedom} — the switch-level projection of every walk
      equals the routing path chosen before placement: deliveries happen
      only at local hops, every forwarding tag points to a later hop of
      the path, and classified traffic finishes with the [Fin] tag;
    - {b isolation & capacity} — each pinned instance has the NF kind of
      its chain stage, lives at the hop switch it serves, never serves two
      positions of one walk, and the summed pinned traffic portions
      respect instance capacity.

    On top of the per-sub-class invariants, the tables themselves are
    checked for well-formedness: fully-shadowed TCAM rules (a rule whose
    whole match set is claimed by higher-priority rules), vSwitch
    forwarding loops and dead-end pipelines, and tag-space collisions
    (12-bit overflow, duplicate tag values, overlapping classification
    rules that stamp different tags).

    Every failure is reported as a structured {!violation} carrying a
    concrete witness — a packet (the one the BDD's [any_sat] would give
    for the offending source set), a source block, or the offending rule
    — so a rejected configuration is debuggable without replaying
    traffic.

    The symbolic walk mirrors {!Apple_dataplane.Walk.run}: switch tables
    are consulted highest priority first, the residual (unmatched) header
    space flows to the next rule, and every non-empty intersection forks
    one branch.  Tag state is concrete (rules stamp constants), so the
    only symbolic dimension is the source address, and every set the
    analysis builds is a union of source prefixes.  Each set operation is
    one linear merge of sorted intervals, with no state kept between
    checks.  The walk count stays linear in practice: one branch per
    sub-class plus one pass-by branch. *)

module Types = Apple_core.Types
module Subclass = Apple_core.Subclass
module Rule_generator = Apple_core.Rule_generator

(** Fault classes.  Mutation tests inject one fault per class and assert
    the verifier flags exactly that class with a witness. *)
type code =
  | Chain_order  (** walk skips, repeats or reorders chain stages *)
  | Path_deviation
      (** delivery to a non-local host, a forwarding tag pointing off the
          remaining routing path, or classified traffic ending without
          [Fin] — the walk cannot complete on the chosen path *)
  | Blackhole
      (** a reachable packet matches no physical rule, or a vSwitch
          pipeline dead-ends before [Back_to_network] *)
  | Forwarding_loop  (** a vSwitch pipeline revisits a port *)
  | Shadowed_rule
      (** a rule (physical or vSwitch) that can never match because
          earlier rules claim its entire match set *)
  | Tag_collision
      (** tag outside the 12-bit field, two sub-classes sharing a tag,
          overlapping classification rules stamping different tags, or a
          walk classified into a foreign sub-class's tag *)
  | Isolation
      (** a stage without a pinned instance, a pinned instance of the
          wrong NF kind or living off its hop switch, one instance
          serving two positions of a walk, or a walk processed by
          instances the assignment never pinned for it *)
  | Capacity  (** summed pinned portions exceed an instance's capacity *)
  | Unverified
      (** the analysis budget was exhausted before certifying the
          sub-class; the configuration must not be trusted *)

val code_name : code -> string
(** Stable kebab-case identifier, e.g. ["chain-order"]. *)

type witness =
  | Packet of Apple_classifier.Header.packet
      (** concrete header reaching the fault *)
  | Block of Apple_classifier.Prefix_split.prefix
      (** source block exhibiting the fault *)
  | Note of string  (** offending rule or load figure, pretty-printed *)

type violation = {
  code : code;
  class_id : int option;
  sub_id : int option;
  switch : int option;
  witness : witness;
  detail : string;
}

type report = {
  violations : violation list;  (** detection order; empty = certified *)
  subclasses : int;  (** sub-classes analyzed *)
  walks : int;  (** symbolic walks completed (only those in scope) *)
  phys_rules : int;  (** physical rules inspected *)
  vswitch_rules : int;  (** vSwitch rules inspected *)
  instances : int;  (** provisioned instances audited *)
}

val check :
  ?changed:int list ->
  Types.scenario ->
  Subclass.assignment ->
  Rule_generator.built ->
  report
(** Run the static analysis.  Instance capacity allows a
    multiplicative headroom of 1.0001, matching
    {!Subclass.instance_load_ok}.  Deterministic: violations come out in
    a fixed order for a given configuration.

    Without [changed] every section runs in full.  With it, the
    shadowed-rule, classifier-overlap and vSwitch-pipeline checks run
    only at the switches in [changed], and the walks only for the
    classes whose path crosses one of them; tag space, isolation and
    capacity still run in full.

    Precondition for [changed]: this check certified (0 violations) a
    configuration from which the given one differs only in the tables
    of the switches in [changed], in stage pins that named an instance
    hosted at one of them, in the instances provisioned there, and in
    class rates.  The result then lists the same violations, in the
    same order, as the full check would; only [walks] is smaller.
    {!Apple_core.Controller.recheck_gate} passes the switches its
    one-table heals rewrote since the gate's last [Ok]. *)

val ok : report -> bool
val count : report -> code -> int
(** Violations of one fault class in the report. *)

val summary : report -> string
(** One line: certification or the violation tally by fault class. *)

val gate :
  ?changed:int list ->
  Types.scenario ->
  Subclass.assignment ->
  Rule_generator.built ->
  (unit, string) result
(** {!check} (with [changed] passed on) shaped as a
    {!Apple_core.Controller.gate}: [Ok ()] on a
    certified configuration, [Error (summary ^ first violations)]
    otherwise.  Install with
    [Controller.create ~gate:Verify.gate scenario]. *)

val pp_witness : Format.formatter -> witness -> unit
val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
(** Full human-readable report: the scorecard then every violation. *)
