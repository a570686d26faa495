(** The Rule Generator (paper Sec. III and V-B): turns the sub-class
    assignment into concrete switch tables.

    With the {b tagging scheme}, the ingress switch of each class carries
    the (wildcard-prefix) classification rules that stamp the sub-class ID
    and the first host ID; every other switch only needs one host-match
    rule per referenced APPLE host plus one pass-by rule (Table III).
    vSwitch rules implement the [<in_port, class, sub-class>] pipeline
    inside each APPLE host.

    {b Without tagging} — the baseline of Fig. 10 — every switch that must
    recognize the flow (each processing hop, and, because wildcard rules
    cannot tell ECMP siblings apart, each corresponding hop on every
    sibling path of the same origin–destination pair) carries the full
    per-sub-class prefix classification, twice (divert and resume). *)

(** Sub-class tag semantics (Sec. V-B vs Sec. X):
    - [`Local]: the tag is a class-local sub-class id, multiplexed across
      classes; vSwitch rules recover the class from the packet header.
      Cheap on tag bits but breaks once a header-rewriting NF (NAT) has
      touched the packet.
    - [`Global]: the tag is a network-unique sub-class id; vSwitch rules
      match the tag alone.  Survives header rewriting at the cost of a
      wider tag space (must fit the 12-bit VLAN field). *)
type tag_mode = [ `Local | `Global ]

type built = {
  network : Apple_dataplane.Tcam.network;
  tcam_with_tagging : int;
  tcam_without_tagging : int;
  vswitch_rules : int;
  split_depth : int;  (** quantization depth used for prefix splitting *)
  tag_mode : tag_mode;  (** the mode the tables were generated with *)
  global_tags_used : int;
      (** distinct global ids consumed (0 in [`Local] mode); must stay
          under {!Apple_dataplane.Tag.max_subclasses} *)
  tag_of : (int, int) Hashtbl.t;
      (** {!Subclass.key} -> sub-class tag value stamped by the emitted
          classification rules (the sub id itself in [`Local] mode, the
          allocated dense id in [`Global] mode).  The static verifier
          checks walks and tag-space collisions against this map. *)
}

val needs_global_tags : Types.scenario -> bool
(** True when some policy chain contains a header-rewriting NF, so
    [`Local] tables would mis-forward (Sec. X). *)

val build :
  ?split_depth:int ->
  ?tag_mode:[ tag_mode | `Auto ] ->
  Types.scenario ->
  Subclass.assignment ->
  built
(** [split_depth] (default 6) bounds sub-class weight quantization to
    multiples of 2^-depth when carving source prefixes.  [tag_mode]
    defaults to [`Auto]: [`Global] iff {!needs_global_tags}. *)

val reduction_ratio : built -> float
(** tcam_without_tagging / tcam_with_tagging — the Fig. 10 metric. *)

val tags_left : built -> int
(** Remaining sub-class tag values in the 12-bit VLAN field: the
    unallocated dense ids for [`Global] tables, the headroom above the
    largest class-local sub id for [`Local] ones.  Negative when the
    tables already overflow the field — the verifier reports that as a
    tag collision; the slice admission gate rejects it as tag-space
    exhaustion before the slice ever commits. *)

val by_class :
  Types.scenario -> Subclass.assignment -> Subclass.subclass list array
(** The assignment's sub-classes grouped by class id, each group in
    assignment order; one pass over the assignment. *)

val subclass_prefixes :
  Types.flow_class -> Subclass.subclass list -> depth:int ->
  Apple_classifier.Prefix_split.prefix list array
(** The source-prefix realization of the sub-class weights (exposed for
    tests: realized weights must approximate the requested ones). *)

val representatives :
  Types.scenario -> Subclass.assignment -> built ->
  (Types.flow_class
  * (Subclass.subclass * Apple_classifier.Prefix_split.prefix) list)
  list
(** Per class in scenario order, each of its sub-classes in assignment
    order with the first prefix of its {!subclass_prefixes} realization
    at [built]'s split depth: the source address of the sub-class's
    representative packet walk.  Classes without sub-classes and
    sub-classes realized by no prefix are left out. *)
