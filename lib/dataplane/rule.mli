(** Flow-table rules: the physical-switch TCAM layout of Table III and
    the vSwitch three-tuple rules of Sec. V-B.

    A physical switch runs a pipelined pair of tables: the APPLE table
    (host-match, classification, pass-by) and then the "next table"
    holding other applications' rules.  A classification entry matches a
    sub-class by a set of source prefixes, so its TCAM footprint is the
    number of prefixes. *)

type phys_match = {
  m_host : [ `Empty | `Host of int | `Fin | `Any ];
  m_subclass : [ `Subclass of int | `Any ];
  m_prefixes : Apple_classifier.Prefix_split.prefix list;
      (** empty list = wildcard on the header *)
}

type phys_action =
  | Fwd_to_host of int  (** deliver to the APPLE host at this switch *)
  | Tag_and_deliver of { subclass : int; host : int }
      (** ingress classification, first processing host is local *)
  | Tag_and_forward of { subclass : int; host : Tag.host_field }
      (** ingress classification, processing starts downstream; fall
          through to the next table for normal forwarding *)
  | Set_host_and_forward of Tag.host_field
      (** retag the next host when a packet leaves an APPLE host *)
  | Goto_next  (** pass-by: no APPLE processing at this switch *)

type phys_rule = {
  priority : int;
  pmatch : phys_match;
  action : phys_action;
}

val tcam_entries : phys_rule -> int
(** TCAM entries the rule occupies: [max 1 (List.length m_prefixes)]. *)

(** vSwitch rules match [<in_port, class, sub-class>].  [in_port] is
    enough to know which instances the packet has already traversed.

    The {e class} part of the triple is recovered from the packet header,
    so it breaks once a header-rewriting NF (e.g. NAT) has touched the
    packet.  The Sec.-X fix is the {!Global} key: a network-unique
    sub-class identifier written at the ingress, which needs no header
    matching at all. *)
type vswitch_port =
  | From_network
  | From_instance of int  (** local VNF instance id *)
  | From_production_vm

val vswitch_port_id : vswitch_port -> int
(** [From_network] is -1, [From_production_vm] -2 and [From_instance i]
    is [i]. *)

type vswitch_action =
  | To_instance of int
  | Back_to_network of Tag.host_field  (** retag the next host and emit *)

type vswitch_key =
  | Per_class of { cls : int; subclass : int }
      (** class from the header + the class-local sub-class tag *)
  | Global of int  (** network-unique sub-class tag; header-independent *)

type vswitch_rule = {
  v_port : vswitch_port;
  v_key : vswitch_key;
  v_action : vswitch_action;
}

val pp_phys_rule : Format.formatter -> phys_rule -> unit
val pp_vswitch_rule : Format.formatter -> vswitch_rule -> unit
