(** Text format for NF policies — the operator-facing front door.

    One policy per line:

    {v
    # comment
    web-out:    src 10.1.0.0/16 dport 80  from Seattle to NewYork  via firewall, proxy      rate 120
    dmz:        src 10.3.0.0/16           from Seattle to NewYork  via firewall, ids        rate 50
    east-nat:   src 10.4.0.0/16 proto 17  from NewYork to Seattle  via nat, firewall        rate 60
    v}

    Grammar per line (whitespace-separated, order of clauses fixed):

    {v <name> ':' <match>* 'from' <node> 'to' <node> 'via' <chain> 'rate' <mbps> v}

    where [<match>] is any of [src A.B.C.D/L], [dst A.B.C.D/L],
    [proto N], [sport N], [dport N], [dport N-M], [sport N-M] (protocols
    0-255, ports 0-65535 with [N <= M]; no match clause means "all
    traffic"), [<node>] is a node name or numeric id of
    the topology, and [<chain>] is a comma-separated NF list accepted by
    {!Apple_vnf.Nf.chain_of_string}.

    Parsed policies feed {!Flow_aggregation.aggregate} directly. *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse :
  env:Apple_classifier.Predicate.env ->
  topology:Apple_topology.Builders.named ->
  string ->
  (Flow_aggregation.raw_flow list, error) result
(** Parse a whole policy file (the string contents).  Stops at the first
    error, reporting its 1-based line number. *)

val parse_file :
  env:Apple_classifier.Predicate.env ->
  topology:Apple_topology.Builders.named ->
  path:string ->
  (Flow_aggregation.raw_flow list, error) result

val example : string
(** A syntactically-valid example file for documentation and tests. *)
