module Prefix_split = Apple_classifier.Prefix_split

type phys_match = {
  m_host : [ `Empty | `Host of int | `Fin | `Any ];
  m_subclass : [ `Subclass of int | `Any ];
  m_prefixes : Prefix_split.prefix list;
}

type phys_action =
  | Fwd_to_host of int
  | Tag_and_deliver of { subclass : int; host : int }
  | Tag_and_forward of { subclass : int; host : Tag.host_field }
  | Set_host_and_forward of Tag.host_field
  | Goto_next

type phys_rule = { priority : int; pmatch : phys_match; action : phys_action }

let tcam_entries r = max 1 (List.length r.pmatch.m_prefixes)

type vswitch_port = From_network | From_instance of int | From_production_vm

let vswitch_port_id = function
  | From_network -> -1
  | From_production_vm -> -2
  | From_instance i -> i

type vswitch_action =
  | To_instance of int
  | Back_to_network of Tag.host_field

type vswitch_key =
  | Per_class of { cls : int; subclass : int }
  | Global of int

type vswitch_rule = {
  v_port : vswitch_port;
  v_key : vswitch_key;
  v_action : vswitch_action;
}

let pp_host_match ppf = function
  | `Empty -> Format.pp_print_string ppf "host=empty"
  | `Host h -> Format.fprintf ppf "host=%d" h
  | `Fin -> Format.pp_print_string ppf "host=fin"
  | `Any -> Format.pp_print_string ppf "host=*"

let pp_phys_rule ppf r =
  let action_str =
    match r.action with
    | Fwd_to_host h -> Printf.sprintf "fwd-to-host %d" h
    | Tag_and_deliver { subclass; host } ->
        Printf.sprintf "tag sub=%d, fwd-to-host %d" subclass host
    | Tag_and_forward { subclass; host } ->
        Format.asprintf "tag sub=%d host=%a, goto-next" subclass
          Tag.pp_host_field host
    | Set_host_and_forward h ->
        Format.asprintf "set host=%a, goto-next" Tag.pp_host_field h
    | Goto_next -> "goto-next"
  in
  Format.fprintf ppf "prio=%d %a sub=%s prefixes=%d -> %s" r.priority
    pp_host_match r.pmatch.m_host
    (match r.pmatch.m_subclass with
    | `Any -> "*"
    | `Subclass s -> string_of_int s)
    (List.length r.pmatch.m_prefixes)
    action_str

let pp_vswitch_rule ppf r =
  let port =
    match r.v_port with
    | From_network -> "net"
    | From_instance i -> Printf.sprintf "inst%d" i
    | From_production_vm -> "vm"
  in
  let key =
    match r.v_key with
    | Per_class { cls; subclass } -> Printf.sprintf "class=%d sub=%d" cls subclass
    | Global g -> Printf.sprintf "gtag=%d" g
  in
  let action =
    match r.v_action with
    | To_instance i -> Printf.sprintf "to-inst%d" i
    | Back_to_network h -> Format.asprintf "out host=%a" Tag.pp_host_field h
  in
  Format.fprintf ppf "in=%s %s -> %s" port key action
