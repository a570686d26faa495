module P = Apple_classifier.Predicate
module Graph = Apple_topology.Graph
module Builders = Apple_topology.Builders
module Nf = Apple_vnf.Nf

type error = { line : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "line %d: %s" e.line e.message

exception Parse of string

let fail fmt = Format.kasprintf (fun m -> raise (Parse m)) fmt

let parse_node topology token =
  match Graph.node_by_name topology.Builders.graph token with
  | Some v -> v
  | None -> (
      match int_of_string_opt token with
      | Some v when v >= 0 && v < Graph.num_nodes topology.Builders.graph -> v
      | Some _ -> fail "node id %s out of range" token
      | None -> fail "unknown node %S" token)

let parse_prefix token =
  match String.split_on_char '/' token with
  | [ ip; len ] -> (
      match int_of_string_opt len with
      | Some l when l >= 0 && l <= 32 -> (
          try (Apple_classifier.Header.ip_of_string ip, l)
          with Invalid_argument _ -> fail "bad address %S" ip)
      | _ -> fail "bad prefix length in %S" token)
  | _ -> fail "expected A.B.C.D/len, got %S" token

let parse_int token =
  match int_of_string_opt token with
  | Some v -> v
  | None -> fail "expected a number, got %S" token

(* A number that must fit its header field: 8-bit protocol, 16-bit port. *)
let parse_field what ~max token =
  let v = parse_int token in
  if v < 0 || v > max then fail "%s %d out of range 0-%d" what v max;
  v

let parse_proto = parse_field "protocol" ~max:255
let parse_port = parse_field "port" ~max:65535

let parse_port_spec token =
  let lo, hi =
    match String.index_opt token '-' with
    | Some i ->
        ( parse_port (String.sub token 0 i),
          parse_port (String.sub token (i + 1) (String.length token - i - 1)) )
    | None ->
        let v = parse_port token in
        (v, v)
  in
  if lo > hi then fail "empty port range %S" token;
  (lo, hi)

(* Parse the match clauses up to the 'from' keyword, returning the
   predicate and the remaining tokens. *)
let rec parse_matches ~env acc = function
  | "from" :: rest -> (acc, rest)
  | "src" :: v :: rest ->
      let addr, len = parse_prefix v in
      parse_matches ~env (P.( &&& ) acc (P.src_prefix_int env addr len)) rest
  | "dst" :: v :: rest ->
      let addr, len = parse_prefix v in
      parse_matches ~env (P.( &&& ) acc (P.dst_prefix_int env addr len)) rest
  | "proto" :: v :: rest ->
      parse_matches ~env (P.( &&& ) acc (P.proto env (parse_proto v))) rest
  | "sport" :: v :: rest ->
      let lo, hi = parse_port_spec v in
      parse_matches ~env (P.( &&& ) acc (P.src_port_range env lo hi)) rest
  | "dport" :: v :: rest ->
      let lo, hi = parse_port_spec v in
      parse_matches ~env (P.( &&& ) acc (P.dst_port_range env lo hi)) rest
  | tok :: _ -> fail "unexpected token %S (expected a match clause or 'from')" tok
  | [] -> fail "missing 'from <node>'"

let parse_line ~env ~topology line =
  (* name: clauses... *)
  match String.index_opt line ':' with
  | None -> fail "missing ':' after the policy name"
  | Some i ->
      let name = String.trim (String.sub line 0 i) in
      if name = "" then fail "empty policy name";
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      let tokens =
        String.split_on_char ' ' rest
        |> List.concat_map (String.split_on_char '\t')
        |> List.map String.trim
        |> List.filter (fun t -> t <> "")
      in
      let predicate, tokens = parse_matches ~env (P.always env) tokens in
      let ingress, tokens =
        match tokens with
        | node :: rest -> (parse_node topology node, rest)
        | [] -> fail "missing source node after 'from'"
      in
      let tokens =
        match tokens with
        | "to" :: rest -> rest
        | tok :: _ -> fail "expected 'to', got %S" tok
        | [] -> fail "missing 'to <node>'"
      in
      let egress, tokens =
        match tokens with
        | node :: rest -> (parse_node topology node, rest)
        | [] -> fail "missing destination node after 'to'"
      in
      let tokens =
        match tokens with
        | "via" :: rest -> rest
        | tok :: _ -> fail "expected 'via', got %S" tok
        | [] -> fail "missing 'via <chain>'"
      in
      (* chain tokens run until 'rate' *)
      let rec split_chain acc = function
        | "rate" :: rest -> (List.rev acc, rest)
        | tok :: rest -> split_chain (tok :: acc) rest
        | [] -> fail "missing 'rate <mbps>'"
      in
      let chain_tokens, tokens = split_chain [] tokens in
      let chain =
        try Nf.chain_of_string (String.concat " " chain_tokens)
        with Invalid_argument m -> fail "%s" m
      in
      let rate =
        match tokens with
        | [ v ] -> (
            match float_of_string_opt v with
            | Some r when r >= 0.0 -> r
            | _ -> fail "bad rate %S" v)
        | [] -> fail "missing rate value"
        | _ -> fail "trailing tokens after the rate"
      in
      {
        Flow_aggregation.description = name;
        predicate;
        ingress;
        egress;
        chain;
        rate;
      }

let parse ~env ~topology text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) acc rest
        else (
          match parse_line ~env ~topology trimmed with
          | flow -> go (lineno + 1) (flow :: acc) rest
          | exception Parse message -> Error { line = lineno; message })
  in
  go 1 [] lines

let parse_file ~env ~topology ~path =
  try
    let ic = open_in path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    parse ~env ~topology text
  with Sys_error m -> Error { line = 0; message = m }

let example =
  "# APPLE policy file\n\
   web-out:  src 10.1.0.0/16 dport 80   from Seattle to NewYork  via firewall, proxy  rate 120\n\
   web-alt:  src 10.2.0.0/16 dport 80   from Seattle to NewYork  via firewall, proxy  rate 80\n\
   dmz:      src 10.3.0.0/16            from Seattle to NewYork  via firewall, ids    rate 50\n\
   east-nat: src 10.4.0.0/16 proto 17   from NewYork to Seattle  via nat, firewall    rate 60\n"
