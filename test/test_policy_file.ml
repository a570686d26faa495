module C = Apple_core
module PF = C.Policy_file
module FA = C.Flow_aggregation
module P = Apple_classifier.Predicate
module H = Apple_classifier.Header
module Nf = Apple_vnf.Nf
module B = Apple_topology.Builders

let parse text =
  let e = P.env () in
  (e, PF.parse ~env:e ~topology:(B.internet2 ()) text)

let test_example_parses () =
  let _, r = parse PF.example in
  match r with
  | Ok flows ->
      Alcotest.(check int) "four policies" 4 (List.length flows);
      let web = List.hd flows in
      Alcotest.(check string) "name" "web-out" web.FA.description;
      Alcotest.(check int) "ingress Seattle" 0 web.FA.ingress;
      Alcotest.(check int) "egress NewYork" 10 web.FA.egress;
      Alcotest.(check bool) "chain" true
        (web.FA.chain = [ Nf.Firewall; Nf.Proxy ]);
      Alcotest.(check (float 1e-9)) "rate" 120.0 web.FA.rate
  | Error e -> Alcotest.failf "parse: %a" PF.pp_error e

let test_predicate_semantics () =
  let _, r = parse PF.example in
  match r with
  | Error e -> Alcotest.failf "parse: %a" PF.pp_error e
  | Ok flows ->
      let web = List.hd flows in
      let pkt ~src ~dport =
        {
          H.src_ip = H.ip_of_string src;
          dst_ip = H.ip_of_string "1.1.1.1";
          proto = 6;
          src_port = 999;
          dst_port = dport;
        }
      in
      Alcotest.(check bool) "matches" true
        (P.matches web.FA.predicate (pkt ~src:"10.1.7.7" ~dport:80));
      Alcotest.(check bool) "wrong port" false
        (P.matches web.FA.predicate (pkt ~src:"10.1.7.7" ~dport:81));
      Alcotest.(check bool) "wrong block" false
        (P.matches web.FA.predicate (pkt ~src:"10.9.7.7" ~dport:80))

let test_numeric_nodes_and_ranges () =
  let _, r =
    parse "a: dport 1000-2000 from 3 to 7 via firewall rate 10\n"
  in
  match r with
  | Error e -> Alcotest.failf "parse: %a" PF.pp_error e
  | Ok [ f ] ->
      Alcotest.(check int) "numeric from" 3 f.FA.ingress;
      Alcotest.(check int) "numeric to" 7 f.FA.egress;
      let pkt dport =
        { H.src_ip = 1; dst_ip = 2; proto = 6; src_port = 1; dst_port = dport }
      in
      Alcotest.(check bool) "in range" true (P.matches f.FA.predicate (pkt 1500));
      Alcotest.(check bool) "out of range" false (P.matches f.FA.predicate (pkt 2500))
  | Ok _ -> Alcotest.fail "expected one flow"

let test_comments_and_blanks () =
  let _, r = parse "# hello\n\n  \na: from 0 to 1 via nat rate 1\n# bye\n" in
  match r with
  | Ok flows -> Alcotest.(check int) "one flow" 1 (List.length flows)
  | Error e -> Alcotest.failf "parse: %a" PF.pp_error e

let expect_error text want_line =
  let _, r = parse text in
  match r with
  | Ok _ -> Alcotest.failf "accepted %S" text
  | Error e -> Alcotest.(check int) "line number" want_line e.PF.line

let test_error_lines () =
  expect_error "a from 0 to 1 via nat rate 1\n" 1;  (* missing ':' *)
  expect_error "# ok\nbad: from 0 to 1 via nat\n" 2;  (* missing rate *)
  expect_error "x: from Atlantis to 1 via nat rate 1\n" 1;  (* bad node *)
  expect_error "x: from 0 to 1 via dpi rate 1\n" 1;  (* unknown NF *)
  expect_error "x: src 10.0.0.0/40 from 0 to 1 via nat rate 1\n" 1;  (* bad prefix *)
  expect_error "x: from 0 to 99 via nat rate 1\n" 1;  (* node out of range *)
  expect_error "x: dport 90-80 from 0 to 1 via nat rate 1\n" 1;  (* empty port range *)
  expect_error "x: sport 70000 from 0 to 1 via nat rate 1\n" 1;  (* port above 16 bits *)
  expect_error "x: proto 300 from 0 to 1 via nat rate 1\n" 1  (* protocol above 8 bits *)

let test_end_to_end_policy_pipeline () =
  (* Policy file -> aggregation -> optimization -> verified data plane. *)
  let e = P.env () in
  let topo = B.internet2 () in
  match PF.parse ~env:e ~topology:topo PF.example with
  | Error err -> Alcotest.failf "parse: %a" PF.pp_error err
  | Ok flows ->
      let r = FA.aggregate ~env:e topo flows in
      (* web-out and web-alt share (path, chain): 3 classes *)
      Alcotest.(check int) "aggregated classes" 3
        (Array.length r.FA.scenario.C.Types.classes);
      let controller = C.Controller.create r.FA.scenario in
      let _ = C.Controller.run_epoch controller in
      (match C.Controller.verify controller with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)

let test_parse_file_roundtrip () =
  let path = Filename.temp_file "apple_policy" ".txt" in
  let oc = open_out path in
  output_string oc PF.example;
  close_out oc;
  let e = P.env () in
  (match PF.parse_file ~env:e ~topology:(B.internet2 ()) ~path with
  | Ok flows -> Alcotest.(check int) "four flows" 4 (List.length flows)
  | Error err -> Alcotest.failf "parse_file: %a" PF.pp_error err);
  Sys.remove path

let suite =
  [
    Alcotest.test_case "example parses" `Quick test_example_parses;
    Alcotest.test_case "predicate semantics" `Quick test_predicate_semantics;
    Alcotest.test_case "numeric nodes and ranges" `Quick test_numeric_nodes_and_ranges;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "error lines" `Quick test_error_lines;
    Alcotest.test_case "policy pipeline end-to-end" `Quick test_end_to_end_policy_pipeline;
    Alcotest.test_case "parse_file" `Quick test_parse_file_roundtrip;
  ]
