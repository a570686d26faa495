module RO = Apple_core.Resource_orchestrator
module Nf = Apple_vnf.Nf
module I = Apple_vnf.Instance
module E = Apple_sim.Engine

let mk ?(cores = 16) ?(hosts = 3) () =
  RO.create ~host_cores:(Array.make hosts cores)

let test_accounting () =
  let t = mk () in
  Alcotest.(check int) "total" 48 (RO.total_cores t);
  Alcotest.(check int) "all free" 16 (RO.available_cores t 0);
  let fw = RO.launch t Nf.Firewall ~host:0 in
  Alcotest.(check int) "4 cores used" 4 (RO.used_cores t 0);
  Alcotest.(check int) "12 free" 12 (RO.available_cores t 0);
  Alcotest.(check int) "other hosts untouched" 16 (RO.available_cores t 1);
  RO.destroy t fw;
  Alcotest.(check int) "released" 0 (RO.used_cores t 0)

let test_out_of_resources () =
  let t = mk ~cores:10 () in
  let _ = RO.launch t Nf.Ids ~host:0 in
  (* 8 cores used; another IDS (8) cannot fit *)
  Alcotest.(check bool) "raises" true
    (try
       ignore (RO.launch t Nf.Ids ~host:0);
       false
     with RO.Out_of_resources { host = 0; wanted = 8; available = 2 } -> true);
  (* a NAT (2 cores) still fits exactly *)
  let _ = RO.launch t Nf.Nat ~host:0 in
  Alcotest.(check int) "full" 0 (RO.available_cores t 0)

let test_instances_listing () =
  let t = mk () in
  let a = RO.launch t Nf.Firewall ~host:0 in
  let b = RO.launch t Nf.Nat ~host:1 in
  let c = RO.launch t Nf.Proxy ~host:0 in
  Alcotest.(check (list int)) "launch order" [ I.id a; I.id b; I.id c ]
    (List.map I.id (RO.instances t));
  Alcotest.(check (list int)) "per host" [ I.id a; I.id c ]
    (List.filter_map
       (fun i -> if I.host i = 0 then Some (I.id i) else None)
       (RO.instances t))

let test_destroy_idempotent () =
  let t = mk () in
  let a = RO.launch t Nf.Firewall ~host:0 in
  RO.destroy t a;
  RO.destroy t a;
  Alcotest.(check int) "not double-released" 0 (RO.used_cores t 0)

let test_adopt () =
  let t = mk () in
  let pre =
    [
      I.create ~id:100 ~spec:(Nf.spec Nf.Firewall) ~host:0;
      I.create ~id:101 ~spec:(Nf.spec Nf.Ids) ~host:1;
    ]
  in
  RO.adopt t pre;
  Alcotest.(check int) "fw cores" 4 (RO.used_cores t 0);
  Alcotest.(check int) "ids cores" 8 (RO.used_cores t 1);
  (* new launches get fresh ids above the adopted ones *)
  let n = RO.launch t Nf.Nat ~host:2 in
  Alcotest.(check bool) "id continues" true (I.id n >= 102)

let test_adopt_overflow () =
  let t = mk ~cores:4 () in
  Alcotest.(check bool) "adoption checks budgets" true
    (try
       RO.adopt t
         [
           I.create ~id:0 ~spec:(Nf.spec Nf.Ids) ~host:0;
         ];
       false
     with RO.Out_of_resources _ -> true)

let test_boot_readiness () =
  let t = mk () in
  let world = E.create () in
  let rng = Apple_prelude.Rng.create 4 in
  let inst = RO.launch t ~world ~rng ~boot:Apple_vnf.Lifecycle.Raw_clickos Nf.Firewall ~host:0 in
  Alcotest.(check bool) "not ready before boot" false (RO.is_ready t inst);
  E.run world;
  Alcotest.(check bool) "ready after boot + rules" true (RO.is_ready t inst);
  (* without a world, ready immediately *)
  let now = RO.launch t Nf.Nat ~host:1 in
  Alcotest.(check bool) "instant without world" true (RO.is_ready t now)

let test_snapshot_available () =
  let t = mk () in
  let _ = RO.launch t Nf.Ids ~host:2 in
  Alcotest.(check (array int)) "A_v vector" [| 16; 16; 8 |] (RO.snapshot_available t)

let suite =
  [
    Alcotest.test_case "accounting" `Quick test_accounting;
    Alcotest.test_case "out of resources" `Quick test_out_of_resources;
    Alcotest.test_case "instances listing" `Quick test_instances_listing;
    Alcotest.test_case "destroy idempotent" `Quick test_destroy_idempotent;
    Alcotest.test_case "adopt" `Quick test_adopt;
    Alcotest.test_case "adopt overflow" `Quick test_adopt_overflow;
    Alcotest.test_case "boot readiness" `Quick test_boot_readiness;
    Alcotest.test_case "snapshot available" `Quick test_snapshot_available;
  ]
