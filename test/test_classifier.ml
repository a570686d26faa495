module H = Apple_classifier.Header
module P = Apple_classifier.Predicate
module A = Apple_classifier.Atoms
module Pfx = Apple_classifier.Prefix_split
module CH = Apple_classifier.Consistent_hash

let packet ?(src = "10.0.0.1") ?(dst = "192.168.1.1") ?(proto = 6)
    ?(sport = 1234) ?(dport = 80) () =
  {
    H.src_ip = H.ip_of_string src;
    dst_ip = H.ip_of_string dst;
    proto;
    src_port = sport;
    dst_port = dport;
  }

let test_ip_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (H.string_of_ip (H.ip_of_string s)))
    [ "0.0.0.0"; "255.255.255.255"; "10.1.2.3"; "192.168.0.1" ]

let test_ip_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (try
           ignore (H.ip_of_string s);
           false
         with Invalid_argument _ -> true))
    [ "10.0.0"; "10.0.0.256"; "a.b.c.d"; "" ]

let test_packet_bits () =
  let p = packet ~src:"128.0.0.0" () in
  Alcotest.(check bool) "msb of src" true (H.packet_bit p 0);
  Alcotest.(check bool) "next bit clear" false (H.packet_bit p 1)

let test_prefix_match () =
  let e = P.env () in
  let pred = P.src_prefix e "10.1.0.0" 16 in
  Alcotest.(check bool) "inside" true (P.matches pred (packet ~src:"10.1.200.3" ()));
  Alcotest.(check bool) "outside" false (P.matches pred (packet ~src:"10.2.0.1" ()))

let test_zero_length_prefix () =
  let e = P.env () in
  let pred = P.src_prefix e "1.2.3.4" 0 in
  Alcotest.(check bool) "matches everything" true (P.equal pred (P.always e))

let test_proto_and_ports () =
  let e = P.env () in
  let web = P.(proto e 6 &&& dst_port e 80) in
  Alcotest.(check bool) "tcp port 80" true (P.matches web (packet ()));
  Alcotest.(check bool) "udp rejected" false (P.matches web (packet ~proto:17 ()));
  Alcotest.(check bool) "port 81 rejected" false (P.matches web (packet ~dport:81 ()))

let test_port_range () =
  let e = P.env () in
  let range = P.dst_port_range e 1000 2000 in
  let member v = P.matches range (packet ~dport:v ()) in
  Alcotest.(check bool) "low edge" true (member 1000);
  Alcotest.(check bool) "high edge" true (member 2000);
  Alcotest.(check bool) "inside" true (member 1500);
  Alcotest.(check bool) "below" false (member 999);
  Alcotest.(check bool) "above" false (member 2001)

let test_port_range_exhaustive () =
  let e = P.env () in
  let lo = 123 and hi = 4567 in
  let range = P.src_port_range e lo hi in
  (* fraction of space must equal range size / 2^16 *)
  let expected = float_of_int (hi - lo + 1) /. 65536.0 in
  Alcotest.(check (float 1e-12)) "exact fraction" expected (P.fraction_of_space range)

let test_boolean_algebra () =
  let e = P.env () in
  let a = P.src_prefix e "10.0.0.0" 8 in
  let b = P.dst_prefix e "192.168.0.0" 16 in
  Alcotest.(check bool) "a - b subset a" true (P.subset (P.diff a b) a);
  Alcotest.(check bool) "a & b subset a" true (P.subset P.(a &&& b) a);
  Alcotest.(check bool) "a subset a | b" true (P.subset a P.(a ||| b));
  Alcotest.(check bool) "a & ~a empty" true (P.is_empty P.(a &&& neg a))

let test_witness () =
  let e = P.env () in
  let pred = P.(src_prefix e "10.7.0.0" 16 &&& proto e 17) in
  match P.witness pred with
  | None -> Alcotest.fail "expected witness"
  | Some p ->
      Alcotest.(check bool) "witness matches" true (P.matches pred p);
      Alcotest.(check int) "witness proto" 17 p.H.proto

let test_atoms_partition () =
  let e = P.env () in
  let preds =
    [
      P.src_prefix e "10.0.0.0" 8;
      P.src_prefix e "10.1.0.0" 16;
      P.dst_port e 80;
    ]
  in
  let atoms = A.compute e preds in
  (* pairwise disjoint *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            Alcotest.(check bool) "disjoint" true (P.is_empty P.(a &&& b)))
        atoms)
    atoms;
  (* cover the space *)
  let union = List.fold_left (fun acc a -> P.(acc ||| a)) (P.never e) atoms in
  Alcotest.(check bool) "covers" true (P.equal union (P.always e));
  (* every predicate decomposes *)
  List.iter (fun p -> ignore (A.decompose p atoms)) preds

let test_atoms_decompose_exact () =
  let e = P.env () in
  let a = P.src_prefix e "10.0.0.0" 8 in
  let b = P.dst_port e 443 in
  let atoms = A.compute e [ a; b ] in
  let indices = A.decompose a atoms in
  (* union of chosen atoms equals a *)
  let union =
    List.fold_left
      (fun acc i -> P.(acc ||| List.nth atoms i))
      (P.never e) indices
  in
  Alcotest.(check bool) "reconstructs" true (P.equal union a)

let test_atoms_same_atom () =
  let e = P.env () in
  let atoms = A.compute e [ P.src_prefix e "10.0.0.0" 8 ] in
  Alcotest.(check bool) "same block" true
    (A.same_atom atoms (packet ~src:"10.1.1.1" ()) (packet ~src:"10.9.9.9" ()));
  Alcotest.(check bool) "different blocks" false
    (A.same_atom atoms (packet ~src:"10.1.1.1" ()) (packet ~src:"11.1.1.1" ()))

(* [matches] must agree with its definition, a non-empty intersection
   with the packet's point (the conjunction of exact field matches), and
   must not grow the shared environment. *)
let prop_matches_point =
  QCheck.Test.make ~name:"matches = point intersection, no new nodes"
    ~count:100 QCheck.int (fun seed ->
      let rs = Random.State.make [| seed |] in
      let e = P.env () in
      let int n = Random.State.int rs n in
      let bases =
        List.map H.ip_of_string [ "10.0.0.0"; "10.1.0.0"; "192.168.0.0" ]
      in
      let ip () = List.nth bases (int 3) + int 65536 in
      let rec pred depth =
        match int (if depth = 0 then 4 else 8) with
        | 0 -> P.src_prefix_int e (ip ()) (int 33)
        | 1 -> P.dst_prefix_int e (ip ()) (int 33)
        | 2 -> P.proto e (if int 2 = 0 then 6 else 17)
        | 3 ->
            let lo = int 3000 in
            P.dst_port_range e lo (lo + int 3000)
        | 4 -> P.(pred (depth - 1) &&& pred (depth - 1))
        | 5 -> P.(pred (depth - 1) ||| pred (depth - 1))
        | 6 -> P.diff (pred (depth - 1)) (pred (depth - 1))
        | _ -> P.neg (pred (depth - 1))
      in
      let a = pred 3 in
      (* Random packets, and the witness with one field redrawn, which
         lands near the predicate's boundary. *)
      let random () =
        {
          H.src_ip = ip ();
          dst_ip = ip ();
          proto = (if int 2 = 0 then 6 else 17);
          src_port = int 65536;
          dst_port = int 6000;
        }
      in
      let near (w : H.packet) =
        let r = random () in
        match int 5 with
        | 0 -> { w with H.src_ip = r.H.src_ip }
        | 1 -> { w with H.dst_ip = r.H.dst_ip }
        | 2 -> { w with H.proto = r.H.proto }
        | 3 -> { w with H.src_port = r.H.src_port }
        | _ -> { w with H.dst_port = r.H.dst_port }
      in
      let packets =
        match P.witness a with
        | None -> List.init 30 (fun _ -> random ())
        | Some w -> w :: List.init 30 (fun i -> if i mod 2 = 0 then near w else random ())
      in
      let nodes = Apple_bdd.Bdd.node_count e in
      let got = List.map (P.matches a) packets in
      let grew = Apple_bdd.Bdd.node_count e <> nodes in
      let point (p : H.packet) =
        P.(
          src_prefix_int e p.H.src_ip 32
          &&& dst_prefix_int e p.H.dst_ip 32
          &&& proto e p.H.proto
          &&& src_port e p.H.src_port
          &&& dst_port e p.H.dst_port)
      in
      (not grew)
      && List.for_all2
           (fun p m -> m = not (P.is_empty P.(a &&& point p)))
           packets got)

(* ---- prefix splitting ---- *)

let test_prefix_parse () =
  let p = Pfx.prefix_of_string "10.1.2.128/25" in
  Alcotest.(check int) "len" 25 p.Pfx.len;
  Alcotest.(check string) "addr normalized" "10.1.2.128" (H.string_of_ip p.Pfx.addr);
  let q = Pfx.prefix_of_string "10.1.2.129/25" in
  Alcotest.(check string) "low bits cleared" "10.1.2.128" (H.string_of_ip q.Pfx.addr)

let test_split_half () =
  let base = Pfx.prefix_of_string "10.0.0.0/24" in
  let split = Pfx.split ~base ~weights:[| 0.5; 0.5 |] ~depth:6 in
  Alcotest.(check int) "one prefix each" 2 (Pfx.rule_count split);
  let rw = Pfx.realized_weights split ~base in
  Alcotest.(check (float 1e-9)) "first half" 0.5 rw.(0);
  Alcotest.(check (float 1e-9)) "second half" 0.5 rw.(1)

let test_split_partition_property () =
  let base = Pfx.prefix_of_string "10.0.0.0/24" in
  let split = Pfx.split ~base ~weights:[| 0.7; 0.2; 0.1 |] ~depth:6 in
  (* Every address in the block is owned by exactly one sub-class. *)
  for a = 0 to 255 do
    let addr = base.Pfx.addr + a in
    let owners =
      Array.to_list split
      |> List.filteri (fun _ pfxs -> List.exists (fun p -> Pfx.member p addr) pfxs)
    in
    Alcotest.(check int) "single owner" 1 (List.length owners)
  done

let prop_split_partition =
  QCheck.Test.make ~name:"prefix split partitions the block" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 8) (float_range 0.01 1.0))
    (fun raw ->
      let total = List.fold_left ( +. ) 0.0 raw in
      let weights = Array.of_list (List.map (fun w -> w /. total) raw) in
      let base = Pfx.prefix_of_string "10.0.0.0/24" in
      let split = Pfx.split ~base ~weights ~depth:6 in
      let ok = ref true in
      for a = 0 to 255 do
        let addr = base.Pfx.addr + a in
        let owners =
          Array.fold_left
            (fun acc pfxs ->
              if List.exists (fun p -> Pfx.member p addr) pfxs then acc + 1 else acc)
            0 split
        in
        if owners <> 1 then ok := false
      done;
      !ok)

let prop_split_weights_close =
  QCheck.Test.make ~name:"realized weights approximate requests" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 6) (float_range 0.05 1.0))
    (fun raw ->
      let total = List.fold_left ( +. ) 0.0 raw in
      let weights = Array.of_list (List.map (fun w -> w /. total) raw) in
      let base = Pfx.prefix_of_string "10.0.0.0/24" in
      let depth = 6 in
      let split = Pfx.split ~base ~weights ~depth in
      let realized = Pfx.realized_weights split ~base in
      let quantum = 1.0 /. float_of_int (1 lsl depth) in
      Array.for_all2
        (fun r w -> abs_float (r -. w) <= (float_of_int (Array.length weights) *. quantum) +. 1e-9)
        realized weights)

(* ---- exact source-address sets, against the BDD ---- *)

module S = Apple_classifier.Src_set

let src_pred e prefixes =
  List.fold_left
    (fun acc (p : Pfx.prefix) -> P.(acc ||| src_prefix_int e p.Pfx.addr p.Pfx.len))
    (P.never e) prefixes

let pp_union =
  Format.(pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf " ") Pfx.pp_prefix)

let test_src_set_examples () =
  let e = P.env () in
  let pfx = List.map Pfx.prefix_of_string in
  let witness_ip prefixes =
    let w = S.witness (S.of_prefixes (pfx prefixes)) in
    Alcotest.(check bool) "BDD witness" true (w = P.witness (src_pred e (pfx prefixes)));
    Option.map (fun p -> H.string_of_ip p.H.src_ip) w
  in
  let ip = Alcotest.(option string) in
  (* The top bit splits the set into equal halves: no BDD node, bit 0. *)
  Alcotest.check ip "equal halves" (Some "0.0.0.0")
    (witness_ip [ "0.0.0.0/8"; "128.0.0.0/8" ]);
  (* Where the halves differ, the upper one wins. *)
  Alcotest.check ip "upper half" (Some "10.0.3.0")
    (witness_ip [ "10.0.0.0/24"; "10.0.3.0/24" ]);
  Alcotest.check ip "empty" None (witness_ip []);
  let touching = S.of_prefixes (pfx [ "10.0.0.0/24" ])
  and next = S.of_prefixes (pfx [ "10.0.1.0/24" ]) in
  Alcotest.(check bool) "touching blocks are disjoint" true
    (S.is_empty (S.inter touching next));
  Alcotest.(check bool) "adjacent blocks merge" true
    (S.subset (S.of_prefixes (pfx [ "10.0.0.0/23" ])) (S.union touching next));
  Alcotest.(check bool) "full" true (S.subset S.full (S.of_prefixes (pfx [ "0.0.0.0/0" ])))

(* A union of up to six prefixes of length 0-32 near a few addresses
   (both sides of the top bit, both ends of the space).  Most later
   prefixes copy an earlier one or take its sibling, parent or child, so
   the unions repeat, touch, nest and overlap. *)
let random_union rs =
  let int n = Random.State.int rs n in
  let mk addr len =
    let mask = if len = 0 then 0 else -1 lsl (32 - len) land 0xFFFFFFFF in
    { Pfx.addr = addr land mask; len }
  in
  let centers =
    [| 0; 0x0A000000; 0x0A0000F0; 0x7FFFFF00; 0x80000000; 0xFFFFFF00 |]
  in
  let fresh () =
    mk (centers.(int 6) lxor int 1024) (if int 4 = 0 then int 33 else 20 + int 13)
  in
  let relative (p : Pfx.prefix) =
    match int 5 with
    | 0 -> p
    | 1 when p.len > 0 -> mk (p.addr lxor (1 lsl (32 - p.len))) p.len
    | 2 when p.len > 0 -> mk p.addr (p.len - 1)
    | (3 | 4) when p.len < 32 -> mk (p.addr lor (int 2 lsl (31 - p.len))) (p.len + 1)
    | _ -> fresh ()
  in
  let rec draw n acc =
    if n = 0 then acc
    else
      let p =
        if acc = [] || int 3 = 0 then fresh ()
        else relative (List.nth acc (int (List.length acc)))
      in
      draw (n - 1) (p :: acc)
  in
  draw (int 7) []

let prop_src_set_matches_bdd =
  QCheck.Test.make ~name:"source sets match BDD predicates" ~count:2000
    ~long_factor:100 QCheck.int (fun seed ->
      let rs = Random.State.make [| seed |] in
      let e = P.env () in
      let pa = random_union rs and pb = random_union rs in
      let a = S.of_prefixes pa and b = S.of_prefixes pb in
      let a' = src_pred e pa and b' = src_pred e pb in
      let agree what s p =
        if S.is_empty s <> P.is_empty p || S.witness s <> P.witness p then
          QCheck.Test.fail_reportf "%s differs for a=%a b=%a" what pp_union pa
            pp_union pb
      in
      agree "a" a a';
      agree "a & b" (S.inter a b) P.(a' &&& b');
      agree "a | b" (S.union a b) P.(a' ||| b');
      agree "a - b" (S.diff a b) (P.diff a' b');
      agree "b - a" (S.diff b a) (P.diff b' a');
      S.subset a b = P.subset a' b' && S.subset b a = P.subset b' a')

(* ---- consistent hashing ---- *)

let test_chash_deterministic () =
  let t = CH.create ~weights:[| 0.5; 0.5 |] in
  let p = packet () in
  Alcotest.(check int) "same packet same bucket" (CH.assign t p) (CH.assign t p)

let test_chash_proportional () =
  let t = CH.create ~weights:[| 0.25; 0.75 |] in
  let hits = [| 0; 0 |] in
  for i = 0 to 9999 do
    let p = packet ~src:(Printf.sprintf "10.%d.%d.%d" (i mod 256) (i / 256) 1) () in
    let b = CH.assign t p in
    hits.(b) <- hits.(b) + 1
  done;
  let frac = float_of_int hits.(1) /. 10_000.0 in
  Alcotest.(check bool) "about 75%" true (frac > 0.72 && frac < 0.78)

let test_chash_point_boundaries () =
  let t = CH.create ~weights:[| 0.5; 0.5 |] in
  Alcotest.(check int) "0 -> first" 0 (CH.assign_point t 0.0);
  Alcotest.(check int) "0.49 -> first" 0 (CH.assign_point t 0.49);
  Alcotest.(check int) "0.51 -> second" 1 (CH.assign_point t 0.51);
  Alcotest.(check int) "0.999 -> second" 1 (CH.assign_point t 0.999)

let test_chash_reweight_stability () =
  (* Shrinking one interval only moves flows whose point crossed the
     boundary. *)
  let t1 = CH.create ~weights:[| 0.5; 0.5 |] in
  let t2 = CH.reweight t1 [| 0.4; 0.6 |] in
  let moved = ref 0 and total = 10_000 in
  for i = 0 to total - 1 do
    let x = float_of_int i /. float_of_int total in
    if CH.assign_point t1 x <> CH.assign_point t2 x then incr moved
  done;
  Alcotest.(check bool) "moved about 10%" true
    (let f = float_of_int !moved /. float_of_int total in
     f > 0.08 && f < 0.12)

let test_chash_rejects_bad_weights () =
  Alcotest.(check bool) "zero total rejected" true
    (try
       ignore (CH.create ~weights:[| 0.0; 0.0 |]);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "ip roundtrip" `Quick test_ip_roundtrip;
    Alcotest.test_case "ip invalid" `Quick test_ip_invalid;
    Alcotest.test_case "packet bits" `Quick test_packet_bits;
    Alcotest.test_case "prefix match" `Quick test_prefix_match;
    Alcotest.test_case "zero-length prefix" `Quick test_zero_length_prefix;
    Alcotest.test_case "proto and ports" `Quick test_proto_and_ports;
    Alcotest.test_case "port range edges" `Quick test_port_range;
    Alcotest.test_case "port range fraction" `Quick test_port_range_exhaustive;
    Alcotest.test_case "boolean algebra" `Quick test_boolean_algebra;
    Alcotest.test_case "witness" `Quick test_witness;
    Alcotest.test_case "atoms partition" `Quick test_atoms_partition;
    Alcotest.test_case "atoms decompose" `Quick test_atoms_decompose_exact;
    Alcotest.test_case "atoms same_atom" `Quick test_atoms_same_atom;
    QCheck_alcotest.to_alcotest prop_matches_point;
    Alcotest.test_case "prefix parse" `Quick test_prefix_parse;
    Alcotest.test_case "split half" `Quick test_split_half;
    Alcotest.test_case "split partition" `Quick test_split_partition_property;
    QCheck_alcotest.to_alcotest prop_split_partition;
    QCheck_alcotest.to_alcotest prop_split_weights_close;
    Alcotest.test_case "source set examples" `Quick test_src_set_examples;
    QCheck_alcotest.to_alcotest prop_src_set_matches_bdd;
    Alcotest.test_case "chash deterministic" `Quick test_chash_deterministic;
    Alcotest.test_case "chash proportional" `Quick test_chash_proportional;
    Alcotest.test_case "chash boundaries" `Quick test_chash_point_boundaries;
    Alcotest.test_case "chash reweight stability" `Quick test_chash_reweight_stability;
    Alcotest.test_case "chash bad weights" `Quick test_chash_rejects_bad_weights;
  ]
