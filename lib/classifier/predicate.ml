type env = Apple_bdd.Bdd.man

type t = { env : env; node : Apple_bdd.Bdd.t }

module B = Apple_bdd.Bdd

let env () = B.man ()

let always e = { env = e; node = B.bdd_true e }
let never e = { env = e; node = B.bdd_false e }

let of_literals e lits = { env = e; node = B.cube e lits }

let prefix_pred e field addr len =
  if len < 0 || len > Header.width field then
    invalid_arg "Predicate: bad prefix length";
  of_literals e (Header.field_bits field ~value:addr ~prefix_len:len)

let src_prefix_int e addr len = prefix_pred e Header.Src_ip addr len
let dst_prefix_int e addr len = prefix_pred e Header.Dst_ip addr len
let src_prefix e s len = src_prefix_int e (Header.ip_of_string s) len
let dst_prefix e s len = dst_prefix_int e (Header.ip_of_string s) len

let proto e v = prefix_pred e Header.Proto v 8
let src_port e v = prefix_pred e Header.Src_port v 16
let dst_port e v = prefix_pred e Header.Dst_port v 16

(* A port range as the union of maximal aligned power-of-two blocks, the
   standard prefix-expansion of range matches. *)
let port_range_pred e field lo hi =
  if lo < 0 || hi > 65535 || lo > hi then
    invalid_arg "Predicate: bad port range";
  let rec blocks acc lo =
    if lo > hi then acc
    else begin
      (* Largest aligned block starting at lo that fits within [lo, hi]. *)
      let max_align = if lo = 0 then 16 else
        let rec tz k = if lo land (1 lsl k) <> 0 then k else tz (k + 1) in
        tz 0
      in
      let rec fit size_log =
        if size_log < 0 then 0
        else if size_log <= max_align && lo + (1 lsl size_log) - 1 <= hi then size_log
        else fit (size_log - 1)
      in
      let size_log = fit 16 in
      let prefix_len = 16 - size_log in
      blocks ((lo, prefix_len) :: acc) (lo + (1 lsl size_log))
    end
  in
  let cubes = blocks [] lo in
  List.fold_left
    (fun acc (value, prefix_len) ->
      B.bdd_or e acc (B.cube e (Header.field_bits field ~value ~prefix_len)))
    (B.bdd_false e) cubes

let dst_port_range e lo hi = { env = e; node = port_range_pred e Header.Dst_port lo hi }
let src_port_range e lo hi = { env = e; node = port_range_pred e Header.Src_port lo hi }

let check_env a b =
  if a.env != b.env then invalid_arg "Predicate: mixed environments"

let ( &&& ) a b =
  check_env a b;
  { a with node = B.bdd_and a.env a.node b.node }

let ( ||| ) a b =
  check_env a b;
  { a with node = B.bdd_or a.env a.node b.node }

let neg a = { a with node = B.bdd_not a.env a.node }

let diff a b =
  check_env a b;
  { a with node = B.bdd_diff a.env a.node b.node }

let is_empty a = B.is_false a.env a.node
let equal a b =
  check_env a b;
  B.equal a.node b.node

let subset a b =
  check_env a b;
  B.is_false a.env (B.bdd_diff a.env a.node b.node)

let matches a p = B.eval a.env a.node (Header.packet_bit p)

let fraction_of_space a =
  B.sat_count a.env ~num_vars:Header.total_bits a.node
  /. (2.0 ** float_of_int Header.total_bits)

let wildcard_rules a =
  B.fold_paths a.env a.node ~init:0 ~f:(fun acc _ -> acc + 1)

let witness a =
  match B.any_sat a.env a.node with
  | None -> None
  | Some lits ->
      let bits = Array.make Header.total_bits false in
      List.iter (fun (i, v) -> bits.(i) <- v) lits;
      let field_value field =
        let base = Header.offset field and w = Header.width field in
        let v = ref 0 in
        for k = 0 to w - 1 do
          v := (!v lsl 1) lor (if bits.(base + k) then 1 else 0)
        done;
        !v
      in
      Some
        {
          Header.src_ip = field_value Header.Src_ip;
          dst_ip = field_value Header.Dst_ip;
          proto = field_value Header.Proto;
          src_port = field_value Header.Src_port;
          dst_port = field_value Header.Dst_port;
        }
