(* [| lo0; hi0; lo1; hi1; ... |]: sorted, disjoint, non-adjacent [lo, hi)
   intervals inside [0, 2^32), so each set has exactly one array. *)
type t = int array

let space = 1 lsl 32
let empty = [||]
let full = [| 0; space |]
let is_empty s = Array.length s = 0
let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

(* One ascending sweep over the boundaries of [a] and [b].  Past a point,
   an odd count of consumed boundaries means inside that set; [keep]
   turns the two memberships into the result's, and a boundary is
   written wherever the result's membership flips. *)
let merge keep a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let rec go i j n inside =
    if i >= na && j >= nb then n
    else begin
      let x = if i < na then a.(i) else max_int
      and y = if j < nb then b.(j) else max_int in
      let p = Int.min x y in
      let i = if x = p then i + 1 else i and j = if y = p then j + 1 else j in
      let now = keep (i land 1 = 1) (j land 1 = 1) in
      if Bool.equal now inside then go i j n inside
      else begin
        out.(n) <- p;
        go i j (n + 1) now
      end
    end
  in
  let n = go 0 0 0 false in
  if n = na + nb then out else Array.sub out 0 n

let inter = merge ( && )
let union = merge ( || )
let diff = merge (fun x y -> x && not y)
let subset a b = is_empty (diff a b)

let of_prefixes prefixes =
  List.fold_left
    (fun acc (p : Prefix_split.prefix) ->
      if p.len < 0 || p.len > 32 then
        invalid_arg "Src_set.of_prefixes: bad prefix length";
      let size = 1 lsl (32 - p.len) in
      let lo = p.addr land (space - size) in
      union acc [| lo; lo + size |])
    empty prefixes

let witness s =
  if is_empty s then None
  else begin
    (* [s] within [b, b + size), moved to start at 0. *)
    let part b size = Array.map (fun x -> x - b) (inter s [| b; b + size |]) in
    (* The block always meets [s]; a one-address block is the answer. *)
    let rec descend b size =
      if size = 1 then b
      else begin
        let half = size / 2 in
        let upper = part (b + half) half in
        if is_empty upper || equal (part b half) upper then descend b half
        else descend (b + half) half
      end
    in
    Some
      {
        Header.src_ip = descend 0 space;
        dst_ip = 0;
        proto = 0;
        src_port = 0;
        dst_port = 0;
      }
  end
