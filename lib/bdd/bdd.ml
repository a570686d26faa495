(* Hash-consed ROBDD implementation.  Nodes live in a growable arena; a
   node is an int index.  Index 0 is FALSE, index 1 is TRUE.

   Every table is open-addressed over a flat int array with linear
   probing, -1 marking an empty slot, and doubles before its load passes
   one half.  A probe is int arithmetic and allocates nothing.  The
   unique table holds node ids and compares against the arena; an
   operation cache holds its operands and result side by side. *)

type t = int

(* An operation's memo table: entries of three ints, the two operands
   then the result.  Operands are node ids, so -1 in an entry's first
   int marks it empty. *)
type cache = { mutable tbl : int array; mutable mask : int; mutable used : int }

type man = {
  mutable var_ : int array;  (* variable at node *)
  mutable low : int array;  (* else branch *)
  mutable high : int array;  (* then branch *)
  mutable next_free : int;
  mutable unique : int array;  (* node ids, keyed by (var, low, high) *)
  and_cache : cache;
  or_cache : cache;
  diff_cache : cache;
  xor_cache : cache;
  not_cache : cache;
}

let bdd_false (_ : man) : t = 0
let bdd_true (_ : man) : t = 1

let hash a b c =
  let h = ((((a * 0x9E3779B1) + b) * 0x85EBCA77) + c) * 0xC2B2AE3D in
  h lxor (h lsr 29)

let cache_slots = 256

let cache () =
  { tbl = Array.make (3 * cache_slots) (-1); mask = cache_slots - 1; used = 0 }

let man () =
  let cap = 1024 in
  let m =
    {
      var_ = Array.make cap max_int;
      low = Array.make cap 0;
      high = Array.make cap 0;
      next_free = 2;
      unique = Array.make (2 * cap) (-1);
      and_cache = cache ();
      or_cache = cache ();
      diff_cache = cache ();
      xor_cache = cache ();
      not_cache = cache ();
    }
  in
  (* Terminals carry a sentinel variable greater than any real one. *)
  m.var_.(0) <- max_int;
  m.var_.(1) <- max_int;
  m

(* ---- unique table ------------------------------------------------- *)

let rec unique_probe m v lo hi mask i =
  let n = m.unique.(i) in
  if n < 0 || (m.var_.(n) = v && m.low.(n) = lo && m.high.(n) = hi) then i
  else unique_probe m v lo hi mask ((i + 1) land mask)

(* The slot holding node (v, lo, hi), or the empty slot it would take. *)
let unique_slot m v lo hi =
  let mask = Array.length m.unique - 1 in
  unique_probe m v lo hi mask (hash v lo hi land mask)

(* Double the arena and rebuild the unique table at twice the arena's
   size, so its load stays below one half. *)
let grow m =
  let cap = Array.length m.var_ in
  let copy src =
    let dst = Array.make (2 * cap) 0 in
    Array.blit src 0 dst 0 cap;
    dst
  in
  m.var_ <- copy m.var_;
  m.low <- copy m.low;
  m.high <- copy m.high;
  m.unique <- Array.make (4 * cap) (-1);
  for n = 2 to m.next_free - 1 do
    m.unique.(unique_slot m m.var_.(n) m.low.(n) m.high.(n)) <- n
  done

let mk m v lo hi =
  if lo = hi then lo
  else
    let i = unique_slot m v lo hi in
    let n = m.unique.(i) in
    if n >= 0 then n
    else begin
      let n = m.next_free in
      let i =
        if n < Array.length m.var_ then i
        else begin
          grow m;
          unique_slot m v lo hi
        end
      in
      m.next_free <- n + 1;
      m.var_.(n) <- v;
      m.low.(n) <- lo;
      m.high.(n) <- hi;
      m.unique.(i) <- n;
      n
    end

(* ---- operation caches --------------------------------------------- *)

(* The entry holding key (a, b), or the empty entry it would take. *)
let rec cache_probe tbl mask a b i =
  let e = 3 * i in
  let k = tbl.(e) in
  if k < 0 || (k = a && tbl.(e + 1) = b) then e
  else cache_probe tbl mask a b ((i + 1) land mask)

let cache_entry c a b = cache_probe c.tbl c.mask a b (hash a b 0 land c.mask)

(* Rehash every entry into a table of twice as many slots. *)
let cache_grow c =
  let old = c.tbl in
  let slots = 2 * (c.mask + 1) in
  c.tbl <- Array.make (3 * slots) (-1);
  c.mask <- slots - 1;
  for i = 0 to (Array.length old / 3) - 1 do
    let e = 3 * i in
    if old.(e) >= 0 then Array.blit old e c.tbl (cache_entry c old.(e) old.(e + 1)) 3
  done

(* Result cached for (a, b), or -1. *)
let find c a b =
  let e = cache_entry c a b in
  if c.tbl.(e) < 0 then -1 else c.tbl.(e + 2)

(* Called only after [find] missed on the same key: the recursion in
   between reaches strictly deeper operands, so the key is still absent. *)
let add c a b r =
  c.used <- c.used + 1;
  if 2 * c.used > c.mask + 1 then cache_grow c;
  let e = cache_entry c a b in
  c.tbl.(e) <- a;
  c.tbl.(e + 1) <- b;
  c.tbl.(e + 2) <- r

(* ---- operations --------------------------------------------------- *)

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative variable";
  mk m i 0 1

let nvar m i =
  if i < 0 then invalid_arg "Bdd.nvar: negative variable";
  mk m i 1 0

let rec bdd_not m a =
  if a <= 1 then 1 - a
  else
    let r = find m.not_cache a 0 in
    if r >= 0 then r
    else
      let r = mk m m.var_.(a) (bdd_not m m.low.(a)) (bdd_not m m.high.(a)) in
      add m.not_cache a 0 r;
      r

(* The binary operations share one Shannon-expansion recursion; each has
   its own terminal cases and its own cache. *)
type op = And | Or | Diff | Xor

(* The result when it needs no recursion, else -1. *)
let terminal m op a b =
  match op with
  | And ->
      if a = b then a
      else if a = 0 || b = 0 then 0
      else if a = 1 then b
      else if b = 1 then a
      else -1
  | Or ->
      if a = b then a
      else if a = 1 || b = 1 then 1
      else if a = 0 then b
      else if b = 0 then a
      else -1
  | Diff ->
      if a = 0 || b = 1 || a = b then 0
      else if b = 0 then a
      else if a = 1 then bdd_not m b
      else -1
  | Xor ->
      if a = b then 0
      else if a = 0 then b
      else if b = 0 then a
      else if a = 1 then bdd_not m b
      else if b = 1 then bdd_not m a
      else -1

let cache_of m = function
  | And -> m.and_cache
  | Or -> m.or_cache
  | Diff -> m.diff_cache
  | Xor -> m.xor_cache

let rec apply m op a b =
  let r = terminal m op a b in
  if r >= 0 then r
  else
    match op with
    (* Commutative operations cache each unordered pair once. *)
    | (And | Or | Xor) when b < a -> expand m op b a
    | And | Or | Xor | Diff -> expand m op a b

and expand m op a b =
  let c = cache_of m op in
  let r = find c a b in
  if r >= 0 then r
  else
    let va = m.var_.(a) and vb = m.var_.(b) in
    let v = if va < vb then va else vb in
    let a0 = if va = v then m.low.(a) else a in
    let a1 = if va = v then m.high.(a) else a in
    let b0 = if vb = v then m.low.(b) else b in
    let b1 = if vb = v then m.high.(b) else b in
    let r = mk m v (apply m op a0 b0) (apply m op a1 b1) in
    add c a b r;
    r

let bdd_and m a b = apply m And a b
let bdd_or m a b = apply m Or a b
let bdd_diff m a b = apply m Diff a b
let bdd_xor m a b = apply m Xor a b
let bdd_imp m a b = bdd_or m (bdd_not m a) b

let ite m f g h = bdd_or m (bdd_and m f g) (bdd_diff m h f)

let exists m vars a =
  let vset = List.sort_uniq Int.compare vars in
  let cache = Hashtbl.create 64 in
  let rec go a =
    if a <= 1 then a
    else
      match Hashtbl.find_opt cache a with
      | Some r -> r
      | None ->
          let v = m.var_.(a) in
          let lo = go m.low.(a) and hi = go m.high.(a) in
          let r = if List.mem v vset then bdd_or m lo hi else mk m v lo hi in
          Hashtbl.add cache a r;
          r
  in
  go a

let equal (a : t) (b : t) = a = b
let is_true (_ : man) a = a = 1
let is_false (_ : man) a = a = 0

(* One root-to-terminal descent: O(depth), allocation-free; tests a
   concrete header against a predicate. *)
let eval m a f =
  let n = ref a in
  while !n > 1 do
    n := if f m.var_.(!n) then m.high.(!n) else m.low.(!n)
  done;
  !n = 1

(* Bottom-up: with the literals in descending variable order, each one
   is a single [mk] on top of the cube of the deeper ones. *)
let cube m literals =
  List.fold_left
    (fun acc (i, pos) ->
      if i < 0 then invalid_arg "Bdd.var: negative variable"
      else if acc = 0 then 0
      else if m.var_.(acc) = i then
        (* A repeated variable: the same literal again, or its negation. *)
        if Bool.equal (m.high.(acc) <> 0) pos then acc else 0
      else if pos then mk m i 0 acc
      else mk m i acc 0)
    1
    (List.sort (fun (i, _) (j, _) -> Int.compare j i) literals)

let sat_count m ~num_vars a =
  let cache = Hashtbl.create 64 in
  (* count n = satisfying assignments over variables [var_(n), num_vars). *)
  let rec count n =
    if n = 0 then 0.0
    else if n = 1 then 1.0
    else
      match Hashtbl.find_opt cache n with
      | Some c -> c
      | None ->
          let v = m.var_.(n) in
          let weight child =
            let vc = if child <= 1 then num_vars else m.var_.(child) in
            count child *. (2.0 ** float_of_int (vc - v - 1))
          in
          let c = weight m.low.(n) +. weight m.high.(n) in
          Hashtbl.add cache n c;
          c
  in
  if a = 0 then 0.0
  else if a = 1 then 2.0 ** float_of_int num_vars
  else count a *. (2.0 ** float_of_int m.var_.(a))

let any_sat m a =
  let rec go acc n =
    if n = 0 then None
    else if n = 1 then Some (List.rev acc)
    else
      let v = m.var_.(n) in
      if m.high.(n) <> 0 then go ((v, true) :: acc) m.high.(n)
      else go ((v, false) :: acc) m.low.(n)
  in
  go [] a

let fold_paths m a ~init ~f =
  let rec go acc path n =
    if n = 0 then acc
    else if n = 1 then f acc (List.rev path)
    else
      let v = m.var_.(n) in
      let acc = go acc ((v, false) :: path) m.low.(n) in
      go acc ((v, true) :: path) m.high.(n)
  in
  go init [] a

let size m a =
  let seen = Hashtbl.create 64 in
  let rec go n =
    if n > 1 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      go m.low.(n);
      go m.high.(n)
    end
  in
  go a;
  Hashtbl.length seen

let node_count m = m.next_free
