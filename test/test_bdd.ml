module B = Apple_bdd.Bdd

let num_vars = 6

(* Random BDD expression generator over [num_vars] variables. *)
type expr =
  | Var of int
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr
  | True
  | False

let expr_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof [ map (fun i -> Var i) (int_range 0 (num_vars - 1)); return True; return False ]
        else
          frequency
            [
              (2, map (fun i -> Var i) (int_range 0 (num_vars - 1)));
              (1, map (fun e -> Not e) (self (n / 2)));
              (2, map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> Xor (a, b)) (self (n / 2)) (self (n / 2)));
            ]))

let rec build m = function
  | Var i -> B.var m i
  | Not e -> B.bdd_not m (build m e)
  | And (a, b) -> B.bdd_and m (build m a) (build m b)
  | Or (a, b) -> B.bdd_or m (build m a) (build m b)
  | Xor (a, b) -> B.bdd_xor m (build m a) (build m b)
  | True -> B.bdd_true m
  | False -> B.bdd_false m

let rec eval env = function
  | Var i -> env.(i)
  | Not e -> not (eval env e)
  | And (a, b) -> eval env a && eval env b
  | Or (a, b) -> eval env a || eval env b
  | Xor (a, b) -> eval env a <> eval env b
  | True -> true
  | False -> false

let all_envs =
  List.init (1 lsl num_vars) (fun bits ->
      Array.init num_vars (fun i -> (bits lsr i) land 1 = 1))

let bdd_eval m node env =
  let cube = B.cube m (List.init num_vars (fun i -> (i, env.(i)))) in
  not (B.is_false m (B.bdd_and m cube node))

let test_terminals () =
  let m = B.man () in
  Alcotest.(check bool) "true is true" true (B.is_true m (B.bdd_true m));
  Alcotest.(check bool) "false is false" true (B.is_false m (B.bdd_false m));
  Alcotest.(check bool) "not true = false" true
    (B.equal (B.bdd_not m (B.bdd_true m)) (B.bdd_false m))

let test_var_semantics () =
  let m = B.man () in
  let x = B.var m 0 in
  Alcotest.(check bool) "x(1)" true (bdd_eval m x [| true; false; false; false; false; false |]);
  Alcotest.(check bool) "x(0)" false (bdd_eval m x [| false; false; false; false; false; false |]);
  Alcotest.(check bool) "nvar = not var" true (B.equal (B.nvar m 0) (B.bdd_not m x))

let test_hash_consing () =
  let m = B.man () in
  let a = B.bdd_and m (B.var m 0) (B.var m 1) in
  let b = B.bdd_and m (B.var m 1) (B.var m 0) in
  Alcotest.(check bool) "commutative results share node" true (B.equal a b)

let test_ite () =
  let m = B.man () in
  let f = B.var m 0 and g = B.var m 1 and h = B.var m 2 in
  let ite = B.ite m f g h in
  let manual = B.bdd_or m (B.bdd_and m f g) (B.bdd_and m (B.bdd_not m f) h) in
  Alcotest.(check bool) "ite = (f&g)|(~f&h)" true (B.equal ite manual)

let test_exists () =
  let m = B.man () in
  (* exists x0. (x0 & x1) = x1 *)
  let e = B.exists m [ 0 ] (B.bdd_and m (B.var m 0) (B.var m 1)) in
  Alcotest.(check bool) "projects away" true (B.equal e (B.var m 1));
  (* exists x0. (x0 | x1) = true *)
  let e2 = B.exists m [ 0 ] (B.bdd_or m (B.var m 0) (B.var m 1)) in
  Alcotest.(check bool) "saturates" true (B.is_true m e2)

let test_sat_count () =
  let m = B.man () in
  Alcotest.(check (float 1e-9)) "var splits space" (2.0 ** 5.0)
    (B.sat_count m ~num_vars (B.var m 0));
  Alcotest.(check (float 1e-9)) "true is full space" (2.0 ** 6.0)
    (B.sat_count m ~num_vars (B.bdd_true m));
  Alcotest.(check (float 1e-9)) "false is empty" 0.0
    (B.sat_count m ~num_vars (B.bdd_false m));
  let cube = B.cube m [ (0, true); (3, false) ] in
  Alcotest.(check (float 1e-9)) "cube fixes two bits" (2.0 ** 4.0)
    (B.sat_count m ~num_vars cube)

let test_any_sat () =
  let m = B.man () in
  Alcotest.(check bool) "false has no witness" true (B.any_sat m (B.bdd_false m) = None);
  let f = B.bdd_and m (B.var m 1) (B.nvar m 3) in
  match B.any_sat m f with
  | None -> Alcotest.fail "expected witness"
  | Some lits ->
      let env = Array.make num_vars false in
      List.iter (fun (i, v) -> env.(i) <- v) lits;
      Alcotest.(check bool) "witness satisfies" true (bdd_eval m f env)

let test_fold_paths_count () =
  let m = B.man () in
  let f = B.bdd_or m (B.var m 0) (B.var m 1) in
  let paths = B.fold_paths m f ~init:0 ~f:(fun acc _ -> acc + 1) in
  (* ROBDD for x0|x1: paths {x0=1}, {x0=0,x1=1} *)
  Alcotest.(check int) "two true paths" 2 paths

let test_size () =
  let m = B.man () in
  Alcotest.(check int) "terminal size" 0 (B.size m (B.bdd_true m));
  Alcotest.(check int) "single var" 1 (B.size m (B.var m 2))

let test_cube_edges () =
  let m = B.man () in
  Alcotest.(check bool) "empty cube is true" true (B.is_true m (B.cube m []));
  Alcotest.(check bool) "repeated literal is idempotent" true
    (B.equal (B.cube m [ (3, true); (1, false); (3, true) ])
       (B.bdd_and m (B.var m 3) (B.nvar m 1)));
  Alcotest.(check bool) "contradictory pair is false" true
    (B.is_false m (B.cube m [ (2, true); (4, false); (2, false) ]));
  Alcotest.check_raises "negative variable"
    (Invalid_argument "Bdd.var: negative variable") (fun () ->
      ignore (B.cube m [ (0, true); (-1, false) ]))

(* Property: BDD operations agree with boolean evaluation on all envs. *)
let prop_semantics =
  QCheck.Test.make ~name:"bdd agrees with boolean semantics" ~count:100
    (QCheck.make ~print:(fun _ -> "<expr>") expr_gen) (fun e ->
      let m = B.man () in
      let node = build m e in
      List.for_all (fun env -> bdd_eval m node env = eval env e) all_envs)

let prop_sat_count_complement =
  QCheck.Test.make ~name:"sat_count f + sat_count ~f = 2^n" ~count:100
    (QCheck.make ~print:(fun _ -> "<expr>") expr_gen) (fun e ->
      let m = B.man () in
      let node = build m e in
      let total =
        B.sat_count m ~num_vars node +. B.sat_count m ~num_vars (B.bdd_not m node)
      in
      abs_float (total -. (2.0 ** float_of_int num_vars)) < 1e-6)

let prop_de_morgan =
  QCheck.Test.make ~name:"de morgan" ~count:100
    (QCheck.make ~print:(fun _ -> "<expr>") QCheck.Gen.(pair expr_gen expr_gen))
    (fun (ea, eb) ->
      let m = B.man () in
      let a = build m ea and b = build m eb in
      B.equal
        (B.bdd_not m (B.bdd_and m a b))
        (B.bdd_or m (B.bdd_not m a) (B.bdd_not m b)))

let prop_xor_definition =
  QCheck.Test.make ~name:"xor = (a&~b)|(~a&b)" ~count:100
    (QCheck.make ~print:(fun _ -> "<expr>") QCheck.Gen.(pair expr_gen expr_gen))
    (fun (ea, eb) ->
      let m = B.man () in
      let a = build m ea and b = build m eb in
      B.equal (B.bdd_xor m a b)
        (B.bdd_or m (B.bdd_diff m a b) (B.bdd_diff m b a)))

let prop_fold_paths_disjoint_cover =
  QCheck.Test.make ~name:"true paths partition the on-set" ~count:60
    (QCheck.make ~print:(fun _ -> "<expr>") expr_gen) (fun e ->
      let m = B.man () in
      let node = build m e in
      (* Sum of cube sizes over true paths equals sat_count. *)
      let total =
        B.fold_paths m node ~init:0.0 ~f:(fun acc lits ->
            acc +. (2.0 ** float_of_int (num_vars - List.length lits)))
      in
      abs_float (total -. B.sat_count m ~num_vars node) < 1e-6)

(* --- growth scale ------------------------------------------------------ *)

(* The properties above use 6 variables and a fresh manager per case, so
   no table ever grows.  Here hundreds of random operations over 12
   variables share one manager (well past its initial arena, unique
   table and cache sizes), and every result is checked against its
   truth table: a string whose character [k] is '1' iff the function
   holds under the assignment "bit i is (k lsr i) land 1". *)
let big_vars = 12
let points = 1 lsl big_vars
let bit k i = (k lsr i) land 1 = 1
let tt_of f = String.init points (fun k -> if f k then '1' else '0')
let holds tt k = tt.[k] = '1'

(* One random operation on the pool of earlier results; returns the new
   BDD and its truth table. *)
let random_op m rs pool =
  (* Half the operands come from the 16 newest results, so functions
     compound instead of collapsing back to literals. *)
  let pick () =
    let n = Array.length pool in
    let lo = if Random.State.bool rs then max 0 (n - 16) else 0 in
    pool.(lo + Random.State.int rs (n - lo))
  in
  let binary op sem =
    let a, ta = pick () and b, tb = pick () in
    (op m a b, tt_of (fun k -> sem (holds ta k) (holds tb k)))
  in
  (* Weighted towards the operations that grow functions (or, xor, ite);
     and, diff and exists mostly shrink them. *)
  match Random.State.int rs 12 with
  | 0 -> binary B.bdd_and ( && )
  | 1 | 2 -> binary B.bdd_or ( || )
  | 3 | 4 -> binary B.bdd_xor ( <> )
  | 5 -> binary B.bdd_diff (fun a b -> a && not b)
  | 6 -> binary B.bdd_imp (fun a b -> (not a) || b)
  | 7 ->
      let a, ta = pick () in
      (B.bdd_not m a, tt_of (fun k -> not (holds ta k)))
  | 8 | 9 ->
      let f, tf = pick () and g, tg = pick () and h, th = pick () in
      ( B.ite m f g h,
        tt_of (fun k -> if holds tf k then holds tg k else holds th k) )
  | 10 ->
      (* Shuffled literals, with repeats and sometimes a contradiction. *)
      let lits =
        List.init (1 + Random.State.int rs 8) (fun _ ->
            (Random.State.int rs big_vars, Random.State.bool rs))
      in
      let lits = lits @ List.filteri (fun i _ -> i mod 2 = 0) lits in
      let lits =
        if Random.State.int rs 4 = 0 then
          match lits with (i, p) :: _ -> (i, not p) :: lits | [] -> lits
        else lits
      in
      let lits =
        List.map snd
          (List.sort compare
             (List.map (fun l -> (Random.State.bits rs, l)) lits))
      in
      ( B.cube m lits,
        tt_of (fun k -> List.for_all (fun (i, p) -> bit k i = p) lits) )
  | _ ->
      let a, ta = pick () in
      let vars = List.init (1 + Random.State.int rs 3) (fun _ -> Random.State.int rs big_vars) in
      let tt =
        List.fold_left
          (fun tt v ->
            let mask = 1 lsl v in
            tt_of (fun k -> holds tt (k land lnot mask) || holds tt (k lor mask)))
          ta vars
      in
      (B.exists m vars a, tt)

(* [eval] at every point and [any_sat]'s partial assignment (every
   completion of it) agree with the truth table. *)
let agrees m node tt =
  let eval_ok =
    let rec go k = k >= points || (B.eval m node (bit k) = holds tt k && go (k + 1)) in
    go 0
  in
  let sat_ok =
    match B.any_sat m node with
    | None -> not (String.contains tt '1')
    | Some lits ->
        let rec go k =
          k >= points
          || ((not (List.for_all (fun (i, p) -> bit k i = p) lits)) || holds tt k)
             && go (k + 1)
        in
        go 0
  in
  eval_ok && sat_ok

let prop_growth_scale =
  QCheck.Test.make ~name:"one manager, 12 vars: truth tables and canonicity"
    ~count:8 QCheck.small_nat (fun seed ->
      let rs = Random.State.make [| seed |] in
      let m = B.man () in
      let pool =
        ref
          (Array.of_list
             ((B.bdd_true m, tt_of (fun _ -> true))
             :: (B.bdd_false m, tt_of (fun _ -> false))
             :: List.concat
                  (List.init big_vars (fun i ->
                       [
                         (B.var m i, tt_of (fun k -> bit k i));
                         (B.nvar m i, tt_of (fun k -> not (bit k i)));
                       ]))))
      in
      (* Distinct truth tables seen so far, each with its BDD. *)
      let canon = ref [] in
      let ok = ref true in
      for _ = 1 to 400 do
        let node, tt = random_op m rs !pool in
        if not (agrees m node tt) then ok := false;
        (* Canonicity: [equal] holds iff the truth tables are equal. *)
        List.iter
          (fun (tt', node') ->
            if B.equal node node' <> String.equal tt tt' then ok := false)
          !canon;
        if not (List.exists (fun (tt', _) -> String.equal tt tt') !canon) then
          canon := (tt, node) :: !canon;
        pool := Array.append !pool [| (node, tt) |]
      done;
      (* Past the 1024-node initial arena: the unique table was rebuilt. *)
      !ok && B.node_count m > 1024)

let suite =
  [
    Alcotest.test_case "terminals" `Quick test_terminals;
    Alcotest.test_case "var semantics" `Quick test_var_semantics;
    Alcotest.test_case "hash consing" `Quick test_hash_consing;
    Alcotest.test_case "ite" `Quick test_ite;
    Alcotest.test_case "exists" `Quick test_exists;
    Alcotest.test_case "sat count" `Quick test_sat_count;
    Alcotest.test_case "any_sat" `Quick test_any_sat;
    Alcotest.test_case "fold_paths count" `Quick test_fold_paths_count;
    Alcotest.test_case "size" `Quick test_size;
    Alcotest.test_case "cube edges" `Quick test_cube_edges;
    QCheck_alcotest.to_alcotest prop_semantics;
    QCheck_alcotest.to_alcotest prop_sat_count_complement;
    QCheck_alcotest.to_alcotest prop_de_morgan;
    QCheck_alcotest.to_alcotest prop_xor_definition;
    QCheck_alcotest.to_alcotest prop_fold_paths_disjoint_cover;
    QCheck_alcotest.to_alcotest prop_growth_scale;
  ]
