type fixture = {
  fname : string;
  source : string;
  expect : (string * int) list;
}

(* Keep each fixture minimal: one rule, explicit line numbers.  These
   double as the living documentation of what the catalog catches. *)
let fixtures =
  [
    {
      fname = "lib/demo/poly_compare_ident.ml";
      source = "let sorted xs = List.sort compare xs\n";
      expect = [ ("L1", 1) ];
    };
    {
      fname = "lib/demo/poly_compare_op.ml";
      source = "let same a b = (a, 0) = (b, 0)\nlet opt x = x = Some 3\n";
      expect = [ ("L1", 1); ("L1", 2) ];
    };
    {
      fname = "lib/demo/poly_hash.ml";
      source = "let h v = Hashtbl.hash v\n";
      expect = [ ("L2", 1) ];
    };
    {
      fname = "lib/demo/hashtbl_order.ml";
      source =
        "let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n";
      expect = [ ("L3", 1) ];
    };
    {
      fname = "lib/demo/random_global.ml";
      source =
        "let roll () = Random.int 6\n\
         let ok st = Random.State.int st 6\n";
      expect = [ ("L4", 1) ];
    };
    {
      fname = "lib/demo/wallclock.ml";
      source = "let stamp () = Unix.gettimeofday ()\n";
      expect = [ ("L5", 1) ];
    };
    {
      (* Telemetry only aggregates; it reads no clock of its own. *)
      fname = "lib/telemetry/demo_clock.ml";
      source = "let stamp () = Unix.gettimeofday ()\n";
      expect = [ ("L5", 1) ];
    };
    {
      (* The tracer stamps wall time on spans; lib/trace is the one
         sanctioned clock reader. *)
      fname = "lib/trace/demo_clock.ml";
      source = "let stamp () = Unix.gettimeofday ()\n";
      expect = [];
    };
    {
      fname = "lib/demo/stdout.ml";
      source = "let banner () = print_endline \"hi\"\n";
      expect = [ ("L6", 1) ];
    };
    {
      (* lib/obs prints are rejected annotation or not: the waiver
         attempt itself is flagged (L13) and the print stays active
         under the obs-specific rule (L7). *)
      fname = "lib/obs/demo_render.ml";
      source =
        "(* lint: L7 — rendering is the CLI's job, this cannot pass *)\n\
         let show () = print_endline \"hi\"\n";
      expect = [ ("L13", 1); ("L7", 2) ];
    };
    {
      fname = "lib/demo/catch_all.ml";
      source = "let swallow f = try f () with _ -> ()\n";
      expect = [ ("L8", 1) ];
    };
    {
      fname = "lib/demo/obj_magic.ml";
      source = "let cast x = Obj.magic x\n";
      expect = [ ("L9", 1) ];
    };
    {
      fname = "lib/demo/marshal.ml";
      source = "let save oc v = Marshal.to_channel oc v []\n";
      expect = [ ("L10", 1) ];
    };
    {
      (* Both the type constructor and the value-level use trip L11. *)
      fname = "lib/parallel/demo_table.ml";
      source = "let t : (int, int) Hashtbl.t = Hashtbl.create 8\n";
      expect = [ ("L11", 1); ("L11", 1) ];
    };
    {
      fname = "lib/demo/unparseable.ml";
      source = "let = in\n";
      expect = [ ("L12", 1) ];
    };
    {
      fname = "lib/demo/stale_waiver.ml";
      source = "let x = 1 (* lint: L3 — nothing here to waive *)\n";
      expect = [ ("L13", 1) ];
    };
    {
      (* A reviewed waiver on the line above (alone on its line)
         suppresses the diagnostic: nothing active. *)
      fname = "lib/demo/waived.ml";
      source =
        "let keys t =\n\
        \  (* lint: hashtbl-order — frozen into a sorted list below *)\n\
        \  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort \
         Int.compare\n";
      expect = [];
    };
  ]

let report_json () =
  let units = List.map (fun f -> (f.fname, f.source)) fixtures in
  let { Analyze.files; diagnostics } = Analyze.sources units in
  Diagnostic.report_json ~files diagnostics
