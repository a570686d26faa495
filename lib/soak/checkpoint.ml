(* Versioned, digest-protected text serialization of the soak state.
   Floats travel as hex literals (%h) so parse/print round-trips exactly;
   multi-line blocks are count-prefixed so arbitrary one-line content
   (violation messages, window rows) survives. *)

module Fault = Apple_chaos.Fault

let version = "apple-soak-ckpt/2"

type t = {
  fingerprint : string;
  epoch : int;
  stream_bytes : int;
  blind_until : int;
  mem_baseline : int;
  mem_peak : int;
  open_faults : Fault.open_fault list;
  totals : (string * float) list;
  violations : string list;
  windows : string list;
}

let to_string t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%s" version;
  line "fingerprint %s" t.fingerprint;
  line "epoch %d" t.epoch;
  line "stream-bytes %d" t.stream_bytes;
  line "blind-until %d" t.blind_until;
  line "mem-baseline %d" t.mem_baseline;
  line "mem-peak %d" t.mem_peak;
  line "open-faults %d" (List.length t.open_faults);
  (* Soak's times are whole epochs, stored as integers. *)
  List.iter
    (fun { Fault.elem; since; sym } ->
      let since = int_of_float since and sym = if sym then 1 else 0 in
      match elem with
      | Fault.Link (u, v) -> line "link %d %d %d %d" u v since sym
      | Fault.Switch sw -> line "switch %d %d %d" sw since sym)
    t.open_faults;
  line "totals %d" (List.length t.totals);
  List.iter (fun (k, v) -> line "%s %h" k v) t.totals;
  line "violations %d" (List.length t.violations);
  List.iter (fun v -> line "%s" v) t.violations;
  line "windows %d" (List.length t.windows);
  List.iter (fun w -> line "%s" w) t.windows;
  let body = Buffer.contents buf in
  body ^ Printf.sprintf "digest %s\n" (Digest.to_hex (Digest.string body))

(* (1-based line number, message) *)
exception Bad of int * string

let of_string s =
  let lines = Array.of_list (String.split_on_char '\n' s) in
  (* [pos] counts the lines consumed so far, so it is also the 1-based
     number of the line being parsed. *)
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad (!pos, m))) fmt in
  let next () =
    incr pos;
    if !pos >= Array.length lines then fail "truncated checkpoint"
    else lines.(!pos - 1)
  in
  let keyed key l =
    let p = key ^ " " in
    let n = String.length p in
    if String.length l >= n && String.equal (String.sub l 0 n) p then
      String.sub l n (String.length l - n)
    else fail "expected %S line, got %S" key l
  in
  let int_of l = try int_of_string l with Failure _ -> fail "bad integer %S" l in
  let keyed_int key = int_of (keyed key (next ())) in
  let block key parse =
    let n = keyed_int key in
    if n < 0 then fail "negative %s count" key;
    List.init n (fun _ -> parse (next ()))
  in
  let last_word l =
    (* totals keys never contain spaces; split on the last. *)
    match String.rindex_opt l ' ' with
    | Some i ->
        (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
    | None -> fail "expected \"key value\", got %S" l
  in
  let float_of l = try float_of_string l with Failure _ -> fail "bad float %S" l in
  try
    (* Verify the digest first: the last line protects every byte above
       it, and the file must end in exactly one newline. *)
    let n = Array.length lines in
    if n < 2 || not (String.equal lines.(n - 1) "") then begin
      pos := n;
      fail "truncated checkpoint (no final newline)"
    end;
    pos := n - 1;
    let dline = lines.(n - 2) in
    let body = String.sub s 0 (String.length s - String.length dline - 1) in
    let expect = keyed "digest" dline in
    let got = Digest.to_hex (Digest.string body) in
    if not (String.equal expect got) then
      fail "digest mismatch (file corrupt): recorded %s, computed %s" expect
        got;
    pos := 0;
    let v = next () in
    if not (String.equal v version) then
      fail "unsupported checkpoint version %S (want %s)" v version;
    let fingerprint = keyed "fingerprint" (next ()) in
    let epoch = keyed_int "epoch" in
    let stream_bytes = keyed_int "stream-bytes" in
    let blind_until = keyed_int "blind-until" in
    let mem_baseline = keyed_int "mem-baseline" in
    let mem_peak = keyed_int "mem-peak" in
    let open_faults =
      block "open-faults" (fun l ->
          let fault elem since sym =
            {
              Fault.elem;
              since = float_of_int (int_of since);
              sym = int_of sym <> 0;
            }
          in
          match String.split_on_char ' ' l with
          | [ "link"; u; v; since; sym ] ->
              fault (Fault.Link (int_of u, int_of v)) since sym
          | [ "switch"; sw; since; sym ] ->
              fault (Fault.Switch (int_of sw)) since sym
          | _ -> fail "bad open-fault line %S" l)
    in
    let totals =
      block "totals" (fun l ->
          let k, v = last_word l in
          (k, float_of v))
    in
    let violations = block "violations" (fun l -> l) in
    let windows = block "windows" (fun l -> l) in
    ignore (keyed "digest" (next ()));
    Ok
      {
        fingerprint;
        epoch;
        stream_bytes;
        blind_until;
        mem_baseline;
        mem_peak;
        open_faults;
        totals;
        violations;
        windows;
      }
  with Bad (line, m) -> Error (Printf.sprintf "checkpoint: line %d: %s" line m)

let save ~path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t));
  Sys.rename tmp path

let load ~path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "checkpoint: no file at %s" path)
  else begin
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    of_string s
  end
