type kind =
  | Walk_start
  | Rule_match
  | Tag_set
  | Inst_enter
  | Walk_end
  | Pkt_drop
  | Poll
  | Overload
  | Recover
  | Epoch
  | Rules
  | Violation
  | Note
  | Blackhole

let kind_code = function
  | Walk_start -> 0
  | Rule_match -> 1
  | Tag_set -> 2
  | Inst_enter -> 3
  | Walk_end -> 4
  | Pkt_drop -> 5
  | Poll -> 6
  | Overload -> 7
  | Recover -> 8
  | Epoch -> 9
  | Rules -> 10
  | Violation -> 11
  | Note -> 12
  | Blackhole -> 13

(* Unknown codes (a newer dump read by older code) decode as [Note]
   rather than failing the whole load. *)
let kind_of_code = function
  | 0 -> Walk_start
  | 1 -> Rule_match
  | 2 -> Tag_set
  | 3 -> Inst_enter
  | 4 -> Walk_end
  | 5 -> Pkt_drop
  | 6 -> Poll
  | 7 -> Overload
  | 8 -> Recover
  | 9 -> Epoch
  | 10 -> Rules
  | 11 -> Violation
  | 13 -> Blackhole
  | _ -> Note

let kind_name = function
  | Walk_start -> "walk-start"
  | Rule_match -> "rule-match"
  | Tag_set -> "tag-set"
  | Inst_enter -> "inst-enter"
  | Walk_end -> "walk-end"
  | Pkt_drop -> "pkt-drop"
  | Poll -> "poll"
  | Overload -> "overload"
  | Recover -> "recover"
  | Epoch -> "epoch"
  | Rules -> "rules"
  | Violation -> "violation"
  | Note -> "note"
  | Blackhole -> "blackhole"

type event = {
  seq : int;
  time : float;
  kind : kind;
  a : int;
  b : int;
  c : int;
  d : int;
}

let slot_bytes = 56
let magic = "APPLFR1\n"
let default_capacity = 4096
let lock = Mutex.create ()
let cap = ref default_capacity
let buf = ref (Bytes.create (default_capacity * slot_bytes))
let total_events = ref 0

let set_capacity n =
  if n <= 0 then invalid_arg "Flight.set_capacity: capacity must be positive";
  Mutex.lock lock;
  cap := n;
  buf := Bytes.create (n * slot_bytes);
  total_events := 0;
  Mutex.unlock lock

let capacity () = !cap
let total () = !total_events
let length () = min !total_events !cap

let clear () =
  Mutex.lock lock;
  total_events := 0;
  Mutex.unlock lock

let now () =
  match Apple_trace.Trace.sim_now () with
  | Some t -> t
  (* lint: L5 — wall fallback when no sim clock; timestamps are diagnostic metadata *)
  | None -> Unix.gettimeofday ()

let write_slot bytes ~off ~seq ~time ~kcode ~a ~b ~c ~d =
  Bytes.set_int64_le bytes off (Int64.of_int seq);
  Bytes.set_int64_le bytes (off + 8) (Int64.bits_of_float time);
  Bytes.set_int64_le bytes (off + 16) (Int64.of_int kcode);
  Bytes.set_int64_le bytes (off + 24) (Int64.of_int a);
  Bytes.set_int64_le bytes (off + 32) (Int64.of_int b);
  Bytes.set_int64_le bytes (off + 40) (Int64.of_int c);
  Bytes.set_int64_le bytes (off + 48) (Int64.of_int d)

let read_slot bytes ~off =
  {
    seq = Int64.to_int (Bytes.get_int64_le bytes off);
    time = Int64.float_of_bits (Bytes.get_int64_le bytes (off + 8));
    kind = kind_of_code (Int64.to_int (Bytes.get_int64_le bytes (off + 16)));
    a = Int64.to_int (Bytes.get_int64_le bytes (off + 24));
    b = Int64.to_int (Bytes.get_int64_le bytes (off + 32));
    c = Int64.to_int (Bytes.get_int64_le bytes (off + 40));
    d = Int64.to_int (Bytes.get_int64_le bytes (off + 48));
  }

let record ?(a = 0) ?(b = 0) ?(c = 0) ?(d = 0) kind () =
  if Counters.enabled () then begin
    let time = now () in
    Mutex.lock lock;
    let seq = !total_events in
    let off = seq mod !cap * slot_bytes in
    write_slot !buf ~off ~seq ~time ~kcode:(kind_code kind) ~a ~b ~c ~d;
    total_events := seq + 1;
    Mutex.unlock lock
  end

(* Surviving slot offsets, oldest first. *)
let iter_slots f =
  Mutex.lock lock;
  let n = min !total_events !cap in
  let first = !total_events - n in
  for i = 0 to n - 1 do
    f (((first + i) mod !cap) * slot_bytes)
  done;
  Mutex.unlock lock

let events () =
  let acc = ref [] in
  iter_slots (fun off -> acc := read_slot !buf ~off :: !acc);
  List.rev !acc

let dump ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      let header = Bytes.create 8 in
      Bytes.set_int64_le header 0 (Int64.of_int (length ()));
      output_bytes oc header;
      iter_slots (fun off -> output_bytes oc (Bytes.sub !buf off slot_bytes)))

let load ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let file_len = in_channel_length ic in
          let head_len = String.length magic + 8 in
          if file_len < head_len then Error (path ^ ": truncated flight dump")
          else begin
            let head = really_input_string ic (String.length magic) in
            if head <> magic then Error (path ^ ": not a flight-recorder dump")
            else begin
              let count_bytes = Bytes.create 8 in
              really_input ic count_bytes 0 8;
              let count = Int64.to_int (Bytes.get_int64_le count_bytes 0) in
              (* Divide rather than multiply: a forged count overflows
                 [count * slot_bytes]. *)
              if count < 0 || count > (file_len - head_len) / slot_bytes then
                Error (path ^ ": truncated flight dump")
              else begin
                let body = Bytes.create (count * slot_bytes) in
                really_input ic body 0 (count * slot_bytes);
                let acc = ref [] in
                for i = count - 1 downto 0 do
                  acc := read_slot body ~off:(i * slot_bytes) :: !acc
                done;
                Ok !acc
              end
            end
          end)
