type severity = Error | Warning

type t = { id : string; name : string; severity : severity; summary : string }

let poly_compare =
  {
    id = "L1";
    name = "poly-compare";
    severity = Error;
    summary =
      "polymorphic compare/equality (bare `compare`, Stdlib.compare, or a \
       comparison operator on a structural operand) — mis-orders nan, \
       records and custom types; use a typed comparator";
  }

let poly_hash =
  {
    id = "L2";
    name = "poly-hash";
    severity = Error;
    summary =
      "Hashtbl.hash / Hashtbl.seeded_hash — representation-dependent and \
       unstable across compiler versions; derive a typed hash";
  }

let hashtbl_order =
  {
    id = "L3";
    name = "hashtbl-order";
    severity = Warning;
    summary =
      "Hashtbl.iter / Hashtbl.fold — iteration order is unspecified; sort \
       the keys before consuming, or waive a commutative accumulation";
  }

let random =
  {
    id = "L4";
    name = "random";
    severity = Error;
    summary =
      "global Random state (Random.self_init, Random.int, ...) — thread a \
       seeded Rng.t / Random.State.t instead";
  }

let wallclock =
  {
    id = "L5";
    name = "wallclock";
    severity = Error;
    summary =
      "wall-clock read (Sys.time, Unix.gettimeofday, ...) outside \
       lib/trace — results must not depend on the host clock; waive \
       perf-metadata reads";
  }

let stdout =
  {
    id = "L6";
    name = "stdout";
    severity = Error;
    summary =
      "stdout printing in lib/ — libraries report through Logs, telemetry \
       or a caller-supplied formatter";
  }

let obs_stdout =
  {
    id = "L7";
    name = "obs-stdout";
    severity = Error;
    summary =
      "stdout printing in lib/obs — the measurement plane renders to \
       strings (Top.render, Provenance.render); printing is the CLI's \
       job.  Not waivable";
  }

let catch_all =
  {
    id = "L8";
    name = "catch-all";
    severity = Error;
    summary =
      "`try ... with _ ->` swallows every exception (including \
       Out_of_memory and Stack_overflow) — match the exceptions you mean";
  }

let obj_magic =
  {
    id = "L9";
    name = "obj-magic";
    severity = Error;
    summary = "Obj.magic defeats the type system";
  }

let marshal =
  {
    id = "L10";
    name = "marshal";
    severity = Error;
    summary =
      "Marshal outside the checkpoint modules — its format is \
       compiler-version-specific and un-diffable; use the textual \
       checkpoint or flight encodings";
  }

let parallel_hashtbl =
  {
    id = "L11";
    name = "parallel-hashtbl";
    severity = Error;
    summary =
      "Hashtbl in lib/parallel — the domain pool must stay free of shared \
       mutable tables";
  }

let parse_error =
  {
    id = "L12";
    name = "parse-error";
    severity = Error;
    summary = "source does not parse — the analyzer cannot certify it";
  }

let bad_waiver =
  {
    id = "L13";
    name = "bad-waiver";
    severity = Error;
    summary =
      "malformed, unknown, reason-less or unused (* lint: ... *) waiver";
  }

let catalog =
  [
    poly_compare; poly_hash; hashtbl_order; random; wallclock; stdout;
    obs_stdout; catch_all; obj_magic; marshal; parallel_hashtbl; parse_error;
    bad_waiver;
  ]

(* The pre-AST grep gate accepted bare (* lint: hashtbl *) for reviewed
   Hashtbl sites in lib/parallel; keep the token resolving to the same
   rule so old annotations stay meaningful (they still need a reason). *)
let legacy_aliases = [ ("hashtbl", parallel_hashtbl) ]

let find token =
  let eq r = String.equal r.id token || String.equal r.name token in
  match List.find_opt eq catalog with
  | Some r -> Some r
  | None ->
      List.find_opt (fun (a, _) -> String.equal a token) legacy_aliases
      |> Option.map snd

let waivable r =
  not
    (String.equal r.id obs_stdout.id
    || String.equal r.id parse_error.id
    || String.equal r.id bad_waiver.id)

let severity_to_string = function Error -> "error" | Warning -> "warning"
