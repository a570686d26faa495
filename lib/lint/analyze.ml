type result = { files : int; diagnostics : Diagnostic.t list }

(* ------------------------------------------------------------------ *)
(* Path scoping                                                        *)

let under dir path =
  String.length path > String.length dir
  && String.equal (String.sub path 0 (String.length dir)) dir

let in_lib = under "lib/"
let in_obs = under "lib/obs/"
let in_trace = under "lib/trace/"
let in_parallel = under "lib/parallel/"

(* The modules allowed to touch Marshal: the digest-protected soak
   checkpoints and the flight-recorder ring are the only serialization
   boundaries reviewed for it. *)
let marshal_allowed path =
  String.equal path "lib/soak/checkpoint.ml"
  || String.equal path "lib/obs/flight.ml"

(* ------------------------------------------------------------------ *)
(* Per-file collection                                                 *)

type ctx = { path : string; mutable diags : Diagnostic.t list }

let emit ctx (rule : Rule.t) (loc : Location.t) message =
  ctx.diags <-
    {
      Diagnostic.file = ctx.path;
      line = loc.loc_start.pos_lnum;
      col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
      rule;
      message;
      waived = None;
    }
    :: ctx.diags

(* Longident → components, with a leading Stdlib. qualifier dropped so
   Stdlib.compare and Stdlib.Random.int match their bare spellings. *)
let lid_path lid =
  let rec go acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply _ -> []
  in
  match go [] lid with "Stdlib" :: (_ :: _ as rest) -> rest | p -> p

let dotted = String.concat "."

let stdout_idents =
  [
    [ "print_string" ]; [ "print_endline" ]; [ "print_newline" ];
    [ "print_int" ]; [ "print_float" ]; [ "print_char" ]; [ "print_bytes" ];
    [ "Printf"; "printf" ]; [ "Format"; "printf" ];
    [ "Format"; "print_string" ]; [ "Format"; "print_newline" ];
    [ "Format"; "print_flush" ]; [ "Format"; "std_formatter" ];
  ]

let mem_path p l = List.exists (fun q -> List.equal String.equal p q) l

(* Rules fired by a plain identifier occurrence. *)
let check_ident ctx lid (loc : Location.t) =
  let p = lid_path lid in
  (match p with
  | [ "compare" ] | [ "Stdlib"; "compare" ] ->
      emit ctx Rule.poly_compare loc
        "bare polymorphic `compare` — use Int.compare / Float.compare / \
         String.compare or a typed comparator"
  | [ "Hashtbl"; ("hash" | "seeded_hash") ] ->
      emit ctx Rule.poly_hash loc
        "Hashtbl.hash is representation-dependent and unstable across \
         compiler versions — hash a canonical string or derive a typed hash"
  | [ "Hashtbl"; (("iter" | "fold") as fn) ] ->
      emit ctx Rule.hashtbl_order loc
        (Printf.sprintf
           "Hashtbl.%s iteration order is unspecified — sort the keys \
            before consuming, or waive a commutative accumulation"
           fn)
  | [ "Random"; fn ] when not (String.equal fn "State") ->
      emit ctx Rule.random loc
        (Printf.sprintf
           "Random.%s drives the global, implicitly-seeded generator — \
            thread a seeded Rng.t / Random.State.t"
           fn)
  | [ "Sys"; "time" ]
  | [ "Unix"; ("gettimeofday" | "time" | "localtime" | "gmtime") ]
    when not (in_trace ctx.path) ->
      emit ctx Rule.wallclock loc
        (Printf.sprintf
           "%s reads the host clock outside lib/trace — inject the clock, \
            or waive a perf-metadata read"
           (dotted p))
  | [ "Obj"; "magic" ] ->
      emit ctx Rule.obj_magic loc "Obj.magic defeats the type system"
  | "Marshal" :: _ :: _ when not (marshal_allowed ctx.path) ->
      emit ctx Rule.marshal loc
        (Printf.sprintf
           "%s outside the checkpoint modules — the Marshal format is \
            compiler-version-specific"
           (dotted p))
  | _ -> ());
  if in_lib ctx.path && mem_path p stdout_idents then
    if in_obs ctx.path then
      emit ctx Rule.obs_stdout loc
        (Printf.sprintf
           "%s prints from lib/obs — the measurement plane renders to \
            strings; printing is the CLI's job (not waivable)"
           (dotted p))
    else
      emit ctx Rule.stdout loc
        (Printf.sprintf
           "%s prints from a library — report through Logs, telemetry or a \
            caller-supplied formatter"
           (dotted p));
  if in_parallel ctx.path then
    match p with
    | "Hashtbl" :: _ ->
        emit ctx Rule.parallel_hashtbl loc
          "Hashtbl in lib/parallel — the domain pool must stay free of \
           shared mutable tables"
    | _ -> ()

let comparison_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

(* A syntactically structural operand: comparing it with a polymorphic
   operator walks an unknown representation (and mis-orders nan,
   closures raise, ...).  Scalar literals and nullary constructors are
   left alone — the untyped pass cannot see through variables. *)
let structural (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some _) -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_variant (_, Some _) -> true
  | _ -> false

let check_expr ctx (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> check_ident ctx txt e.pexp_loc
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, args)
    when List.mem op comparison_ops ->
      if List.exists (fun (_, a) -> structural a) args then
        emit ctx Rule.poly_compare e.pexp_loc
          (Printf.sprintf
             "polymorphic %s on a structural operand — pattern-match or \
              use a typed equality"
             op)
  | Pexp_try (_, cases) ->
      List.iter
        (fun (c : Parsetree.case) ->
          match (c.pc_lhs.ppat_desc, c.pc_guard) with
          | Parsetree.Ppat_any, None ->
              emit ctx Rule.catch_all c.pc_lhs.ppat_loc
                "catch-all `with _ ->` swallows every exception (including \
                 Out_of_memory, Stack_overflow) — match the exceptions you \
                 mean or bind and re-raise"
          | _ -> ())
        cases
  | _ -> ()

(* Hashtbl leaking into lib/parallel through a type is as much a shared
   mutable table as a value-level use. *)
let check_typ ctx (t : Parsetree.core_type) =
  if in_parallel ctx.path then
    match t.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) -> (
        match lid_path txt with
        | "Hashtbl" :: _ ->
            emit ctx Rule.parallel_hashtbl t.ptyp_loc
              "Hashtbl type in lib/parallel — the domain pool must stay \
               free of shared mutable tables"
        | _ -> ())
    | _ -> ()

let iterator ctx =
  let open Ast_iterator in
  {
    default_iterator with
    expr =
      (fun self e ->
        check_expr ctx e;
        default_iterator.expr self e);
    typ =
      (fun self t ->
        check_typ ctx t;
        default_iterator.typ self t);
  }

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

let split_lines s = Array.of_list (String.split_on_char '\n' s)

let parse_diag ~path (loc : Location.t) message =
  {
    Diagnostic.file = path;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    rule = Rule.parse_error;
    message;
    waived = None;
  }

let source ~path contents =
  let lexbuf = Lexing.from_string contents in
  Location.init lexbuf path;
  Location.input_name := path;
  Lexer.init ();
  let is_intf = Filename.check_suffix path ".mli" in
  let parsed =
    try
      if is_intf then Ok (`Intf (Parse.interface lexbuf))
      else Ok (`Impl (Parse.implementation lexbuf))
    with
    | Syntaxerr.Error err ->
        Error (parse_diag ~path (Syntaxerr.location_of_error err) "syntax error")
    | Lexer.Error (_, loc) -> Error (parse_diag ~path loc "lexical error")
  in
  match parsed with
  | Error d -> [ d ]
  | Ok ast ->
      let comments = Lexer.comments () in
      let ctx = { path; diags = [] } in
      let it = iterator ctx in
      (match ast with
      | `Impl str -> it.Ast_iterator.structure it str
      | `Intf sg -> it.Ast_iterator.signature it sg);
      let lines = split_lines contents in
      let waivers, bad = Waiver.collect ~file:path ~lines comments in
      let diags = List.rev_map (Waiver.apply waivers) ctx.diags in
      let stale = Waiver.unused ~file:path waivers in
      List.sort Diagnostic.compare (diags @ bad @ stale)

let sources units =
  let diagnostics =
    List.concat_map (fun (path, contents) -> source ~path contents) units
  in
  { files = List.length units; diagnostics = List.sort Diagnostic.compare diagnostics }

(* ------------------------------------------------------------------ *)
(* Tree walking                                                        *)

let read_file abs =
  let ic = open_in_bin abs in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_unit name =
  Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

let rec walk ~root rel acc =
  let abs = Filename.concat root rel in
  let entries = Sys.readdir abs in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc name ->
      if String.length name > 0 && name.[0] = '.' then acc
      else
        let rel' = rel ^ "/" ^ name in
        let abs' = Filename.concat root rel' in
        if Sys.is_directory abs' then walk ~root rel' acc
        else if is_unit name then rel' :: acc
        else acc)
    acc entries

let tree ~root ~dirs =
  let files =
    List.concat_map
      (fun dir ->
        if Sys.file_exists (Filename.concat root dir) then
          List.rev (walk ~root dir [])
        else [])
      (List.sort String.compare dirs)
  in
  let diagnostics =
    List.concat_map
      (fun rel -> source ~path:rel (read_file (Filename.concat root rel)))
      files
  in
  {
    files = List.length files;
    diagnostics = List.sort Diagnostic.compare diagnostics;
  }
