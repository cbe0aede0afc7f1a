(** The stable library facade (see the interface).  Everything here is a
    thin, exception-catching composition of {!Frontend},
    {!Skipflow_core.Engine}, {!Skipflow_core.Analysis} and
    {!Skipflow_core.Trace}. *)

open Skipflow_core
module Frontend = Skipflow_frontend.Frontend
module Diag = Skipflow_frontend.Diag

type source = [ `File of string | `Text of string ]

type error =
  | Io_error of { path : string; message : string }
  | Compile_error of {
      file : string option;
      src : string;
      diags : Diag.t list;
    }
  | Unknown_root of string
  | No_main
  | Internal_error of string

let error_message = function
  | Io_error { path; message } -> Printf.sprintf "cannot read %s: %s" path message
  | Compile_error { file; diags; _ } ->
      Printf.sprintf "%d error%s in %s"
        (List.length diags)
        (if List.length diags = 1 then "" else "s")
        (Option.value ~default:"<text>" file)
  | Unknown_root msg -> msg
  | No_main -> "no static main method found and no root given"
  | Internal_error msg -> "internal error: " ^ msg

let render_error ppf = function
  | Compile_error { file; src; diags } ->
      Diag.render_all ?file ~src ppf diags
  | e -> Format.fprintf ppf "error: %s@." (error_message e)

let exit_code_of_error = function
  | Io_error _ | Compile_error _ | Unknown_root _ | No_main -> 2
  | Internal_error _ -> 1

(** Stable machine-readable tag, one per variant — what the CLI's JSON
    error object (and the batch journal) carries. *)
let error_kind = function
  | Io_error _ -> "io_error"
  | Compile_error _ -> "compile_error"
  | Unknown_root _ -> "unknown_root"
  | No_main -> "no_main"
  | Internal_error _ -> "internal_error"

type summary = {
  config : Config.t;
  engine : Engine.t;
  outcome : Engine.outcome;
  metrics : Metrics.t;
  trace : Trace.t;
  reachable : string list;
  wall_s : float;
  cpu_s : float;
}

(* Catch-all boundary: nothing below may let an exception escape. *)
let guard f =
  try f () with
  | (Stack_overflow | Out_of_memory) as e -> raise e
  | e -> Error (Internal_error (Printexc.to_string e))

let protect = guard

let spanner_of trace =
  { Frontend.span = (fun name f -> Trace.with_phase trace name f) }

let read_source = function
  | `Text src -> Ok (None, src)
  | `File path -> (
      match Io.read_file path with
      | Ok src -> Ok (Some path, src)
      | Error e -> Error (Io_error { path; message = Io.error_message e }))

let compile ?trace source =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  guard (fun () ->
      match read_source source with
      | Error e -> Error e
      | Ok (file, src) -> (
          match Frontend.compile_diags ~spanner:(spanner_of trace) src with
          | Ok prog -> Ok (prog, src)
          | Error diags -> Error (Compile_error { file; src; diags })))

let resolve_roots prog = function
  | [] -> (
      match Frontend.main_of prog with
      | Some m -> Ok [ m ]
      | None -> Error No_main)
  | names -> (
      match Analysis.roots_by_name prog names with
      | Ok ms -> Ok ms
      | Error msg -> Error (Unknown_root msg))

let summary_of_result ~trace ~w0 ~c0 (r : Analysis.result) =
  {
    config = r.Analysis.config;
    engine = r.Analysis.engine;
    outcome = r.Analysis.outcome;
    metrics = r.Analysis.metrics;
    trace;
    reachable = Analysis.reachable_names r;
    (* clamped: gettimeofday can step backwards (NTP), and a negative
       wall time would poison every downstream rate computation *)
    wall_s = Float.max 0.0 (Unix.gettimeofday () -. w0);
    cpu_s = Float.max 0.0 (Sys.time () -. c0);
  }

let analyze_program ?config ?on_budget ?trace prog ~roots =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  guard (fun () ->
      let w0 = Unix.gettimeofday () and c0 = Sys.time () in
      let r = Analysis.run ?config ?on_budget ~trace prog ~roots in
      Ok (summary_of_result ~trace ~w0 ~c0 r))

let resume_snapshot ?budget ?on_budget ?trace bytes =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  guard (fun () ->
      let w0 = Unix.gettimeofday () and c0 = Sys.time () in
      match Engine.of_snapshot_bytes ~trace ?budget bytes with
      | Error msg -> Error (Internal_error msg)
      | Ok engine ->
          let r = Analysis.rerun ?on_budget ~trace engine in
          Ok (summary_of_result ~trace ~w0 ~c0 r))

let analyze ?config ?on_budget ?trace ~source ~roots () =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  guard (fun () ->
      let w0 = Unix.gettimeofday () and c0 = Sys.time () in
      match compile ~trace source with
      | Error e -> Error e
      | Ok (prog, _src) -> (
          match resolve_roots prog roots with
          | Error e -> Error e
          | Ok root_meths -> (
              match
                analyze_program ?config ?on_budget ~trace prog
                  ~roots:root_meths
              with
              | Error e -> Error e
              | Ok s ->
                  Ok
                    {
                      s with
                      wall_s = Float.max 0.0 (Unix.gettimeofday () -. w0);
                      cpu_s = Float.max 0.0 (Sys.time () -. c0);
                    })))
