(** JSONL request/response protocol for [skipflow serve].  See the
    interface for the wire format; the design constraints here are that
    parsing never raises, every {!Api.error} variant has a structured
    rendering, and the error objects are byte-compatible with the
    one-shot CLI's [--format json] failure documents. *)

module Api = Skipflow_api
module F = Skipflow_frontend
module Json = Skipflow_checks.Json

let schema_version = 1

type request =
  | Analyze of { roots : string list option }
  | Lint of { only : string list option }
  | Profile
  | Edit of { source : string }
  | Health
  | Shutdown

type envelope = {
  req_id : int option;
  req_deadline_ms : int option;
  req : request;
}

type error =
  | Api_error of Api.error
  | Parse_error of string
  | Unknown_op of string
  | No_program
  | Deadline_exceeded of { deadline_ms : int }
  | Overloaded of { retry_after_ms : int }
  | Shutting_down

let error_kind = function
  | Api_error e -> Api.error_kind e
  | Parse_error _ -> "parse_error"
  | Unknown_op _ -> "unknown_op"
  | No_program -> "no_program"
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Overloaded _ -> "overloaded"
  | Shutting_down -> "shutting_down"

let error_message = function
  | Api_error e -> Api.error_message e
  | Parse_error msg -> "malformed request: " ^ msg
  | Unknown_op op -> Printf.sprintf "unknown op %S" op
  | No_program -> "no program loaded; send an edit request first"
  | Deadline_exceeded { deadline_ms } ->
      Printf.sprintf
        "request exceeded its %dms deadline; resident state rolled back"
        deadline_ms
  | Overloaded { retry_after_ms } ->
      Printf.sprintf "daemon is over its memory ceiling; retry after %dms"
        retry_after_ms
  | Shutting_down -> "daemon is shutting down"

(* the CLI's exit-code contract, extended: client mistakes are input
   errors (2), a tripped deadline is the degraded/budget code (3), and
   transient server-side conditions are analysis errors (1) *)
let exit_code_of_error = function
  | Api_error e -> Api.exit_code_of_error e
  | Parse_error _ | Unknown_op _ | No_program -> 2
  | Deadline_exceeded _ -> 3
  | Overloaded _ | Shutting_down -> 1

(* ------------------------------ parsing ------------------------------- *)

let member_str name j =
  match Json.member name j with Some (Json.Str s) -> Some s | _ -> None

let member_int name j =
  match Json.member name j with Some (Json.Int n) -> Some n | _ -> None

(** [None] when absent, [Error] when present but not a string array. *)
let member_str_list name j =
  match Json.member name j with
  | None -> Ok None
  | Some (Json.Arr items) ->
      let rec go acc = function
        | [] -> Ok (Some (List.rev acc))
        | Json.Str s :: rest -> go (s :: acc) rest
        | _ -> Error (Printf.sprintf "%S must be an array of strings" name)
      in
      go [] items
  | Some _ -> Error (Printf.sprintf "%S must be an array of strings" name)

let parse_request line =
  match Json.of_string line with
  | exception Json.Parse_error msg -> Error (Parse_error msg)
  | j -> (
      match Json.member "schema_version" j with
      | Some (Json.Int v) when v <> schema_version ->
          Error
            (Parse_error
               (Printf.sprintf "unsupported schema_version %d (expected %d)" v
                  schema_version))
      | Some (Json.Int _) | None -> (
          let req_id = member_int "id" j in
          let req_deadline_ms = member_int "deadline_ms" j in
          let finish req = Ok { req_id; req_deadline_ms; req } in
          match member_str "op" j with
          | None -> Error (Parse_error "missing \"op\"")
          | Some "analyze" -> (
              match member_str_list "roots" j with
              | Error msg -> Error (Parse_error msg)
              | Ok roots -> finish (Analyze { roots }))
          | Some "lint" -> (
              match member_str_list "only" j with
              | Error msg -> Error (Parse_error msg)
              | Ok only -> finish (Lint { only }))
          | Some "profile" -> finish Profile
          | Some "edit" -> (
              match member_str "source" j with
              | None -> Error (Parse_error "edit: missing \"source\"")
              | Some source -> finish (Edit { source }))
          | Some "health" -> finish Health
          | Some "shutdown" -> finish Shutdown
          | Some op -> Error (Unknown_op op))
      | Some _ -> Error (Parse_error "\"schema_version\" must be an integer"))

(** Best-effort extraction of the request id so error responses can echo
    it even when the request itself is rejected (unknown op, bad field
    types).  [None] when the line is not valid JSON or carries no id. *)
let request_id line =
  match Json.of_string line with
  | exception Json.Parse_error _ -> None
  | j -> member_int "id" j

(* --------------------------- serialization ---------------------------- *)

let api_error_fields (e : Api.error) =
  let diags =
    match e with
    | Api.Compile_error { diags; _ } ->
        [ ( "diags",
            Json.Arr
              (List.map
                 (fun (d : F.Diag.t) ->
                   Json.Obj
                     [ ("line", Json.Int d.F.Diag.pos.F.Lexer.line);
                       ("col", Json.Int d.F.Diag.pos.F.Lexer.col);
                       ("message", Json.Str d.F.Diag.message);
                     ])
                 diags) );
        ]
    | _ -> []
  in
  [ ("kind", Json.Str (Api.error_kind e));
    ("message", Json.Str (Api.error_message e));
    ("exit_code", Json.Int (Api.exit_code_of_error e));
  ]
  @ diags

let metrics_json (m : Skipflow_core.Metrics.t) =
  let module M = Skipflow_core.Metrics in
  Json.Obj
    [ ("reachable_methods", Json.Int m.M.reachable_methods);
      ("type_checks", Json.Int m.M.type_checks);
      ("null_checks", Json.Int m.M.null_checks);
      ("prim_checks", Json.Int m.M.prim_checks);
      ("poly_calls", Json.Int m.M.poly_calls);
      ("mono_calls", Json.Int m.M.mono_calls);
      ("binary_size", Json.Int m.M.binary_size);
      ("flows", Json.Int m.M.flows);
      ("instantiated_types", Json.Int m.M.instantiated_types);
    ]

let api_error_json e =
  Json.Obj
    [ ("schema_version", Json.Int Json.current_schema_version);
      ("error", Json.Obj (api_error_fields e));
    ]

let error_json err =
  let base =
    match err with
    | Api_error e -> api_error_fields e
    | _ ->
        [ ("kind", Json.Str (error_kind err));
          ("message", Json.Str (error_message err));
          ("exit_code", Json.Int (exit_code_of_error err));
        ]
  in
  let extra =
    match err with
    | Overloaded { retry_after_ms } ->
        [ ("retry_after_ms", Json.Int retry_after_ms) ]
    | Deadline_exceeded { deadline_ms } ->
        [ ("deadline_ms", Json.Int deadline_ms) ]
    | _ -> []
  in
  Json.Obj (base @ extra)

let id_field = function Some id -> [ ("id", Json.Int id) ] | None -> []

let response_ok ~id result =
  Json.Obj
    ([ ("schema_version", Json.Int schema_version) ]
    @ id_field id
    @ [ ("ok", Json.Bool true); ("result", result) ])

let response_error ~id err =
  Json.Obj
    ([ ("schema_version", Json.Int schema_version) ]
    @ id_field id
    @ [ ("ok", Json.Bool false); ("error", error_json err) ])

let response_line j = Json.to_compact_string j ^ "\n"
