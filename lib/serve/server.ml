(** The daemon state machine.  Transport (stdin/socket, signals,
    blocking reads) lives in the CLI; this module owns request handling,
    the journal, snapshots, warm-start replay and the memory ceiling —
    all driveable in process by tests and the fuzz harness. *)

module C = Skipflow_core
module Api = Skipflow_api
module F = Skipflow_frontend
module Json = Skipflow_checks.Json
module Checks = Skipflow_checks.Checks
module Finding = Skipflow_checks.Finding
module P = Protocol
module I = Incremental

type cfg = {
  sv_config : C.Config.t;
  sv_roots : string list;
  sv_state_dir : string option;
  sv_memo_entries : int;
  sv_timings : bool;
  sv_max_heap_mb : int option;
  sv_restarts : int;
  sv_log : string -> unit;
}

let default_cfg =
  {
    sv_config = C.Config.skipflow;
    sv_roots = [];
    sv_state_dir = None;
    sv_memo_entries = 8;
    sv_timings = false;
    sv_max_heap_mb = None;
    sv_restarts = 0;
    sv_log = (fun _ -> ());
  }

module SS = Set.Make (String)

(** A journaled response awaiting its request to arrive again. *)
type replay_entry = {
  re_gen : int;  (** generation {e after} the original request *)
  re_digest : string;  (** content hash of the request line *)
  re_ok : bool;
  re_response : string;  (** the exact response line *)
}

type t = {
  cfg : cfg;
  memo : I.Memo.t;
  mutable st : I.state option;
  mutable st_frozen : string;  (** {!I.freeze} of [st] (empty while [None]) *)
  mutable names : (string * string) list;
      (** [(frozen bytes, blob name)] for the strings the last snapshot
          referenced, matched by physical equality: a frozen string is
          digested at most once while it stays referenced *)
  mutable on_disk : SS.t;  (** blob names present under [blobs/] *)
  mutable journal : C.Io.appender option;
  mutable replay : replay_entry list;
  mutable dirty : bool;
      (** a commit since the last successful snapshot; a failed snapshot
          leaves it set, so the next request retries *)
  mutable shutdown : bool;
  mutable finalized : bool;
  mutable served : int;
  mutable mem_shed : int;  (** requests shed by the memory ceiling *)
}

let generation t = match t.st with Some s -> s.I.generation | None -> 0
let state t = t.st
let wants_shutdown t = t.shutdown

(* ----------------------------- persistence ---------------------------- *)

(* The state directory is content-addressed:

     serve.snap          the manifest: a JSON payload naming the resident
                         blob (plus its generation) and the memo's blobs
     blobs/<md5>.blob    one frozen state each, named by its digest
     journal.jsonl       one line per response, for replay

   Both file kinds are {!C.Snapshot} containers.  A frozen state is
   written once, when a manifest first references it; a memo hit
   rewrites only the manifest. *)
let serve_snapshot_kind = "serve-state"
let serve_snapshot_version = 2
let blob_kind = "serve-blob"

(* A blob is an {!I.freeze} image: a frozen serve state that {!I.thaw}
   decodes unchecked, around an engine image, with the fingerprints later
   edits are diffed against.  Its version moves with the engine's (the
   hundreds) and with the frozen record or the fingerprint scheme (the
   units, bumped by hand), so a blob written under any other layout is a
   [Bad_version] cold start, never a bad decode or a stale strategy.
   Units 1: fingerprints walk the IR, spans included. *)
let blob_version = (100 * C.Engine.snapshot_version) + 1
let snap_path dir = Filename.concat dir "serve.snap"
let journal_path dir = Filename.concat dir "journal.jsonl"
let blob_dir dir = Filename.concat dir "blobs"
let blob_path dir name = Filename.concat (blob_dir dir) (name ^ ".blob")

let digest_line line = Digest.to_hex (Digest.string (String.trim line))

(* what a state dir was solved under, readable in the manifest and in
   the log line of a start that refuses it: resuming under another
   configuration or other roots would serve the old one's answers *)
let config_fingerprint cfg =
  C.Cache.fingerprint cfg.sv_config ^ ";roots=" ^ String.concat "," cfg.sv_roots

type manifest = {
  mf_config_fp : string;
  mf_resident : (string * int) option;  (** blob name, generation *)
  mf_memo : (string * string) list;  (** (memo key, blob name), MRU first *)
}

let manifest_json m =
  Json.Obj
    [ ("config", Json.Str m.mf_config_fp);
      ( "resident",
        match m.mf_resident with
        | None -> Json.Null
        | Some (blob, gen) ->
            Json.Obj [ ("blob", Json.Str blob); ("generation", Json.Int gen) ] );
      ( "memo",
        Json.Arr
          (List.map
             (fun (key, blob) ->
               Json.Obj [ ("key", Json.Str key); ("blob", Json.Str blob) ])
             m.mf_memo) );
    ]

(* a blob name becomes a path, so anything but a digest is rejected *)
let is_blob_name s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let manifest_of_payload payload =
  let str = function Some (Json.Str s) -> s | _ -> raise Exit in
  let blob o =
    let b = str (Json.member "blob" o) in
    if is_blob_name b then b else raise Exit
  in
  match
    let j = Json.of_string payload in
    {
      mf_config_fp = str (Json.member "config" j);
      mf_resident =
        (match Json.member "resident" j with
        | Some Json.Null -> None
        | Some o -> (
            match Json.member "generation" o with
            | Some (Json.Int gen) -> Some (blob o, gen)
            | _ -> raise Exit)
        | None -> raise Exit);
      mf_memo =
        (match Json.member "memo" j with
        | Some (Json.Arr items) ->
            List.map (fun o -> (str (Json.member "key" o), blob o)) items
        | _ -> raise Exit);
    }
  with
  | m -> Some m
  | exception (Exit | Json.Parse_error _) -> None

(* [Ok None]: no snapshot yet; [Error]: why the manifest was rejected *)
let read_manifest dir =
  match
    C.Snapshot.read ~path:(snap_path dir) ~kind:serve_snapshot_kind
      ~version:serve_snapshot_version
  with
  | Error (C.Snapshot.Io _) -> Ok None
  | Error e -> Error ("serve snapshot rejected (" ^ C.Snapshot.error_message e ^ ")")
  | Ok payload -> (
      match manifest_of_payload payload with
      | Some m -> Ok (Some m)
      | None -> Error "serve snapshot payload undecodable")

let manifest_blobs m =
  Option.fold ~none:[] ~some:(fun (b, _) -> [ b ]) m.mf_resident
  @ List.map snd m.mf_memo

(* Commit order: every referenced blob not yet on disk, then the manifest
   (atomically), then the blobs it no longer references.  A crash
   anywhere leaves the old manifest with all its blobs, or the new one
   with all of its; orphans are swept by the next {!create}.  [dirty] is
   cleared only on success, so a failed snapshot is retried by the next
   request. *)
let write_snapshot t =
  match t.cfg.sv_state_dir with
  | None -> ()
  | Some dir -> (
      (* each physical string is digested at most once per write: the
         resident's image is also its own memo entry *)
      let named bytes =
        match List.find_opt (fun (b, _) -> b == bytes) t.names with
        | Some entry -> entry
        | None ->
            let entry = (bytes, Digest.to_hex (Digest.string bytes)) in
            t.names <- entry :: t.names;
            entry
      in
      let resident =
        Option.map (fun st -> (named t.st_frozen, st.I.generation)) t.st
      in
      let memo =
        List.map (fun (key, bytes) -> (key, named bytes)) (I.Memo.entries t.memo)
      in
      let refs = Option.to_list (Option.map fst resident) @ List.map snd memo in
      t.names <- refs;
      let rec store = function
        | [] -> Ok ()
        | (bytes, name) :: rest ->
            if SS.mem name t.on_disk then store rest
            else (
              match
                C.Snapshot.write ~path:(blob_path dir name) ~kind:blob_kind
                  ~version:blob_version bytes
              with
              | Error _ as e -> e
              | Ok () ->
                  t.on_disk <- SS.add name t.on_disk;
                  store rest)
      in
      let manifest =
        {
          mf_config_fp = config_fingerprint t.cfg;
          mf_resident =
            Option.map (fun ((_, name), gen) -> (name, gen)) resident;
          mf_memo = List.map (fun (key, (_, name)) -> (key, name)) memo;
        }
      in
      match
        Result.bind (store refs) (fun () ->
            C.Snapshot.write ~path:(snap_path dir) ~kind:serve_snapshot_kind
              ~version:serve_snapshot_version
              (Json.to_compact_string (manifest_json manifest)))
      with
      | Error e ->
          t.cfg.sv_log
            ("serve snapshot write failed: " ^ C.Snapshot.error_message e)
      | Ok () ->
          let live = SS.of_list (List.map snd refs) in
          (* a blob whose unlink failed stays tracked for the next commit *)
          t.on_disk <-
            SS.filter
              (fun name ->
                SS.mem name live
                || Result.is_error (C.Io.unlink (blob_path dir name)))
              t.on_disk;
          t.dirty <- false)

let set_resident t st frozen =
  t.st <- Some st;
  t.st_frozen <- frozen

let maybe_snapshot t = if t.dirty then write_snapshot t

(* Make a candidate the resident state, applying its memo writes, unless
   it is the resident state already (a [resident] answer, whose
   generation did not move).  The replaced resident goes to the memo's
   kept slot with its image, so reverting to it needs no thaw.  Returns
   whether it mutated. *)
let commit t (o : I.outcome) =
  let mutated =
    match t.st with
    | Some s -> o.I.o_state.I.generation > s.I.generation
    | None -> true
  in
  if mutated then begin
    Option.iter (I.Memo.keep t.memo t.st_frozen) t.st;
    set_resident t o.I.o_state (Lazy.force o.I.o_frozen);
    List.iter (I.Memo.add t.memo) o.I.o_memo_adds;
    t.dirty <- true
  end;
  mutated

(** Journal lines are [{"schema_version", "journal": {gen, digest, ok,
    response}}]; a torn last line (SIGKILL mid-append) parses as nothing
    and is skipped — losing at most the in-flight request, which the
    client re-sends and the daemon recomputes. *)
let read_journal path =
  match C.Io.read_file path with
  | Error _ -> []
  | Ok contents ->
      List.filter_map
        (fun line ->
          if String.trim line = "" then None
          else
            match Json.of_string line with
            | exception Json.Parse_error _ -> None
            | j -> (
                match
                  (Json.member "schema_version" j, Json.member "journal" j)
                with
                | Some (Json.Int v), Some jr when v = P.schema_version -> (
                    match
                      ( Json.member "gen" jr,
                        Json.member "digest" jr,
                        Json.member "ok" jr,
                        Json.member "response" jr )
                    with
                    | ( Some (Json.Int re_gen),
                        Some (Json.Str re_digest),
                        Some (Json.Bool re_ok),
                        Some resp ) ->
                        Some
                          {
                            re_gen;
                            re_digest;
                            re_ok;
                            re_response = P.response_line resp;
                          }
                    | _ -> None)
                | _ -> None))
        (String.split_on_char '\n' contents)

(* One [write(2)] per line on an O_APPEND descriptor (the {!C.Io}
   appender), so a SIGKILL tears at most the final line; [--durability
   fsync] additionally syncs each line before the response is emitted. *)
let journal_append t ~digest ~ok resp_json =
  match t.journal with
  | None -> ()
  | Some ap -> (
      let line =
        Json.to_compact_string
          (Json.Obj
             [ ("schema_version", Json.Int P.schema_version);
               ( "journal",
                 Json.Obj
                   [ ("gen", Json.Int (generation t));
                     ("digest", Json.Str digest);
                     ("ok", Json.Bool ok);
                     ("response", resp_json);
                   ] );
             ])
      in
      match C.Io.append_line ap line with
      | Ok () -> ()
      | Error e ->
          t.cfg.sv_log ("serve journal append failed: " ^ C.Io.error_message e))

(* ------------------------------ responses ----------------------------- *)

let summary_json t ~wall_us (o : I.outcome) =
  let st = o.I.o_state in
  let m = st.I.metrics in
  Json.Obj
    ([ ("analysis", Json.Str (C.Config.name t.cfg.sv_config));
       (* schema-1 field; the daemon always solves with the dedup engine *)
       ("engine", Json.Str "dedup");
       ("strategy", Json.Str (I.strategy_name o.I.o_strategy));
     ]
    @ (match I.strategy_reason o.I.o_strategy with
      | Some reason -> [ ("fallback_reason", Json.Str reason) ]
      | None -> [])
    @ [ ("verified", Json.Bool o.I.o_verified);
        ("generation", Json.Int st.I.generation);
        ("degraded", Json.Bool m.C.Metrics.degraded);
        ("metrics", P.metrics_json m);
        ("wall_us", Json.Int wall_us);
      ])

let health_json t =
  let reachable, flows =
    match t.st with
    | Some s ->
        (s.I.metrics.C.Metrics.reachable_methods, s.I.metrics.C.Metrics.flows)
    | None -> (0, 0)
  in
  Json.Obj
    [ ("status", Json.Str "ok");
      ("program", Json.Bool (t.st <> None));
      ("generation", Json.Int (generation t));
      ("reachable_methods", Json.Int reachable);
      ("flows", Json.Int flows);
      ("requests_served", Json.Int t.served);
      (* supervisor observability: how many times this daemon has been
         restarted ([serve --supervise] passes the count down), and how
         many requests the memory ceiling has shed *)
      ("restarts", Json.Int t.cfg.sv_restarts);
      ("memory_shed", Json.Int t.mem_shed);
    ]

let profile_json t (st : I.state) =
  let s = C.Engine.stats st.I.engine in
  let counters =
    List.filter
      (fun (name, _) ->
        (* wall-clock counters (["*.wall_us"]) are dropped unless timings
           were asked for: profile output stays byte-comparable *)
        t.cfg.sv_timings || not (Filename.check_suffix name "wall_us"))
      (C.Trace.counters (C.Engine.trace_of st.I.engine))
  in
  Json.Obj
    [ ("analysis", Json.Str (C.Config.name t.cfg.sv_config));
      ("engine", Json.Str "dedup");
      ("generation", Json.Int st.I.generation);
      ( "stats",
        Json.Obj
          [ ("tasks_processed", Json.Int s.C.Engine.tasks_processed);
            ("input_tasks", Json.Int s.C.Engine.input_tasks);
            ("enable_tasks", Json.Int s.C.Engine.enable_tasks);
            ("notify_tasks", Json.Int s.C.Engine.notify_tasks);
            ("dedup_input", Json.Int s.C.Engine.dedup_input);
            ("dedup_enable", Json.Int s.C.Engine.dedup_enable);
            ("dedup_notify", Json.Int s.C.Engine.dedup_notify);
            ("use_edges", Json.Int s.C.Engine.use_edges);
            ("links", Json.Int s.C.Engine.links);
            ("max_queue", Json.Int s.C.Engine.max_queue);
          ] );
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) counters));
    ]

(* ------------------------------ dispatch ------------------------------ *)

(** Run [f] under the facade's exception boundary: the serve counterpart
    of the CLI's "no exception crosses" guarantee. *)
let protected f =
  match Api.protect (fun () -> Ok (f ())) with
  | Ok r -> r
  | Error e -> Error (P.Api_error e)

(** Dispatch one parsed request.  Mutations are computed as candidates
    and committed here — an [Error] return leaves the resident state,
    the memo and the generation exactly as they were (rollback by
    construction). *)
let dispatch t (env : P.envelope) ~deadline_ms ~t0 =
  let config = t.cfg.sv_config in
  let wall_us () =
    if t.cfg.sv_timings then
      (* clamped: a backwards clock step must not report negative time *)
      int_of_float (Float.max 0.0 (Unix.gettimeofday () -. t0) *. 1e6)
    else 0
  in
  let need_state f =
    match t.st with None -> Error P.No_program | Some st -> f st
  in
  let answer o =
    let mutated = commit t o in
    (summary_json t ~wall_us:(wall_us ()) o, mutated)
  in
  match env.P.req with
  | P.Shutdown ->
      t.shutdown <- true;
      Ok (Json.Obj [ ("status", Json.Str "shutting_down") ], false)
  | P.Health -> Ok (health_json t, false)
  | P.Profile -> need_state (fun st -> Ok (profile_json t st, false))
  | P.Lint { only } ->
      need_state (fun st ->
          match
            Api.resolve_roots (C.Engine.prog_of st.I.engine) st.I.roots
          with
          | Error e -> Error (P.Api_error e)
          | Ok roots -> (
              match
                Checks.run ?only (Checks.make_ctx ~engine:st.I.engine ~roots)
              with
              | exception Checks.Unknown_check id ->
                  Error (P.Parse_error (Printf.sprintf "unknown check %S" id))
              | findings ->
                  Ok
                    ( Finding.document_to_json ~file:"<resident>"
                        ~analysis:(C.Config.name config) findings,
                      false )))
  | P.Edit { source } -> (
      let r =
        match t.st with
        | None ->
            I.solve_full ~reason:"initial program" ~config ~deadline_ms
              ~generation:0 ~source ~roots:t.cfg.sv_roots ()
        | Some st -> I.edit ~config ~deadline_ms ~memo:t.memo st ~source
      in
      match r with Error _ as e -> e | Ok o -> Ok (answer o))
  | P.Analyze { roots } ->
      need_state (fun st ->
          let roots = Option.value ~default:st.I.roots roots in
          match
            I.analyze_roots ~config ~deadline_ms ~memo:t.memo st ~roots
          with
          | Error _ as e -> e
          | Ok o -> Ok (answer o))

(* ----------------------------- processing ----------------------------- *)

let emit t ~line ~ok resp_json =
  t.served <- t.served + 1;
  journal_append t ~digest:(digest_line line) ~ok resp_json;
  maybe_snapshot t;
  P.response_line resp_json

(* ---------------------------- memory ceiling --------------------------- *)

let shed_retry_after_ms = 50

let heap_mb () =
  (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) / (1024 * 1024)

(** Graceful degradation before the OOM killer arrives: when the major
    heap crosses [sv_max_heap_mb], drop the cheap-to-recompute state
    first — the memo LRU with the replaced state it keeps, and the
    blob-name cache — and compact; only if the heap is {e still} over
    the ceiling is the request shed, with {!shed_retry_after_ms} as the
    hint.  Shed responses are not
    journaled: memory pressure depends on timing, and replay must stay
    deterministic.  A shed request re-sent after a restart
    desynchronizes the replay cursor, which degrades to fresh
    (deterministic) processing. *)
let over_ceiling t =
  match t.cfg.sv_max_heap_mb with
  | None -> false
  | Some cap ->
      heap_mb () > cap
      && begin
           I.Memo.clear t.memo;
           (* the blob-name cache would keep the dropped states alive *)
           t.names <- [];
           Gc.compact ();
           heap_mb () > cap
         end

(* health and shutdown must stay responsive under memory pressure —
   they allocate almost nothing and are how an operator finds out *)
let sheddable = function
  | P.Health | P.Shutdown -> false
  | P.Edit _ | P.Analyze _ | P.Lint _ | P.Profile -> true

let process t line =
  let t0 = Unix.gettimeofday () in
  if t.shutdown then
    let id = P.request_id line in
    [ emit t ~line ~ok:false (P.response_error ~id P.Shutting_down) ]
  else
    match P.parse_request line with
    | Error err ->
        let id = P.request_id line in
        [ emit t ~line ~ok:false (P.response_error ~id err) ]
    | Ok env when sheddable env.P.req && over_ceiling t ->
        t.mem_shed <- t.mem_shed + 1;
        [ P.response_line
            (P.response_error ~id:env.P.req_id
               (P.Overloaded { retry_after_ms = shed_retry_after_ms }));
        ]
    | Ok env -> (
        match
          protected (fun () ->
              dispatch t env ~deadline_ms:env.P.req_deadline_ms ~t0)
        with
        | Ok (result, _mutated) ->
            [ emit t ~line ~ok:true (P.response_ok ~id:env.P.req_id result) ]
        | Error err ->
            [ emit t ~line ~ok:false (P.response_error ~id:env.P.req_id err) ])

(** Match an incoming line against the journal: the stored response is
    re-emitted byte for byte, and mutating requests newer than the
    restored snapshot are re-executed (without their deadline — the
    original completed, the replay must too) to catch the resident state
    up.  A digest mismatch means the client's stream diverged from the
    journaled one: drop the replay and serve everything fresh. *)
let try_replay t line =
  match t.replay with
  | [] -> None
  | entry :: rest ->
      if String.equal entry.re_digest (digest_line line) then begin
        t.replay <- rest;
        if entry.re_ok && entry.re_gen > generation t then
          (match P.parse_request line with
          | Ok env ->
              ignore
                (protected (fun () ->
                     dispatch t env ~deadline_ms:None
                       ~t0:(Unix.gettimeofday ())))
          | Error _ -> ());
        (* a replayed shutdown still shuts the daemon down *)
        (match P.parse_request line with
        | Ok { P.req = P.Shutdown; _ } -> t.shutdown <- true
        | _ -> ());
        maybe_snapshot t;
        t.served <- t.served + 1;
        Some [ entry.re_response ]
      end
      else begin
        t.replay <- [];
        None
      end

let handle_line t line =
  if String.trim line = "" then []
  else
    match try_replay t line with
    | Some responses -> responses
    | None -> process t line

(* ------------------------------ lifecycle ----------------------------- *)

(* Leftovers of a crashed writer: [*.tmp.*] files, and blobs written
   before the manifest that would have referenced them.  Only one daemon
   owns a state directory, so nothing here can belong to a live writer. *)
let sweep t dir ~referenced =
  let entries d = try Sys.readdir d with Sys_error _ -> [||] in
  Array.iter
    (fun n ->
      if C.Io.is_temp_name n then ignore (C.Io.unlink (Filename.concat dir n)))
    (entries dir);
  Array.iter
    (fun n ->
      let path = Filename.concat (blob_dir dir) n in
      if C.Io.is_temp_name n then ignore (C.Io.unlink path)
      else if Filename.check_suffix n ".blob" then
        let name = Filename.chop_suffix n ".blob" in
        if List.mem name referenced then t.on_disk <- SS.add name t.on_disk
        else ignore (C.Io.unlink path))
    (entries (blob_dir dir))

(* Warm start from a manifest of this configuration, guarded by every
   referenced blob's container checks and the Verify certifier.  Any
   suspicion — a missing or damaged blob included — is a logged cold
   start: the journal then replays every request from scratch. *)
let restore t dir m =
  let ( let* ) = Result.bind in
  let loaded = Hashtbl.create 16 in
  let load name =
    match Hashtbl.find_opt loaded name with
    | Some bytes -> Ok bytes
    | None -> (
        match
          C.Snapshot.read ~path:(blob_path dir name) ~kind:blob_kind
            ~version:blob_version
        with
        | Ok bytes ->
            Hashtbl.replace loaded name bytes;
            Ok bytes
        | Error e ->
            (* damaged or missing: forget it, so a later commit of the
               same content writes it afresh *)
            ignore (C.Io.unlink (blob_path dir name));
            t.on_disk <- SS.remove name t.on_disk;
            Error ("serve state blob rejected (" ^ C.Snapshot.error_message e ^ ")"))
  in
  let restored =
    match m.mf_resident with
    | None -> Ok None
    | Some (name, generation) ->
        let* bytes = load name in
        let* st =
          Result.map_error
            (fun why -> "resident state " ^ why)
            (I.thaw_certified bytes)
        in
        let* memo =
          List.fold_right
            (fun (key, name) acc ->
              let* l = acc in
              let* bytes = load name in
              Ok ((key, bytes) :: l))
            m.mf_memo (Ok [])
        in
        Ok (Some ({ st with I.generation }, bytes, memo))
  in
  match restored with
  | Error msg -> t.cfg.sv_log (msg ^ "; cold start")
  | Ok None -> ()
  | Ok (Some (st, bytes, memo)) ->
      set_resident t st bytes;
      (* oldest first, so re-adding restores the LRU order *)
      List.iter (I.Memo.add t.memo) (List.rev memo);
      t.names <- Hashtbl.fold (fun name b acc -> (b, name) :: acc) loaded []

let create ?initial ~resume cfg =
  let t =
    {
      cfg;
      memo = I.Memo.create cfg.sv_memo_entries;
      st = None;
      st_frozen = "";
      names = [];
      on_disk = SS.empty;
      journal = None;
      replay = [];
      dirty = false;
      shutdown = false;
      finalized = false;
      served = 0;
      mem_shed = 0;
    }
  in
  (* A state dir is resumed whole — manifest, blobs and journal — or not
     at all: a start without [resume], or over a manifest written under
     another configuration or no readable manifest at all (then nothing
     says whose the journal is), empties it.  The journal goes first: a
     crash mid-way may leave a manifest without its journal, never a
     journal without the manifest that tells whose it is. *)
  let start_empty dir =
    List.iter
      (fun path -> if Sys.file_exists path then ignore (C.Io.unlink path))
      [ journal_path dir; snap_path dir ];
    sweep t dir ~referenced:[]
  in
  Option.iter
    (fun dir ->
      ignore (C.Io.mkdir_p (blob_dir dir));
      let ours = config_fingerprint cfg in
      if not resume then start_empty dir
      else
        match read_manifest dir with
        | Ok (Some m) when String.equal m.mf_config_fp ours ->
            sweep t dir ~referenced:(manifest_blobs m);
            restore t dir m;
            t.replay <- read_journal (journal_path dir)
        | Ok (Some m) ->
            cfg.sv_log
              (Printf.sprintf
                 "serve state was written under another configuration (%s; \
                  this run: %s); starting fresh"
                 m.mf_config_fp ours);
            start_empty dir
        | manifest ->
            let why =
              match manifest with
              | Error why -> why
              | Ok _ -> "serve state has no readable manifest"
            in
            if Sys.file_exists (snap_path dir) || Sys.file_exists (journal_path dir)
            then
              cfg.sv_log (why ^ "; state dir emptied, journal not replayed: cold start");
            start_empty dir)
    cfg.sv_state_dir;
  let initial_result =
    if t.st <> None then Ok () (* the snapshot wins over [initial] *)
    else
      match initial with
      | None -> Ok ()
      | Some src -> (
          let source_text =
            match src with
            | `Text s -> Ok s
            | `File p -> (
                match C.Io.read_file p with
                | Ok s -> Ok s
                | Error e ->
                    Error
                      (Printf.sprintf "cannot read %s: %s" p
                         (C.Io.error_message e)))
          in
          match source_text with
          | Error _ as e -> e
          | Ok source -> (
              match
                I.solve_full ~reason:"initial program" ~config:cfg.sv_config
                  ~deadline_ms:None ~generation:0 ~source ~roots:cfg.sv_roots ()
              with
              | Error err -> Error (P.error_message err)
              | Ok o ->
                  ignore (commit t o);
                  Ok ()))
  in
  match initial_result with
  | Error _ as e -> e
  | Ok () ->
      Option.iter
        (fun dir ->
          match C.Io.open_append (journal_path dir) with
          | Ok ap -> t.journal <- Some ap
          | Error e ->
              cfg.sv_log
                ("serve journal open failed (journaling disabled): "
                ^ C.Io.error_message e))
        cfg.sv_state_dir;
      maybe_snapshot t;
      Ok t

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    write_snapshot t;
    match t.journal with
    | Some ap ->
        C.Io.close_append ap;
        t.journal <- None
    | None -> ()
  end
