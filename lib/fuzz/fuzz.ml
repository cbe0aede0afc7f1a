(** Randomized robustness harness for the whole analysis pipeline.

    For every seed, generate a well-typed random program
    ({!Skipflow_workloads.Gen_random}), execute it in the concrete
    interpreter, and then analyze it under every configuration
    (skipflow / pta / preds-only / prims-only) crossed with
    {FIFO, random worklist order} × {unlimited, deliberately tiny budget}.
    Every run must satisfy, with no exception escaping:

    - the final state passes the independent certifier ({!C.Verify.run}),
      degraded or not;
    - every method the interpreter actually executed is in the reachable
      set (the differential soundness oracle);
    - with the same config, a random worklist order reaches exactly the
      FIFO fixed point, and a budget-degraded run reaches a {e superset}
      of it (degradation may only lose precision, never soundness).

    Used by [skipflow fuzz] and by the [t_fuzz] suite; a {!failure} record
    carries the seed so any finding replays deterministically. *)

open Skipflow_ir
module C = Skipflow_core
module W = Skipflow_workloads
module I = Skipflow_interp.Interp
module K = Skipflow_checks

type failure = {
  f_seed : int;
  f_config : string;  (** configuration name, or ["-"] for pre-analysis stages *)
  f_case : string;  (** which run of the matrix, e.g. ["random+budget"] *)
  f_detail : string;
}

type report = {
  r_seeds : int;
  r_runs : int;  (** engine runs performed *)
  r_degraded : int;  (** runs that tripped their budget and degraded *)
  r_lint_checked : int;
      (** lint facts (dead blocks / dead methods) checked against
          interpreter traces by the lint soundness oracle *)
  r_prim_checked : int;
      (** concrete primitive values from interpreter traces checked for
          containment in the defining flow's final value state (the
          interval/constant soundness oracle) *)
  r_crash_checked : int;
      (** crash-injection probes: corrupted snapshot / cache files that
          had to come back as reported errors with a sound fallback *)
  r_serve_checked : int;
      (** daemon probes: abandoned (kill -9-equivalent) serve sessions
          resumed and replayed byte-identically, truncated / garbage
          request lines answered with structured errors, corrupt serve
          snapshots recovered by cold start, and every final resident
          fixed point certified flow-by-flow against a fresh solve *)
  r_chaos_checked : int;
      (** crash-point-matrix probes: one per fault plan exercised —
          forked children killed before each IO operation of each
          durable-write site (engine snapshot, cache store, serve
          journal + snapshot), plus seeded EIO / ENOSPC / EINTR /
          short-write / torn-rename plans run in process — every one of
          which had to recover to old bytes, new bytes, or a detected
          miss, never a torn read, never an escaping exception *)
  r_failures : failure list;
}

let pp_failure ppf f =
  Format.fprintf ppf "seed %d / %s / %s: %s" f.f_seed f.f_config f.f_case f.f_detail

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fuzz: %d seeds, %d runs (%d degraded), %d lint facts, %d prim \
     values, %d crash probes, %d daemon probes, %d chaos plans, %d failure%s"
    r.r_seeds r.r_runs r.r_degraded r.r_lint_checked r.r_prim_checked
    r.r_crash_checked r.r_serve_checked r.r_chaos_checked
    (List.length r.r_failures)
    (if List.length r.r_failures = 1 then "" else "s");
  List.iter (fun f -> Format.fprintf ppf "@,  %a" pp_failure f) r.r_failures;
  Format.fprintf ppf "@]"

(** Same seed-to-shape mapping as the property-test suite, so a failing
    seed reported by either harness replays in the other. *)
let cfg_of_seed seed =
  {
    W.Gen_random.seed;
    classes = 3 + (seed mod 7);
    meths_per_class = 1 + (seed mod 3);
    max_stmts = 4 + (seed mod 5);
  }

let configs =
  [
    ("skipflow", C.Config.skipflow);
    ("skipflow-product", { C.Config.skipflow with C.Config.pval = C.Pval.Product });
    ("pta", C.Config.pta);
    ("preds-only", C.Config.predicates_only);
    ("prims-only", C.Config.primitives_only);
  ]

let reachable_set (r : C.Analysis.result) =
  List.fold_left
    (fun acc (m : Program.meth) -> Ids.Meth.Set.add m.Program.m_id acc)
    Ids.Meth.Set.empty
    (C.Engine.reachable_methods r.C.Analysis.engine)

(** How a run's reachable set must relate to the reference (the FIFO,
    unlimited-budget fixed point of the same configuration). *)
type expect = Exact | Superset

let fuzz_seed seed =
  let failures = ref [] in
  let runs = ref 0 and degraded = ref 0 and lint_checked = ref 0 in
  let prim_checked = ref 0 in
  let fail ~config ~case fmt =
    Format.kasprintf
      (fun f_detail ->
        failures := { f_seed = seed; f_config = config; f_case = case; f_detail } :: !failures)
      fmt
  in
  (match W.Gen_random.compile (cfg_of_seed seed) with
  | exception e ->
      fail ~config:"-" ~case:"generate" "exception escaped the generator/frontend: %s"
        (Printexc.to_string e)
  | prog, main ->
      let trace =
        match I.run ~fuel:20_000 prog main with
        | trace, I.Interp_error msg ->
            fail ~config:"-" ~case:"interp" "internal interpreter error: %s" msg;
            trace
        | trace, _ -> trace
        | exception e ->
            fail ~config:"-" ~case:"interp" "exception escaped the interpreter: %s"
              (Printexc.to_string e);
            {
              I.called = Ids.Meth.Set.empty;
              created = Ids.Class.Set.empty;
              defs = [];
              visited = Ids.Meth.Map.empty;
              steps = 0;
            }
      in
      List.iter
        (fun (cname, base_cfg) ->
          let tiny = { base_cfg with C.Config.budget = C.Budget.tiny } in
          let cases =
            [
              ("fifo", base_cfg, None, Exact);
              ("random", base_cfg, Some ((seed * 31) + 1), Exact);
              ("fifo+budget", tiny, None, Superset);
              ("random+budget", tiny, Some ((seed * 31) + 1), Superset);
            ]
          in
          let reference = ref None in
          List.iter
            (fun (case, config, random_order, expect) ->
              incr runs;
              match C.Analysis.run ~config ?random_order prog ~roots:[ main ] with
              | exception e ->
                  fail ~config:cname ~case "exception escaped the engine: %s"
                    (Printexc.to_string e)
              | r ->
                  if C.Engine.is_degraded r.C.Analysis.engine then incr degraded;
                  (match C.Verify.run r.C.Analysis.engine with
                  | [] -> ()
                  | v :: _ as vs ->
                      fail ~config:cname ~case "%d certifier violation%s (first: %s)"
                        (List.length vs)
                        (if List.length vs = 1 then "" else "s")
                        v);
                  let reach = reachable_set r in
                  Ids.Meth.Set.iter
                    (fun m ->
                      if not (Ids.Meth.Set.mem m reach) then
                        fail ~config:cname ~case "executed method %s is not reachable"
                          (Program.qualified_name prog m))
                    trace.I.called;
                  (match (!reference, expect) with
                  | None, _ -> reference := Some reach
                  | Some r0, Exact ->
                      if not (Ids.Meth.Set.equal reach r0) then
                        fail ~config:cname ~case
                          "fixed point depends on worklist order (%d vs %d reachable)"
                          (Ids.Meth.Set.cardinal reach)
                          (Ids.Meth.Set.cardinal r0)
                  | Some r0, Superset ->
                      if not (Ids.Meth.Set.subset r0 reach) then
                        fail ~config:cname ~case
                          "degraded reachable set is not a superset (%d vs %d reachable)"
                          (Ids.Meth.Set.cardinal reach)
                          (Ids.Meth.Set.cardinal r0));
                  (* primitive-value soundness oracle: every concrete int
                     the interpreter observed must be contained in the
                     defining flow's final value state — this is what
                     keeps the interval × constant reduced product
                     honest, and degradation may only widen states, so
                     every case of the matrix is fair game *)
                  List.iter
                    (fun (m, var, v) ->
                      match v with
                      | I.VInt n -> (
                          incr prim_checked;
                          match C.Engine.graph_of r.C.Analysis.engine m with
                          | None ->
                              fail ~config:cname ~case
                                "prim: %s defined a value but is unreachable"
                                (Program.qualified_name prog m)
                          | Some g ->
                              let flow = g.C.Graph.g_defs.(Ids.Var.to_int var) in
                              if
                                (not (C.Flow.is_none flow))
                                && not
                                     (flow.C.Flow.enabled
                                     && C.Vstate.leq (C.Vstate.const n)
                                          flow.C.Flow.state)
                              then
                                fail ~config:cname ~case
                                  "prim: observed value %d escapes its \
                                   flow's state in %s"
                                  n
                                  (Program.qualified_name prog m))
                      | _ -> ())
                    trace.I.defs;
                  (* lint soundness oracle: anything the checks prove dead
                     at this fixed point must be absent from the concrete
                     trace (degradation only shrinks the dead sets, so
                     every case of the matrix is fair game) *)
                  let ctx =
                    K.Checks.make_ctx ~engine:r.C.Analysis.engine
                      ~roots:[ main ]
                  in
                  List.iter
                    (fun (m, b) ->
                      incr lint_checked;
                      if I.visited_block trace m b then
                        fail ~config:cname ~case
                          "lint: dead block b%d of %s was executed"
                          (Ids.Block.to_int b)
                          (Program.qualified_name prog m))
                    (K.Checks.dead_blocks ctx);
                  List.iter
                    (fun m ->
                      incr lint_checked;
                      if Ids.Meth.Set.mem m trace.I.called then
                        fail ~config:cname ~case
                          "lint: dead method %s was executed"
                          (Program.qualified_name prog m))
                    (K.Checks.dead_methods ctx))
            cases)
        configs);
  (List.rev !failures, !runs, !degraded, !lint_checked, !prim_checked)

(* --------------------------- crash injection -------------------------- *)

(* Corrupt persisted state — a paused-solver snapshot and a result-cache
   entry — in every seed-varied way, and demand the robustness contract:
   a damaged file is a typed, reported error (never an escaping
   exception), the fallback full solve reaches the straight run's fixed
   point, and a damaged cache entry is quarantined and recomputed. *)

(* corpus IO rides the durable-IO layer like every other persistence
   path; errors surface as [Sys_error] to keep the probes' exception
   accounting unchanged *)
let read_bytes path =
  match C.Io.read_file path with
  | Ok s -> s
  | Error e -> raise (Sys_error (C.Io.error_message e))

let write_bytes path s =
  match C.Io.write_file_atomic ~path s with
  | Ok () -> ()
  | Error e -> raise (Sys_error (C.Io.error_message e))

(** The mutation schedule for a file of [len] bytes: truncations at the
    start, a third, and two thirds, plus seed-derived single-bit flips in
    the header, the middle, and the tail. *)
let mutations ~seed ~len intact =
  let truncate keep =
    (Printf.sprintf "truncate@%d" keep, String.sub intact 0 keep)
  in
  let flip pos =
    let pos = max 0 (min (len - 1) pos) in
    let b = Bytes.of_string intact in
    let bit = 1 lsl (seed mod 8) in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor bit));
    (Printf.sprintf "bitflip@%d" pos, Bytes.to_string b)
  in
  [
    truncate 0;
    truncate (min 5 len);
    truncate (len / 3);
    truncate (2 * len / 3);
    flip (seed mod 8);
    flip ((len / 2) + (seed mod 7));
    flip (len - 1 - (seed mod 3));
  ]

let crash_seed seed =
  let failures = ref [] in
  let checked = ref 0 in
  let fail ~case fmt =
    Format.kasprintf
      (fun f_detail ->
        failures :=
          { f_seed = seed; f_config = "skipflow"; f_case = case; f_detail }
          :: !failures)
      fmt
  in
  (match W.Gen_random.compile (cfg_of_seed seed) with
  | exception e ->
      fail ~case:"crash:generate" "exception escaped the generator: %s"
        (Printexc.to_string e)
  | prog, main -> (
      let straight = C.Analysis.run prog ~roots:[ main ] in
      let oracle =
        C.Engine.reachable_count straight.C.Analysis.engine
      in
      (* --- snapshot corruption --- *)
      let small =
        {
          C.Config.skipflow with
          C.Config.budget = C.Budget.make ~max_tasks:25 ();
        }
      in
      let paused =
        C.Analysis.run ~config:small ~on_budget:`Pause prog ~roots:[ main ]
      in
      (match paused.C.Analysis.outcome with
      | C.Engine.Completed -> () (* too small to pause; nothing to corrupt *)
      | C.Engine.Paused _ ->
          let path = Filename.temp_file "skipflow-crash" ".snap" in
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              (match
                 C.Engine.save_snapshot paused.C.Analysis.engine ~path
               with
              | Ok () -> ()
              | Error e ->
                  fail ~case:"crash:save" "snapshot write failed: %s"
                    (C.Snapshot.error_message e));
              let intact = read_bytes path in
              (* the intact snapshot must load and resume to the oracle *)
              incr checked;
              (match
                 C.Engine.load_snapshot ~budget:C.Budget.unlimited path
               with
              | Ok engine ->
                  ignore (C.Engine.run engine);
                  if C.Engine.reachable_count engine <> oracle then
                    fail ~case:"crash:resume"
                      "resumed run reached %d methods, straight run %d"
                      (C.Engine.reachable_count engine)
                      oracle
              | Error e ->
                  fail ~case:"crash:resume" "intact snapshot refused: %s"
                    (C.Snapshot.error_message e)
              | exception e ->
                  fail ~case:"crash:resume" "exception on intact load: %s"
                    (Printexc.to_string e));
              (* every mutation must be a typed error + sound fallback *)
              List.iter
                (fun (mname, damaged) ->
                  incr checked;
                  write_bytes path damaged;
                  match C.Engine.load_snapshot path with
                  | Ok _ ->
                      (* a flipped bit the CRC caught anyway is the only
                         acceptable Ok: it must decode to a resumable
                         engine — but CRC-32 catches all single-bit
                         flips, so reaching here is a contract breach *)
                      fail ~case:("crash:" ^ mname)
                        "damaged snapshot loaded as if intact"
                  | Error _ -> (
                      (* reported, not raised: now the caller's fallback
                         — a full solve — must still reach the oracle *)
                      let fallback = C.Analysis.run prog ~roots:[ main ] in
                      if
                        C.Engine.reachable_count fallback.C.Analysis.engine
                        <> oracle
                      then
                        fail ~case:("crash:" ^ mname)
                          "fallback solve diverged from the oracle"
                      else
                        match fallback.C.Analysis.outcome with
                        | C.Engine.Completed -> ()
                        | C.Engine.Paused _ ->
                            fail ~case:("crash:" ^ mname)
                              "unlimited fallback paused")
                  | exception e ->
                      fail ~case:("crash:" ^ mname)
                        "exception escaped the snapshot loader: %s"
                        (Printexc.to_string e))
                (mutations ~seed ~len:(String.length intact) intact);
              (* a stale schema version must be rejected as such *)
              incr checked;
              (match
                 C.Snapshot.write ~path ~kind:C.Engine.snapshot_kind
                   ~version:(C.Engine.snapshot_version + 1)
                   (C.Engine.snapshot_bytes paused.C.Analysis.engine)
               with
              | Ok () -> (
                  match C.Engine.load_snapshot path with
                  | Error (C.Snapshot.Bad_version _) -> ()
                  | Error e ->
                      fail ~case:"crash:stale-version"
                        "expected Bad_version, got %s"
                        (C.Snapshot.error_message e)
                  | Ok _ ->
                      fail ~case:"crash:stale-version"
                        "future-versioned snapshot loaded"
                  | exception e ->
                      fail ~case:"crash:stale-version" "exception: %s"
                        (Printexc.to_string e))
              | Error e ->
                  fail ~case:"crash:stale-version" "re-write failed: %s"
                    (C.Snapshot.error_message e))));
      (* --- cache-entry corruption --- *)
      let dir = Filename.temp_file "skipflow-crash" ".cache" in
      Sys.remove dir;
      let trace = C.Trace.create () in
      let cache = C.Cache.create ~trace dir in
      let k = C.Cache.key ~config:C.Config.skipflow ~scope:"" ~source:(string_of_int seed) in
      match C.Cache.store cache k "cached-summary" with
      | Error e ->
          fail ~case:"crash:cache-store" "store failed: %s"
            (C.Snapshot.error_message e)
      | Ok () ->
          let entry = C.Cache.entry_path cache k in
          let intact = read_bytes entry in
          List.iter
            (fun (mname, damaged) ->
              incr checked;
              (* restore a fresh entry, then damage it *)
              (match C.Cache.store cache k "cached-summary" with
              | Ok () -> ()
              | Error _ -> ());
              write_bytes entry damaged;
              match C.Cache.find cache k with
              | Some _ ->
                  fail ~case:("crash:cache-" ^ mname)
                    "damaged cache entry served"
              | None -> ()
              | exception e ->
                  fail ~case:("crash:cache-" ^ mname)
                    "exception escaped the cache: %s" (Printexc.to_string e))
            (mutations ~seed ~len:(String.length intact) intact);
          (* damaged entries were quarantined, and the slot recomputes *)
          incr checked;
          (match Sys.readdir (C.Cache.quarantine_dir cache) with
          | [||] ->
              fail ~case:"crash:cache-quarantine"
                "no damaged entry was quarantined"
          | _ -> ()
          | exception Sys_error m ->
              fail ~case:"crash:cache-quarantine" "quarantine unreadable: %s" m);
          (match C.Cache.store cache k "recomputed" with
          | Ok () ->
              if C.Cache.find cache k <> Some "recomputed" then
                fail ~case:"crash:cache-recompute"
                  "recomputed entry does not serve"
          | Error e ->
              fail ~case:"crash:cache-recompute" "re-store failed: %s"
                (C.Snapshot.error_message e));
          (* best-effort cleanup of the temp cache tree *)
          let rec rm p =
            if Sys.file_exists p then
              if Sys.is_directory p then begin
                Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
                try Unix.rmdir p with Unix.Unix_error _ -> ()
              end
              else try Sys.remove p with Sys_error _ -> ()
          in
          rm dir));
  (List.rev !failures, !checked)

(* ---------------------------- daemon mode ----------------------------- *)

(* Fuzz the serve daemon the way production kills it: abandon sessions
   without shutdown (the in-process equivalent of kill -9 — snapshots and
   journal are on disk, the process state is gone), resume them, and
   demand byte-identical responses for the replayed prefix plus a final
   resident fixed point flow-identical to a fresh solve; feed truncated
   and garbage request lines and demand structured errors with the daemon
   still serving; corrupt the serve manifest, and the state blob it
   references, in seed-varied ways and demand a logged cold start, never
   an escape. *)

module Sv = Skipflow_serve.Server
module Incr = Skipflow_serve.Incremental

let rec rm_tree p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun n -> rm_tree (Filename.concat p n)) (Sys.readdir p);
      try Unix.rmdir p with Unix.Unix_error _ -> ()
    end
    else try Sys.remove p with Sys_error _ -> ()

let temp_state_dir () =
  let p = Filename.temp_file "skipflow-fuzz-serve" ".state" in
  Sys.remove p;
  p

let req fields = K.Json.to_compact_string (K.Json.Obj fields)

let edit_req id source =
  req
    [ ("op", K.Json.Str "edit"); ("id", K.Json.Int id);
      ("source", K.Json.Str source);
    ]

let serve_cfg dir =
  { Sv.default_cfg with Sv.sv_state_dir = dir; sv_log = (fun _ -> ()) }

let serve_seed seed =
  let failures = ref [] in
  let checked = ref 0 in
  let fail ~case fmt =
    Format.kasprintf
      (fun f_detail ->
        failures :=
          { f_seed = seed; f_config = "skipflow"; f_case = case; f_detail }
          :: !failures)
      fmt
  in
  let probe () = incr checked in
  (* the edit corpus: two random programs plus a revert, so the session
     exercises full solves, the memo, and the resident fast path *)
  let src_of cfg = Skipflow_frontend.Ast_pp.to_string (W.Gen_random.generate cfg) in
  match
    ( src_of (cfg_of_seed seed),
      src_of { (cfg_of_seed (seed + 1)) with W.Gen_random.seed = seed + 1001 } )
  with
  | exception e ->
      fail ~case:"serve:generate" "exception escaped the generator: %s"
        (Printexc.to_string e);
      (List.rev !failures, !checked)
  | base, alt ->
      let lines =
        [ edit_req 1 base;
          req [ ("op", K.Json.Str "health"); ("id", K.Json.Int 2) ];
          edit_req 3 alt;
          req [ ("op", K.Json.Str "analyze"); ("id", K.Json.Int 4) ];
          edit_req 5 base;
          req [ ("op", K.Json.Str "analyze"); ("id", K.Json.Int 6) ];
        ]
      in
      let run_session ~resume dir ls =
        match Sv.create ~resume (serve_cfg dir) with
        | Error msg -> Error msg
        | Ok srv -> Ok (srv, List.concat_map (Sv.handle_line srv) ls)
      in
      let take n l = List.filteri (fun i _ -> i < n) l in
      (* the straight session: no interruption, no state dir *)
      (match run_session ~resume:false None lines with
      | exception e ->
          fail ~case:"serve:straight" "exception escaped the daemon: %s"
            (Printexc.to_string e)
      | Error msg -> fail ~case:"serve:straight" "create failed: %s" msg
      | Ok (straight_srv, straight_out) -> (
          probe ();
          (* kill after a seed-varied prefix, resume, re-feed everything *)
          let dir = temp_state_dir () in
          let k = 1 + (seed mod List.length lines) in
          (match run_session ~resume:false (Some dir) (take k lines) with
          | exception e ->
              fail ~case:"serve:prefix" "exception escaped the daemon: %s"
                (Printexc.to_string e)
          | Error msg -> fail ~case:"serve:prefix" "create failed: %s" msg
          | Ok (_abandoned, _) -> (
              (* no finalize, no shutdown: the session is simply gone *)
              match run_session ~resume:true (Some dir) lines with
              | exception e ->
                  fail ~case:"serve:resume" "exception escaped the resumed daemon: %s"
                    (Printexc.to_string e)
              | Error msg -> fail ~case:"serve:resume" "create failed: %s" msg
              | Ok (resumed_srv, resumed_out) ->
                  probe ();
                  if resumed_out <> straight_out then
                    fail ~case:"serve:resume"
                      "killed-after-%d/resumed responses differ from the \
                       straight session's"
                      k
                  else probe ();
                  (match (Sv.state resumed_srv, Sv.state straight_srv) with
                  | Some a, Some b -> (
                      match
                        Incr.same_fixed_point a.Incr.engine b.Incr.engine
                      with
                      | Ok () -> probe ()
                      | Error msg ->
                          fail ~case:"serve:resume"
                            "resumed resident fixed point diverged: %s" msg)
                  | _ ->
                      fail ~case:"serve:resume"
                        "a session ended without a resident state")));
          (* torn and garbage request lines: structured errors, daemon
             lives on and still answers *)
          (match Sv.create ~resume:false (serve_cfg None) with
          | Error msg -> fail ~case:"serve:garbage" "create failed: %s" msg
          | Ok srv ->
              let torn =
                String.sub (edit_req 1 base)
                  0
                  (1 + (seed mod String.length (edit_req 1 base)))
              in
              List.iter
                (fun line ->
                  match Sv.handle_line srv line with
                  | exception e ->
                      fail ~case:"serve:garbage"
                        "exception escaped on %S: %s" line
                        (Printexc.to_string e)
                  | [ resp ] -> (
                      match K.Json.of_string resp with
                      | exception K.Json.Parse_error m ->
                          fail ~case:"serve:garbage"
                            "unparseable response to %S: %s" line m
                      | j -> (
                          match K.Json.member "ok" j with
                          | Some (K.Json.Bool false) -> probe ()
                          | _ ->
                              fail ~case:"serve:garbage"
                                "garbage line %S was not answered with a \
                                 structured error"
                                line))
                  | _ -> fail ~case:"serve:garbage" "no response to %S" line)
                [ torn; "{\"op\":"; "not json at all"; "{\"op\":\"frobnicate\"}" ];
              (* and a valid request afterwards must still be served *)
              (match Sv.handle_line srv (edit_req 9 base) with
              | exception e ->
                  fail ~case:"serve:garbage"
                    "daemon died after garbage input: %s" (Printexc.to_string e)
              | [] -> fail ~case:"serve:garbage" "no response after garbage"
              | _ -> probe ()));
          (* corrupt serve state — the manifest, then the blob it
             references: every mutation must come back as a cold start
             (or an intact-prefix recovery), never an escape, and the
             daemon must re-solve to the straight fixed point *)
          let dir2 = temp_state_dir () in
          (match run_session ~resume:false (Some dir2) [ edit_req 1 base ] with
          | Error msg -> fail ~case:"serve:corrupt" "create failed: %s" msg
          | Ok (srv, _) -> (
              Sv.finalize srv;
              let blobs = Filename.concat dir2 "blobs" in
              (* one edit leaves one state: the resident, also memoized *)
              let sites =
                ("snap", Filename.concat dir2 "serve.snap")
                :: (try
                      List.map
                        (fun n -> ("blob", Filename.concat blobs n))
                        (Array.to_list (Sys.readdir blobs))
                    with Sys_error _ -> [])
              in
              match List.map (fun (_, p) -> (p, read_bytes p)) sites with
              | exception Sys_error m ->
                  fail ~case:"serve:corrupt" "state unreadable: %s" m
              | intact when List.length intact <> 2 ->
                  fail ~case:"serve:corrupt"
                    "expected a manifest and one blob, found %d files"
                    (List.length intact)
              | intact ->
                  (* every probe starts from the intact state, without the
                     journal: this probe is about snapshot damage, not
                     replay (and a recovery rewrites the state) *)
                  let reset () =
                    rm_tree blobs;
                    (try Sys.remove (Filename.concat dir2 "journal.jsonl")
                     with Sys_error _ -> ());
                    Unix.mkdir blobs 0o755;
                    List.iter (fun (p, b) -> write_bytes p b) intact
                  in
                  List.iter
                    (fun (site, path) ->
                      let bytes = List.assoc path intact in
                      List.iter
                        (fun (mname, damaged) ->
                          let case = Printf.sprintf "serve:%s-%s" site mname in
                          reset ();
                          write_bytes path damaged;
                          match Sv.create ~resume:true (serve_cfg (Some dir2)) with
                          | exception e ->
                              fail ~case "exception escaped the resume: %s"
                                (Printexc.to_string e)
                          | Error msg ->
                              fail ~case
                                "damaged snapshot refused instead of cold \
                                 start: %s"
                                msg
                          | Ok srv -> (
                              match Sv.handle_line srv (edit_req 1 base) with
                              | exception e ->
                                  fail ~case
                                    "exception escaped the recovered daemon: %s"
                                    (Printexc.to_string e)
                              | _ -> (
                                  match (Sv.state srv, Sv.state straight_srv) with
                                  | Some a, Some b -> (
                                      (* straight_srv's last edit was [base]
                                         too, so the fixed points must agree *)
                                      match
                                        Incr.same_fixed_point a.Incr.engine
                                          b.Incr.engine
                                      with
                                      | Ok () -> probe ()
                                      | Error msg ->
                                          fail ~case
                                            "recovered fixed point diverged: %s"
                                            msg)
                                  | _ ->
                                      fail ~case
                                        "recovered daemon has no resident state")))
                        (mutations ~seed ~len:(String.length bytes) bytes))
                    sites));
          rm_tree dir;
          rm_tree dir2));
      (List.rev !failures, !checked)

(* ------------------------- crash-point matrix -------------------------- *)

(* The syscall-level counterpart of the corruption probes above: instead
   of damaging bytes after the fact, enumerate every IO operation a
   durable-write site performs (via a counting {!C.Io.plan}), then for
   each operation index [k] fork a child, let the fault plan [_exit] it
   at point [k] — the faithful kill -9, no cleanup, no at_exit — and
   demand recovery in the parent:

   - the engine-snapshot site: the file holds the old bytes or the new
     bytes, never a mixture, and always loads and resumes to the
     straight run's fixed point;
   - the cache site: a lookup serves the old value, the new value, or a
     miss — never a torn entry, never an exception;
   - the serve site (journal + serve snapshot): a resumed daemon always
     comes up (replay or cold start), serves the full request stream,
     and lands on the same resident fixed point as an uninterrupted
     session.

   On top of the crash matrix, seeded fault plans (EIO / ENOSPC / EINTR
   / short writes / torn renames at rate 1-in-2) run each site in
   process and demand structured errors or clean absorption — never an
   escaping exception, never an undetected torn file.  The whole matrix
   runs at [D_fsync] so the fsync operations are enumerated too. *)

let chaos_fault_plans = 3

let chaos_seed seed =
  let failures = ref [] in
  let checked = ref 0 in
  let fail ~case fmt =
    Format.kasprintf
      (fun f_detail ->
        failures :=
          { f_seed = seed; f_config = "skipflow"; f_case = case; f_detail }
          :: !failures)
      fmt
  in
  (* one in-process run of [work] under a seeded fault plan: the only
     acceptable outcomes are a normal return (faults absorbed or
     reported) — anything escaping is a contract breach *)
  let fault_probe ~case ~plan_seed work =
    let plan = C.Io.plan ~rate:2 ~seed:plan_seed () in
    match C.Io.with_plan plan work with
    | _ -> ()
    | exception e ->
        fail ~case "exception escaped under injected faults: %s"
          (Printexc.to_string e)
  in
  let with_temp_dir f =
    let dir = Filename.temp_file "skipflow-chaos" ".d" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    Fun.protect ~finally:(fun () -> rm_tree dir) (fun () -> f dir)
  in
  (* count the IO operations one run of [work] performs, plan-governed *)
  let count_ops work =
    C.Io.with_plan
      (C.Io.plan ~seed ())
      (fun () ->
        work ();
        C.Io.ops_performed ())
  in
  let prev_durability = C.Io.durability () in
  C.Io.set_durability C.Io.D_fsync;
  Fun.protect ~finally:(fun () -> C.Io.set_durability prev_durability)
  @@ fun () ->
  (match W.Gen_random.compile (cfg_of_seed seed) with
  | exception e ->
      fail ~case:"chaos:generate" "exception escaped the generator: %s"
        (Printexc.to_string e)
  | prog, main ->
      let straight = C.Analysis.run prog ~roots:[ main ] in
      let oracle = C.Engine.reachable_count straight.C.Analysis.engine in
      (* --- site 1: the engine snapshot ------------------------------- *)
      with_temp_dir (fun dir ->
          let path = Filename.concat dir "engine.snap" in
          let small =
            {
              C.Config.skipflow with
              C.Config.budget = C.Budget.make ~max_tasks:25 ();
            }
          in
          let paused =
            C.Analysis.run ~config:small ~on_budget:`Pause prog ~roots:[ main ]
          in
          match paused.C.Analysis.outcome with
          | C.Engine.Completed -> () (* too small to pause; nothing to kill *)
          | C.Engine.Paused _ -> (
              let engine = paused.C.Analysis.engine in
              let save () = ignore (C.Engine.save_snapshot engine ~path) in
              (* the pre-state: a complete snapshot already on disk *)
              save ();
              match read_bytes path with
              | exception Sys_error m ->
                  fail ~case:"chaos:snap" "cannot establish pre-state: %s" m
              | old_bytes ->
                  let total = count_ops save in
                  if total = 0 then
                    fail ~case:"chaos:snap"
                      "snapshot write ticked no IO operations";
                  (* recovering (load + resume) mints flow ids through
                     the global counter, which the next snapshot
                     captures — so the expected "new" bytes must be
                     recomputed right before each run, while parent and
                     child still share the exact same state *)
                  let expected_new () =
                    save ();
                    let b = read_bytes path in
                    write_bytes path old_bytes;
                    b
                  in
                  let check_recovered ~case ~new_bytes k =
                    match read_bytes path with
                    | exception Sys_error m ->
                        fail ~case "snapshot missing after op %d: %s" k m
                    | b -> (
                        match
                          C.Engine.load_snapshot ~budget:C.Budget.unlimited
                            path
                        with
                        | Ok eng ->
                            if
                              not
                                (String.equal b old_bytes
                                || String.equal b new_bytes)
                            then
                              fail ~case "op %d left a mixed snapshot" k
                            else begin
                              ignore (C.Engine.run eng);
                              if C.Engine.reachable_count eng <> oracle then
                                fail ~case
                                  "op %d: recovered resume reached %d \
                                   methods, straight run %d"
                                  k
                                  (C.Engine.reachable_count eng)
                                  oracle
                            end
                        | Error _ ->
                            (* detected damage (e.g. a torn rename's CRC
                               trip) is a clean recovery: the caller
                               falls back to a full solve, which
                               [crash_seed] already certifies *)
                            ()
                        | exception e ->
                            fail ~case
                              "op %d: exception escaped the loader: %s" k
                              (Printexc.to_string e))
                  in
                  for k = 0 to total - 1 do
                    incr checked;
                    let new_bytes = expected_new () in
                    C.Io.fork_crashing
                      ~plan:(C.Io.plan ~crash_at:k ~seed ())
                      save;
                    check_recovered ~case:"chaos:snap-crash" ~new_bytes k
                  done;
                  for i = 0 to chaos_fault_plans - 1 do
                    incr checked;
                    let new_bytes = expected_new () in
                    fault_probe ~case:"chaos:snap-fault"
                      ~plan_seed:((seed * 97) + i)
                      save;
                    check_recovered ~case:"chaos:snap-fault" ~new_bytes i
                  done));
      (* --- site 2: a cache store ------------------------------------- *)
      with_temp_dir (fun dir ->
          let trace = C.Trace.create () in
          let cache = C.Cache.create ~trace dir in
          let key =
            C.Cache.key ~config:C.Config.skipflow ~scope:""
              ~source:(string_of_int seed)
          in
          let reset () = ignore (C.Cache.store cache key "v-old") in
          let store_new () = ignore (C.Cache.store cache key "v-new") in
          reset ();
          let total = count_ops store_new in
          if total = 0 then
            fail ~case:"chaos:cache" "cache store ticked no IO operations";
          let check_recovered ~case k =
            (* a fresh open sweeps crashed writers' droppings, exactly
               what the next process would do *)
            let reopened = C.Cache.create ~trace dir in
            match C.Cache.find reopened key with
            | Some ("v-old" | "v-new") | None -> ()
            | Some other ->
                fail ~case "op %d served a torn entry %S" k other
            | exception e ->
                fail ~case "op %d: exception escaped the lookup: %s" k
                  (Printexc.to_string e)
          in
          for k = 0 to total - 1 do
            incr checked;
            reset ();
            C.Io.fork_crashing ~plan:(C.Io.plan ~crash_at:k ~seed ()) store_new;
            check_recovered ~case:"chaos:cache-crash" k
          done;
          for i = 0 to chaos_fault_plans - 1 do
            incr checked;
            reset ();
            fault_probe ~case:"chaos:cache-fault"
              ~plan_seed:((seed * 89) + i)
              store_new;
            check_recovered ~case:"chaos:cache-fault" i
          done);
      (* --- site 3: a serve session (journal + serve snapshot) --------- *)
      with_temp_dir (fun dir ->
          let src_of cfg =
            Skipflow_frontend.Ast_pp.to_string (W.Gen_random.generate cfg)
          in
          match
            ( src_of (cfg_of_seed seed),
              src_of
                { (cfg_of_seed (seed + 1)) with W.Gen_random.seed = seed + 1001 }
            )
          with
          | exception e ->
              fail ~case:"chaos:serve" "exception escaped the generator: %s"
                (Printexc.to_string e)
          | base, alt -> (
              let lines =
                [ edit_req 1 base;
                  req [ ("op", K.Json.Str "health"); ("id", K.Json.Int 2) ];
                  edit_req 3 alt;
                ]
              in
              let session ~resume dir lines =
                match Sv.create ~resume (serve_cfg dir) with
                | Error msg -> Error msg
                | Ok srv ->
                    List.iter (fun l -> ignore (Sv.handle_line srv l)) lines;
                    Sv.finalize srv;
                    Ok srv
              in
              let work () =
                ignore (session ~resume:true (Some dir) lines)
              in
              (* the uninterrupted session's resident fixed point is the
                 oracle every recovery must land on *)
              match session ~resume:false None lines with
              | exception e ->
                  fail ~case:"chaos:serve" "exception escaped the daemon: %s"
                    (Printexc.to_string e)
              | Error msg -> fail ~case:"chaos:serve" "create failed: %s" msg
              | Ok straight_srv ->
                  let reset () =
                    rm_tree dir;
                    Unix.mkdir dir 0o755
                  in
                  let total = count_ops work in
                  reset ();
                  if total = 0 then
                    fail ~case:"chaos:serve"
                      "serve session ticked no IO operations";
                  let check_recovered ~case k =
                    match session ~resume:true (Some dir) lines with
                    | exception e ->
                        fail ~case
                          "op %d: exception escaped the recovered daemon: %s"
                          k (Printexc.to_string e)
                    | Error msg -> fail ~case "op %d: recovery refused: %s" k msg
                    | Ok srv -> (
                        match (Sv.state srv, Sv.state straight_srv) with
                        | Some a, Some b -> (
                            match
                              Incr.same_fixed_point a.Incr.engine b.Incr.engine
                            with
                            | Ok () -> ()
                            | Error msg ->
                                fail ~case
                                  "op %d: recovered fixed point diverged: %s"
                                  k msg)
                        | _ ->
                            fail ~case
                              "op %d: recovered daemon has no resident state"
                              k)
                  in
                  for k = 0 to total - 1 do
                    incr checked;
                    reset ();
                    C.Io.fork_crashing
                      ~plan:(C.Io.plan ~crash_at:k ~seed ())
                      work;
                    check_recovered ~case:"chaos:serve-crash" k
                  done;
                  for i = 0 to chaos_fault_plans - 1 do
                    incr checked;
                    reset ();
                    fault_probe ~case:"chaos:serve-fault"
                      ~plan_seed:((seed * 83) + i)
                      work;
                    check_recovered ~case:"chaos:serve-fault" i
                  done)));
  (List.rev !failures, !checked)

(** [run ~seeds ()] fuzzes seeds [0 .. seeds-1]; [progress] is called
    after each seed (for CLI feedback).  [crash] additionally runs the
    crash-injection matrix (snapshot + cache corruption) on every seed.
    [chaos] additionally runs the syscall-level crash-point matrix
    ({!chaos_seed}: forked kills before every IO operation of every
    durable-write site, plus seeded fault plans). *)
let run ?(progress = fun _ -> ()) ?(crash = false) ?(chaos = false) ~seeds () :
    report =
  let failures = ref [] and runs = ref 0 and degraded = ref 0 in
  let lint_checked = ref 0 and crash_checked = ref 0 in
  let prim_checked = ref 0 in
  let serve_checked = ref 0 in
  let chaos_checked = ref 0 in
  for s = 0 to seeds - 1 do
    let fs, r, d, l, p = fuzz_seed s in
    failures := List.rev_append fs !failures;
    runs := !runs + r;
    degraded := !degraded + d;
    lint_checked := !lint_checked + l;
    prim_checked := !prim_checked + p;
    if crash then begin
      let cfs, c = crash_seed s in
      failures := List.rev_append cfs !failures;
      crash_checked := !crash_checked + c;
      let sfs, sc = serve_seed s in
      failures := List.rev_append sfs !failures;
      serve_checked := !serve_checked + sc
    end;
    if chaos then begin
      let hfs, hc = chaos_seed s in
      failures := List.rev_append hfs !failures;
      chaos_checked := !chaos_checked + hc
    end;
    progress s
  done;
  {
    r_seeds = seeds;
    r_runs = !runs;
    r_degraded = !degraded;
    r_lint_checked = !lint_checked;
    r_prim_checked = !prim_checked;
    r_crash_checked = !crash_checked;
    r_serve_checked = !serve_checked;
    r_chaos_checked = !chaos_checked;
    r_failures = List.rev !failures;
  }
