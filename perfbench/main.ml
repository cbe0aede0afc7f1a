(* Layered end-to-end benchmark of the skipflow analysis.

   One command runs every workload, prints each end-to-end metric by name
   with its unit, runs a separately traced pass for the per-layer table,
   checks the outputs, and exits nonzero when a check fails.  See
   perfbench/README.md for the metric glossary, the bounds and why each
   workload exists.

   Usage (from the repository root; run.sh builds first):
     sh perfbench/run.sh run [--workloads a,b] [--seed N] [--seconds S]
                             [--runs K] [--smoke] [--out DIR]
         every workload, each run in a fresh process: K untraced runs
         (seeds N .. N+K-1) and one traced run (seed N); writes
         DIR/results.jsonl and DIR/<workload>.trace.json
         (default DIR _build/perfbench, N 0, S 15, K 2)
     sh perfbench/run.sh compare OLD NEW [--benchmark FILE]
         judges NEW against OLD (run directories) per workload and
         end-to-end metric with the bounds of BENCHMARK.json:
         ok / unresolved (spread wider than the bound) / regressed
         (exits 1)
     sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
         one run of one workload; the last line of stdout is the result
         JSON (end-to-end metrics with --trace 0, per-layer with 1)

   Workloads: solve-skipflow, solve-pta, cli-cold, serve-edits.  Only the
   default sequential path is measured (one solver domain, flat primitive
   domain, deduplicating engine); --jobs, the reference engine and the
   product domain stay with bench/main.exe. *)

module Api = Skipflow_api
module C = Skipflow_core
module F = Skipflow_frontend
module W = Skipflow_workloads
module K = Skipflow_checks
module S = Skipflow_serve
module Json = Skipflow_checks.Json
open Skipflow_ir

external wait4_rss : int -> int * int = "perfbench_wait4"
(** Reap a child: its exit code (the negated signal number when it was
    killed) and its peak resident set in KiB. *)

let now = Unix.gettimeofday
let t_origin = now ()

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

let io_ok what = function
  | Ok v -> v
  | Error e -> die "%s: %s" what (C.Io.error_message e)

let write_file path contents = io_ok path (C.Io.write_file_atomic ~path contents)
let read_file path = io_ok path (C.Io.read_file path)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let fresh_dir path =
  rm_rf path;
  io_ok path (C.Io.mkdir_p path)

(* ----------------------------- statistics ----------------------------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(** Linearly interpolated percentile, [q] in [0, 1]. *)
let percentile q l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = percentile 0.5
let sum = List.fold_left ( +. ) 0.

(** First and third quartiles exactly as Python's
    [statistics.quantiles(values, n=4)] computes them (its default
    exclusive method), so the spreads printed here are the ones the
    acceptance rule in the README uses. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* ------------------------------- spans -------------------------------- *)

(* Spans are recorded around the benchmark's own calls into each layer's
   public functions (never inside the program), kept in memory, and
   written as one Chrome trace per traced run.  Each top-level span is a
   "unit" (a set-up, a traced pass, the final checks); notes attach
   counts to the unit that is open. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (** -1 for a unit *)
  sp_unit : int;  (** id of the enclosing unit (itself for a unit) *)
  sp_start : float;
  mutable sp_stop : float;
  mutable sp_minor_words : float;
  mutable sp_promoted_words : float;
  mutable sp_major_gcs : int;
}

let tracing = ref false
let finished : span list ref = ref []
let open_spans : span list ref = ref []
let span_count = ref 0
let unit_notes : (int, (string, float) Hashtbl.t) Hashtbl.t = Hashtbl.create 16

let span name f =
  if not !tracing then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let parent, unit_id =
      match !open_spans with
      | p :: _ -> (p.sp_id, p.sp_unit)
      | [] -> (-1, !span_count)
    in
    let sp =
      {
        sp_id = !span_count;
        sp_name = name;
        sp_parent = parent;
        sp_unit = unit_id;
        sp_start = now ();
        sp_stop = 0.;
        sp_minor_words = 0.;
        sp_promoted_words = 0.;
        sp_major_gcs = 0;
      }
    in
    incr span_count;
    open_spans := sp :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        sp.sp_stop <- now ();
        let g1 = Gc.quick_stat () in
        sp.sp_minor_words <- g1.Gc.minor_words -. g0.Gc.minor_words;
        sp.sp_promoted_words <- g1.Gc.promoted_words -. g0.Gc.promoted_words;
        sp.sp_major_gcs <- g1.Gc.major_collections - g0.Gc.major_collections;
        open_spans := List.tl !open_spans;
        finished := sp :: !finished)
  end

(** Add [v] to the count [key] of the open unit (no-op untraced). *)
let note key v =
  match !open_spans with
  | sp :: _ when !tracing ->
      let tbl =
        match Hashtbl.find_opt unit_notes sp.sp_unit with
        | Some t -> t
        | None ->
            let t = Hashtbl.create 8 in
            Hashtbl.add unit_notes sp.sp_unit t;
            t
      in
      Hashtbl.replace tbl key
        (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))
  | _ -> ()

let with_tracing on f =
  let saved = !tracing in
  tracing := on;
  Fun.protect f ~finally:(fun () -> tracing := saved)

let spanner = { F.Frontend.span = (fun phase f -> span ("frontend." ^ phase) f) }

type agg = {
  mutable calls : int;
  mutable total : float;  (** seconds *)
  mutable self : float;  (** seconds, minus child spans *)
  mutable minor : float;  (** words *)
  mutable promoted : float;
  mutable major : int;
}

let new_agg () =
  { calls = 0; total = 0.; self = 0.; minor = 0.; promoted = 0.; major = 0 }

let dur sp = sp.sp_stop -. sp.sp_start

(** Per-name aggregates of the given spans, with self times. *)
let aggregate spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if sp.sp_parent >= 0 then
        Hashtbl.replace child_time sp.sp_parent
          (dur sp +. Option.value ~default:0. (Hashtbl.find_opt child_time sp.sp_parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let a =
        match Hashtbl.find_opt by_name sp.sp_name with
        | Some a -> a
        | None ->
            let a = new_agg () in
            Hashtbl.add by_name sp.sp_name a;
            a
      in
      a.calls <- a.calls + 1;
      a.total <- a.total +. dur sp;
      a.self <-
        a.self +. dur sp
        -. Option.value ~default:0. (Hashtbl.find_opt child_time sp.sp_id);
      a.minor <- a.minor +. sp.sp_minor_words;
      a.promoted <- a.promoted +. sp.sp_promoted_words;
      a.major <- a.major + sp.sp_major_gcs)
    spans;
  by_name

(** One unit's view: its per-name aggregates and its notes. *)
type view = { aggs : (string, agg) Hashtbl.t; notes : (string, float) Hashtbl.t }

let views () =
  let units = List.filter (fun sp -> sp.sp_parent < 0) !finished in
  List.map
    (fun u ->
      let members = List.filter (fun sp -> sp.sp_unit = u.sp_id) !finished in
      ( u.sp_name,
        {
          aggs = aggregate members;
          notes =
            Option.value ~default:(Hashtbl.create 1)
              (Hashtbl.find_opt unit_notes u.sp_id);
        } ))
    units

let write_chrome path =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\": [\n";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.1f, \
         \"dur\": %.1f, \"args\": {\"id\": %d, \"parent\": %d, \"minor_words\": \
         %.0f, \"promoted_words\": %.0f, \"major_gcs\": %d}}"
        sp.sp_name
        ((sp.sp_start -. t_origin) *. 1e6)
        (dur sp *. 1e6) sp.sp_id sp.sp_parent
        sp.sp_minor_words sp.sp_promoted_words sp.sp_major_gcs)
    (List.rev !finished);
  Buffer.add_string b "\n], \"displayTimeUnit\": \"ms\"}\n";
  write_file path (Buffer.contents b)

(* ------------------------------ metrics ------------------------------- *)

(* The end-to-end metrics every untraced run reports, and the per-layer
   metrics every traced run reports (BENCHMARK.json lists the same names;
   the smoke test checks that they agree).  Per-layer metrics that only
   some workloads exercise are printed and stored with the run but are
   not part of the result line. *)

let end_to_end =
  [ ("setup_s", "s"); ("pass_s", "s"); ("op_ms_p50", "ms"); ("op_ms_p95", "ms");
    ("peak_rss_mb", "MB") ]

let ms_total names v =
  match List.filter_map (Hashtbl.find_opt v.aggs) names with
  | [] -> None
  | l -> Some (1000. *. sum (List.map (fun a -> a.total) l))

let words field names v =
  match List.filter_map (Hashtbl.find_opt v.aggs) names with
  | [] -> None
  | l -> Some (sum (List.map field l) /. 1e6)

let noted key v = Hashtbl.find_opt v.notes key
let ratio a b v = match (noted a v, noted b v) with Some x, Some y when y > 0. -> Some (x /. y) | _ -> None

let frontend = [ "frontend.parse"; "frontend.typecheck"; "frontend.lower" ]
let engine = [ "engine.create"; "engine.add_root"; "engine.run" ]

(** name, unit, value in one unit (None when the unit did not exercise it),
    and whether it belongs to the result line of a traced run. *)
let layer_metrics : (string * string * (view -> float option) * bool) list =
  [ ("frontend.parse_ms", "ms", ms_total [ "frontend.parse" ], true);
    ("frontend.typecheck_ms", "ms", ms_total [ "frontend.typecheck" ], true);
    ("frontend.lower_ms", "ms", ms_total [ "frontend.lower" ], true);
    ("frontend.minor_mwords", "Mwords", words (fun a -> a.minor) frontend, true);
    ( "frontend.src_mb_per_s",
      "MB/s",
      (fun v ->
        match (noted "frontend.src_bytes" v, ms_total frontend v) with
        | Some b, Some ms when ms > 0. -> Some (b /. 1e6 /. (ms /. 1000.))
        | _ -> None),
      true );
    ("engine.roots_ms", "ms", ms_total [ "engine.create"; "engine.add_root" ], true);
    ("engine.run_ms", "ms", ms_total [ "engine.run" ], true);
    ( "engine.build_ms",
      "ms",
      (fun v -> Option.map (fun us -> us /. 1000.) (noted "engine.build_us" v)),
      true );
    ("engine.tasks", "count", noted "engine.tasks", true);
    ("engine.links", "count", noted "engine.links", true);
    ("engine.live_flows", "count", noted "engine.live_flows", true);
    ("engine.dedup_hit_ratio", "ratio", ratio "engine.dedup_hits" "engine.emits", true);
    ("engine.minor_mwords", "Mwords", words (fun a -> a.minor) engine, true);
    ("engine.promoted_mwords", "Mwords", words (fun a -> a.promoted) engine, true);
    ( "engine.major_gcs",
      "count",
      (fun v ->
        match List.filter_map (Hashtbl.find_opt v.aggs) engine with
        | [] -> None
        | l -> Some (float_of_int (List.fold_left (fun n a -> n + a.major) 0 l))),
      true );
    ("metrics.compute_ms", "ms", ms_total [ "metrics.compute" ], true);
    ("verify.run_ms", "ms", ms_total [ "verify.run" ], true);
    ("verify.violations", "count", noted "verify.violations", true);
    ("reachable_methods", "methods", noted "reachable_methods", true);
    ("checks.run_ms", "ms", ms_total [ "checks.make_ctx"; "checks.run" ], false);
    ("checks.findings", "count", noted "checks.findings", false);
    ("snapshot.encode_ms", "ms", ms_total [ "snapshot.encode" ], false);
    ("snapshot.decode_ms", "ms", ms_total [ "snapshot.decode" ], false);
    ("snapshot.write_ms", "ms", ms_total [ "snapshot.write" ], false);
    ("snapshot.freeze_ms", "ms", ms_total [ "snapshot.freeze" ], false);
    ("snapshot.thaw_ms", "ms", ms_total [ "snapshot.thaw" ], false);
    ( "snapshot.mb",
      "MB",
      (fun v -> Option.map (fun b -> b /. 1e6) (noted "snapshot.bytes" v)),
      false );
    ("serve.parse_ms", "ms", ms_total [ "serve.parse" ], false);
    ("serve.errors", "count", noted "serve.errors", false);
  ]

(** The per-layer metrics of a traced run: each the median over the traced
    set-ups and passes that exercised it, plus the workload's own
    distribution metrics [extra]. *)
let layer_values extra =
  let vs =
    List.filter (fun (name, _) -> name = "setup" || name = "pass") (views ())
  in
  List.filter_map
    (fun (name, unit_, f, in_result) ->
      match List.filter_map (fun (_, v) -> f v) vs with
      | [] -> None
      | l -> Some (name, unit_, median l, in_result))
    layer_metrics
  @ extra

(** Latency distribution of every span named [name] across the run. *)
let span_p50 name =
  let ds =
    List.filter_map
      (fun sp -> if sp.sp_name = name then Some (dur sp *. 1000.) else None)
      !finished
  in
  (median ds, List.length ds)

let print_span_table () =
  let all = aggregate !finished in
  let rows =
    List.sort
      (fun (_, a) (_, b) -> Float.compare b.self a.self)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) all [])
  in
  let units = List.filter (fun sp -> sp.sp_parent < 0) !finished in
  let wall = sum (List.map dur units) in
  Printf.eprintf "\n  %-26s %7s %11s %11s %10s\n" "span" "calls" "total[ms]"
    "self[ms]" "minor[Mw]";
  List.iter
    (fun (name, a) ->
      Printf.eprintf "  %-26s %7d %11.1f %11.1f %10.2f\n" name a.calls
        (a.total *. 1000.) (a.self *. 1000.) (a.minor /. 1e6))
    rows;
  Printf.eprintf "  self times sum to %.1f ms of %.1f ms traced wall time\n"
    (1000. *. sum (List.map (fun (_, a) -> a.self) rows))
    (1000. *. wall)

(* ------------------------------ outcome ------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let tally = { attempted = 0; failed = 0; problems = [] }

(** Count one attempted operation or check; [ok = false] makes it a
    failure, described by the message. *)
let expect ok fmt =
  Printf.ksprintf
    (fun msg ->
      tally.attempted <- tally.attempted + 1;
      if not ok then begin
        tally.failed <- tally.failed + 1;
        if List.length tally.problems < 12 then tally.problems <- msg :: tally.problems
      end)
    fmt

let num v =
  if not (Float.is_finite v) then die "a metric is not finite"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(** [{"name": {"value": v, "unit": u}, ...}] *)
let metrics_object metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit_)
         metrics)
  ^ "}"

let result_line metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    (tally.failed = 0) tally.attempted tally.failed (metrics_object metrics)

(** The line before the result of an untraced run: "wall" and the time
    metrics in raw wall-clock time. *)
let wall_prefix = "wall "

(* ------------------------------ processes ----------------------------- *)

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

(** Run [prog args] to completion: exit code, captured stdout, peak RSS
    in KiB.  Stderr goes to [stderr] (default /dev/null). *)
let run_capture ?stderr prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = match stderr with Some fd -> fd | None -> Lazy.force devnull in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) (Lazy.force devnull) w err
  in
  Unix.close w;
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read r chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close r;
  let code, rss = wait4_rss pid in
  (code, Buffer.contents buf, rss)

let self_exe () =
  let e = Sys.executable_name in
  if Filename.is_relative e then Filename.concat (Sys.getcwd ()) e else e

(* ------------------------------ options ------------------------------- *)

type size = {
  solve_scale : float;
  cli_scale : float;
  serve_scale : float;
  min_passes : int;  (** solve and cli passes per run, at least *)
  min_requests : int;  (** serve requests per run, at least *)
  setups : int;  (** set-ups per run; setup_s is their median *)
}

(* Each scale is small enough for a 15-second run to hold many passes, and
   large enough that the workload's split between layers matches the split
   at a larger reference size (solve 0.25; cli and serve 0.05, the default
   of `skipflow gen --bench`).  The README's "Workload sizes" section has
   the measurements.  solve: the build, propagation and metrics shares,
   the promotion rate and the major collections agree at 0.05 and 0.25.
   cli: the frontend takes 71% of `analyze` at both 0.02 and 0.05.
   serve: persistence takes 49% of an episode at 0.01, 52% at 0.02 and
   54% at 0.05, so serve runs at 0.02; 210 requests leave ten beyond the
   95th percentile.  The smoke size only proves that everything runs and
   checks out. *)
let full_size =
  { solve_scale = 0.05; cli_scale = 0.02; serve_scale = 0.02; min_passes = 5;
    min_requests = 210; setups = 3 }

let smoke_size =
  { solve_scale = 0.005; cli_scale = 0.005; serve_scale = 0.005; min_passes = 1;
    min_requests = 20; setups = 1 }

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  size : size;
  out : string;
  skipflow : string;
}

let workloads = [ "solve-skipflow"; "solve-pta"; "cli-cold"; "serve-edits" ]
(* fop, pmd, luindex and sunflow span the paper's range (sunflow is its
   outlier: 33% fewer reachable methods than PTA here at scale 0.05, 34%
   at 0.25); xalan adds the middle of it and
   makes the count odd, so the median op is one program's op rather than
   the average of two programs' extremes *)
let programs = [ "fop"; "pmd"; "luindex"; "sunflow"; "xalan" ]
let serve_program = "luindex"

(** The daemon's root set between writes. *)
let serve_roots = [ "Main.main" ]
let default_seed = 0

(** The measured window of one run, in seconds (BENCHMARK.json's
    run_seconds). *)
let default_seconds = 15.

(* Reachable methods at the default seed, per (scale, program, analysis):
   the reference every default-seed run is checked against. *)
let recorded =
  [ (0.05, "fop", "skipflow", 5031); (0.05, "pmd", "skipflow", 3302);
    (0.05, "luindex", "skipflow", 1681); (0.05, "sunflow", "skipflow", 2406);
    (0.05, "xalan", "skipflow", 2391);
    (0.05, "fop", "pta", 5417); (0.05, "pmd", "pta", 3651);
    (0.05, "luindex", "pta", 1748); (0.05, "sunflow", "pta", 3571);
    (0.05, "xalan", "pta", 2839);
    (0.02, "fop", "skipflow", 2010); (0.02, "pmd", "skipflow", 1317);
    (0.02, "luindex", "skipflow", 680); (0.02, "sunflow", "skipflow", 909);
    (0.02, "xalan", "skipflow", 942);
    (0.005, "fop", "skipflow", 518); (0.005, "pmd", "skipflow", 342);
    (0.005, "luindex", "skipflow", 174); (0.005, "sunflow", "skipflow", 220);
    (0.005, "xalan", "skipflow", 242);
    (0.005, "fop", "pta", 551); (0.005, "pmd", "pta", 376);
    (0.005, "luindex", "pta", 185); (0.005, "sunflow", "pta", 357);
    (0.005, "xalan", "pta", 286) ]

let recorded_count ~scale name analysis =
  List.find_map
    (fun (s, n, a, count) ->
      if Float.equal s scale && n = name && a = analysis then Some count else None)
    recorded

(** Check [count] against the recorded one when the program was generated
    with the default [seed]. *)
let check_recorded ~seed ~scale name analysis count =
  if seed = default_seed then
    match recorded_count ~scale name analysis with
    | Some r ->
        expect (r = count) "%s (%s, scale %g): %d reachable methods, recorded %d"
          name analysis scale count r
    | None ->
        expect false "%s (%s, scale %g): no recorded reachable count (got %d)" name
          analysis scale count

(** The catalog's generator parameters at [scale], seed shifted by the
    benchmark seed (seed 0 is the catalog program itself). *)
let params ~scale ~seed name =
  match W.Suites.find name with
  | None -> die "unknown benchmark %s" name
  | Some b ->
      let p = W.Suites.params_of ~scale b in
      { p with W.Gen.seed = p.W.Gen.seed + seed }

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ----------------------------- host speed ----------------------------- *)

(* The sandboxes this benchmark runs in have slow phases, lasting seconds
   to minutes, in which allocation-heavy code runs up to 1.7x slower
   (other tenants share the caches and the memory bus); whole runs can
   fall inside one.  So every timed op sits between two runs of the fixed
   calibration loop below, and its time is scaled to the host speed at
   which the loop takes [calibration_ref] seconds.  Across seeds this cut
   the spread of the solve pass time from 24-33% to 2-4%.  A loop that
   does not allocate tracks the slow phases far worse, and so does one
   walking a large array.

   Scaling cancels whatever slows the loop and the ops alike.  The loop
   runs under the runtime's default minor heap and space overhead
   whatever the program sets, so a GC setting in the program shows.  A
   compiler flag or runtime change for the whole build does not: it moves
   the loop too.  So the raw wall times go into each run's record as well,
   and `compare` prints them beside the scaled ones. *)

(** The calibration loop's time on the host the baseline was measured on,
    outside its slow phases. *)
let calibration_ref = 0.013

let calibrate () =
  let program_gc = Gc.get () in
  let pinned = { program_gc with Gc.minor_heap_size = 262_144; space_overhead = 120 } in
  if pinned <> program_gc then Gc.set pinned;
  let t0 = now () in
  let h = Hashtbl.create 1024 in
  let l = ref [] in
  for i = 0 to 60_000 do
    let k = (i * 7919) land 0x7fff in
    (match Hashtbl.find_opt h k with
    | Some r -> l := (i, r) :: !l
    | None -> Hashtbl.add h k (Array.make 4 i));
    if i land 1023 = 0 then l := List.filter (fun (a, _) -> a land 3 <> 0) !l
  done;
  ignore (Sys.opaque_identity !l);
  let t = now () -. t0 in
  if pinned <> program_gc then Gc.set program_gc;
  t

(** One timed op: its wall time and the calibrations just before and
    after it. *)
type sample = { wall : float; cal_before : float; mutable cal_after : float }

let last_cal = ref nan
let open_samples : sample list ref = ref []
let cal_times : float list ref = ref []

(** Run the calibration loop: it closes every sample taken since the
    previous calibration and opens the next ones. *)
let calibration () =
  let c = calibrate () in
  List.iter (fun s -> s.cal_after <- c) !open_samples;
  open_samples := [];
  cal_times := c :: !cal_times;
  last_cal := c

(** Time [f] as one op, after a {!calibration}; another must follow
    before the sample is {!scaled}. *)
let sample f =
  let v, wall = timed f in
  let s = { wall; cal_before = !last_cal; cal_after = nan } in
  open_samples := s :: !open_samples;
  (v, s)

(** The op's time at the reference host speed. *)
let scaled s = s.wall *. calibration_ref /. ((s.cal_before +. s.cal_after) /. 2.)

let walls = List.map (fun s -> s.wall)

(** Set up [n] times (each a traced unit when tracing); returns the last
    set-up's value and every set-up's sample.  [drop] releases an earlier
    one. *)
let repeat_setup n ~drop f =
  let rec go k samples =
    calibration ();
    let v, s = sample (fun () -> span "setup" f) in
    calibration ();
    if k >= n then (v, s :: samples)
    else begin
      drop v;
      go (k + 1) (s :: samples)
    end
  in
  go 1 []

(** Call [step i] for i = 0, 1, ... until [seconds] have passed and
    [enough i] holds. *)
let measure_window ~seconds ~enough step =
  let t0 = now () in
  let rec go i =
    if enough i && now () -. t0 >= seconds then ()
    else begin
      step i;
      go (i + 1)
    end
  in
  go 0

(** Traced runs alternate untraced and traced passes (odd indices), so the
    two are measured under the same conditions. *)
let is_traced_pass o i = o.traced && i mod 2 = 1

(* ------------------------------ analysis ------------------------------ *)

type program = {
  p_name : string;
  p_prog : Program.t;
  p_main : Program.meth;
}

let compile_source name src =
  note "frontend.src_bytes" (float_of_int (String.length src));
  match F.Frontend.compile_diags ~spanner src with
  | Error _ -> die "%s: the generated program does not compile" name
  | Ok prog -> (
      match F.Frontend.main_of prog with
      | Some main -> { p_name = name; p_prog = prog; p_main = main }
      | None -> die "%s: the generated program has no main" name)

(** The solve [Api.analyze_program] runs, one layer call at a time:
    engine creation, the root, the drain, the Table 1 metrics. *)
let solve config p =
  let trace = C.Trace.create ~timers:!tracing () in
  let engine = span "engine.create" (fun () -> C.Engine.create ~trace p.p_prog config) in
  span "engine.add_root" (fun () -> C.Engine.add_root engine p.p_main);
  (match span "engine.run" (fun () -> C.Engine.run engine) with
  | C.Engine.Completed -> ()
  | C.Engine.Paused _ -> die "%s: the solve paused without a budget" p.p_name);
  let m = span "metrics.compute" (fun () -> C.Metrics.compute engine) in
  let st = C.Engine.stats engine in
  note "engine.tasks" (float_of_int st.C.Engine.tasks_processed);
  note "engine.links" (float_of_int st.C.Engine.links);
  note "engine.live_flows" (float_of_int st.C.Engine.live_flows);
  note "engine.dedup_hits" (float_of_int (C.Engine.dedup_hits st));
  note "engine.emits"
    (float_of_int (C.Engine.dedup_hits st + st.C.Engine.tasks_processed));
  note "engine.build_us"
    (float_of_int (C.Trace.value (C.Trace.counter trace "build.wall_us")));
  note "reachable_methods" (float_of_int m.C.Metrics.reachable_methods);
  expect (not m.C.Metrics.degraded) "%s: degraded fixed point" p.p_name;
  (engine, m)

let verify name engine =
  let vs = span "verify.run" (fun () -> C.Verify.run engine) in
  note "verify.violations" (float_of_int (List.length vs));
  expect (vs = []) "%s: %d fixed-point violations (first: %s)" name (List.length vs)
    (match vs with v :: _ -> v | [] -> "")

let lint engine p =
  let ctx = span "checks.make_ctx" (fun () -> K.Checks.make_ctx ~engine ~roots:[ p.p_main ]) in
  let findings = span "checks.run" (fun () -> K.Checks.run ctx) in
  note "checks.findings" (float_of_int (List.length findings));
  List.length findings

let analysis_name config =
  if config.C.Config.predicates then "skipflow" else "pta"

(** Per-program value of the first pass; every later pass must match. *)
let same_as_first tbl key v what =
  match Hashtbl.find_opt tbl key with
  | None -> Hashtbl.add tbl key v
  | Some v0 -> expect (v = v0) "%s: %s %d, first pass %d" key what v v0

(** The time metrics of {!op_metrics} in raw wall-clock time, unscaled. *)
let raw_walls : (string * string * float) list ref = ref []

(** The end-to-end metrics, host-speed scaled, from the set-ups and the
    untraced passes (each a list of op samples); the raw wall-clock values
    are printed beside them and kept in {!raw_walls}.  With [labels],
    passes hold one op per label in that order, and each label's own
    median is printed (not gated). *)
let op_metrics ?labels ~setup ~passes ~rss_kb () =
  let metrics time =
    let ops = List.concat_map (List.map time) passes in
    [ ("setup_s", "s", median (List.map time setup));
      ("pass_s", "s", median (List.map (fun p -> sum (List.map time p)) passes));
      ("op_ms_p50", "ms", 1000. *. median ops);
      ("op_ms_p95", "ms", 1000. *. percentile 0.95 ops) ]
  in
  Printf.eprintf "  %d untraced passes, %d ops; calibration loop median %.1f ms (reference %.1f ms)\n"
    (List.length passes)
    (List.length (List.concat passes))
    (1000. *. median !cal_times) (1000. *. calibration_ref);
  Option.iter
    (List.iteri (fun i label ->
         let op = List.map (fun pass -> List.nth pass i) passes in
         Printf.eprintf "  %-30s %10.3f ms  (wall %.3f ms)\n" label
           (1000. *. median (List.map scaled op)) (1000. *. median (walls op))))
    labels;
  raw_walls := metrics (fun s -> s.wall);
  List.iter2
    (fun (n, u, v) (_, _, w) -> Printf.eprintf "  %-14s %12.3f %-3s (wall %.3f)\n" n v u w)
    (metrics scaled) !raw_walls;
  let rss_mb = float_of_int rss_kb /. 1024. in
  Printf.eprintf "  %-14s %12.3f MB\n" "peak_rss_mb" rss_mb;
  metrics scaled @ [ ("peak_rss_mb", "MB", rss_mb) ]

(** Trace overhead: the median traced pass against the median untraced
    one, in raw wall time (the two alternate within the run). *)
let overhead_of ~untraced ~traced =
  let pass_wall l = median (List.map (fun p -> sum (walls p)) l) in
  ( "trace_overhead_pct",
    "%",
    100. *. ((pass_wall traced /. pass_wall untraced) -. 1.),
    true )

(* ------------------------------ solve-* ------------------------------- *)

(* peak_rss_mb of a solve workload cannot come from the benchmark process:
   its set-ups leave the frontend's garbage mapped, and that peak hides the
   solver's.  Nor can one child solve all five programs, because the
   runtime keeps each solve's heap mapped for the next.  So a fresh child
   per program loads the compiled program and solves it once; the metric
   is the largest of their peak resident sets.  The child reads its own
   VmHWM: the rusage of a spawned child starts from its parent's peak. *)

let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> die "no VmHWM in /proc/self/status"
  in
  Fun.protect find ~finally:(fun () -> close_in ic)

(** The child: [probe-solve ANALYSIS FILE], the file a marshaled program;
    prints its reachable-method count and its peak resident set in KiB. *)
let probe_solve = function
  | [ analysis; path ] ->
      let config = if analysis = "pta" then C.Config.pta else C.Config.skipflow in
      let prog : Program.t = Marshal.from_string (read_file path) 0 in
      let main =
        match F.Frontend.main_of prog with Some m -> m | None -> die "%s: no main" path
      in
      let _, m = solve config { p_name = path; p_prog = prog; p_main = main } in
      Printf.printf "%d %d\n" m.C.Metrics.reachable_methods (vm_hwm_kb ())
  | _ -> die "usage: probe-solve ANALYSIS FILE"

(** Run {!probe_solve} on each program: the largest peak resident set in
    KiB.  Each count must equal the in-process one in [counts]. *)
let memory_probe o config progs counts =
  let dir = Filename.concat o.out ("work/" ^ o.workload) in
  fresh_dir dir;
  List.fold_left
    (fun peak p ->
      let path = Filename.concat dir (p.p_name ^ ".prog") in
      write_file path (Marshal.to_string p.p_prog []);
      let code, out, _ = run_capture (self_exe ()) [ "probe-solve"; analysis_name config; path ] in
      let want = Option.value ~default:(-1) (Hashtbl.find_opt counts p.p_name) in
      let got = Scanf.sscanf_opt out "%d %d" (fun n kb -> (n, kb)) in
      let ok = code = 0 && Option.map fst got = Some want in
      expect ok "%s memory probe: exit code %d, output %S, %d reachable methods in process"
        p.p_name code out want;
      match got with Some (_, kb) when ok -> max peak kb | _ -> peak)
    0 progs

(* Each pass solves the five programs, one op each, after an untimed
   compaction: a solve's time otherwise depends on the heap the previous
   one left, and one-shot users start from a fresh heap. *)
let solve_workload o ~config ~other =
  let scale = o.size.solve_scale in
  let progs, setup =
    repeat_setup o.size.setups ~drop:ignore (fun () ->
        List.map
          (fun name ->
            let src = span "gen.source" (fun () -> W.Gen.source (params ~scale ~seed:o.seed name)) in
            compile_source name src)
          programs)
  in
  let counts = Hashtbl.create 4 in
  (* every calibration runs right after a compaction, on the same heap *)
  let pass ~traced =
    let ops =
      List.map
        (fun p ->
          Gc.compact ();
          if not traced then calibration ();
          let (engine, m), s = sample (fun () -> span "op" (fun () -> solve config p)) in
          same_as_first counts p.p_name m.C.Metrics.reachable_methods "reachable methods";
          if traced then verify p.p_name engine;
          s)
        progs
    in
    if not traced then begin
      Gc.compact ();
      calibration ()
    end;
    ops
  in
  let untraced = ref [] and traced = ref [] in
  measure_window ~seconds:o.seconds
    ~enough:(fun i -> i >= if o.traced then 2 * o.size.min_passes else o.size.min_passes)
    (fun i ->
      if is_traced_pass o i then
        traced := with_tracing true (fun () -> span "pass" (fun () -> pass ~traced:true)) :: !traced
      else untraced := with_tracing false (fun () -> pass ~traced:false) :: !untraced);
  span "checks" (fun () ->
      List.iter
        (fun p ->
          Gc.compact ();
          let e, m = solve config p in
          verify p.p_name e;
          let count = m.C.Metrics.reachable_methods in
          same_as_first counts p.p_name count "reachable methods";
          check_recorded ~seed:o.seed ~scale p.p_name (analysis_name config) count;
          let e', _ = solve other p in
          let sf, pta = if config.C.Config.predicates then (e, e') else (e', e) in
          let extra =
            List.filter
              (fun (mt : Program.meth) -> not (C.Engine.is_reachable pta mt.Program.m_id))
              (C.Engine.reachable_methods sf)
          in
          expect (extra = []) "%s: %d SkipFlow-reachable methods PTA does not reach"
            p.p_name (List.length extra))
        progs);
  let rss_kb = if o.traced then 0 else memory_probe o config progs counts in
  let labels =
    List.map
      (fun p ->
        Printf.sprintf "%s (%d methods)" p.p_name
          (Option.value ~default:0 (Hashtbl.find_opt counts p.p_name)))
      progs
  in
  ( op_metrics ~labels ~setup ~passes:!untraced ~rss_kb (),
    if o.traced then [ overhead_of ~untraced:!untraced ~traced:!traced ] else [] )

(* ------------------------------ cli-cold ------------------------------ *)

let json_int path j =
  let rec go j = function
    | [] -> ( match j with Json.Int n -> Some n | _ -> None)
    | k :: rest -> Option.bind (Json.member k j) (fun j -> go j rest)
  in
  go j path

(* Each pass runs, per program, a cold `skipflow analyze` and a cold
   `skipflow lint`, one child process at a time, as a build step would. *)
let cli_workload o =
  let scale = o.size.cli_scale in
  let dir = Filename.concat o.out "work/cli-cold" in
  fresh_dir dir;
  let files, setup =
    repeat_setup o.size.setups ~drop:ignore (fun () ->
        List.map
          (fun name ->
            let src = span "gen.source" (fun () -> W.Gen.source (params ~scale ~seed:o.seed name)) in
            let path = Filename.concat dir (name ^ ".mj") in
            write_file path src;
            (name, path, src))
          programs)
  in
  (* A spawned child's rusage peak starts from its parent's peak, but this
     process stays near 26 MB until the passes are over, well below the
     largest CLI child's peak (fop, 50 MB), so [max_rss] is the children's
     own. *)
  let outputs = Hashtbl.create 8 and max_rss = ref 0 in
  let cli ~traced verb args name =
    if not traced then calibration ();
    let (code, out, rss), s =
      sample (fun () -> span ("cli." ^ verb) (fun () -> run_capture o.skipflow (verb :: args)))
    in
    max_rss := max !max_rss rss;
    expect (code = 0) "%s %s: exit code %d" verb name code;
    (out, s)
  in
  let parse_out verb name out =
    match Json.of_string out with
    | exception Json.Parse_error msg ->
        expect false "%s %s: unreadable JSON (%s)" verb name msg;
        -1
    | j -> (
        match
          if verb = "analyze" then json_int [ "metrics"; "reachable_methods" ] j
          else Option.map List.length (Option.bind (Json.member "findings" j) (function Json.Arr l -> Some l | _ -> None))
        with
        | Some n -> n
        | None ->
            expect false "%s %s: no result in the JSON output" verb name;
            -1)
  in
  let pass ~traced =
    let ops =
      List.concat_map
        (fun (name, path, _) ->
          let a_out, a = cli ~traced "analyze" [ path; "--format"; "json"; "--no-timings" ] name in
          let l_out, l = cli ~traced "lint" [ path; "--format"; "json"; "--fail-on"; "never" ] name in
          same_as_first outputs (name ^ " analyze") (parse_out "analyze" name a_out) "reachable methods";
          same_as_first outputs (name ^ " lint") (parse_out "lint" name l_out) "findings";
          [ a; l ])
        files
    in
    if not traced then calibration ();
    ops
  in
  (* The CLI's answers must equal the in-process ones on the same source. *)
  let in_process () =
    List.iter
      (fun (name, _, src) ->
        let p = compile_source name src in
        let e, m = solve C.Config.skipflow p in
        let findings = lint e p in
        verify name e;
        let cli_value key = Option.value ~default:(-1) (Hashtbl.find_opt outputs key) in
        expect (cli_value (name ^ " analyze") = m.C.Metrics.reachable_methods)
          "%s: CLI reports %d reachable methods, in-process %d" name
          (cli_value (name ^ " analyze")) m.C.Metrics.reachable_methods;
        expect (cli_value (name ^ " lint") = findings)
          "%s: CLI lint reports %d findings, in-process %d" name
          (cli_value (name ^ " lint")) findings;
        check_recorded ~seed:o.seed ~scale name "skipflow" m.C.Metrics.reachable_methods)
      files
  in
  let untraced = ref [] and traced = ref [] in
  measure_window ~seconds:o.seconds
    ~enough:(fun i -> i >= if o.traced then 2 * o.size.min_passes else o.size.min_passes)
    (fun i ->
      if is_traced_pass o i then
        with_tracing true (fun () ->
            span "pass" (fun () ->
                traced := pass ~traced:true :: !traced;
                ignore (span "cli.startup" (fun () -> run_capture o.skipflow [ "bench-list" ]));
                in_process ()))
      else untraced := with_tracing false (fun () -> pass ~traced:false) :: !untraced);
  if not o.traced then span "checks" in_process;
  let labels =
    List.concat_map
      (fun (name, _, _) ->
        let out key = Option.value ~default:0 (Hashtbl.find_opt outputs (name ^ " " ^ key)) in
        [ Printf.sprintf "%s analyze (%d methods)" name (out "analyze");
          Printf.sprintf "%s lint (%d findings)" name (out "lint") ])
      files
  in
  ( op_metrics ~labels ~setup ~passes:!untraced ~rss_kb:!max_rss (),
    if o.traced then
      [ overhead_of ~untraced:!untraced ~traced:!traced;
        (let v, _ = span_p50 "cli.startup" in ("cli.startup_ms", "ms", v, false));
        (let v, _ = span_p50 "cli.analyze" in ("cli.analyze_ms_p50", "ms", v, false));
        (let v, _ = span_p50 "cli.lint" in ("cli.lint_ms_p50", "ms", v, false)) ]
    else [] )

(* ----------------------------- serve-edits ---------------------------- *)

type daemon = { pid : int; to_d : out_channel; from_d : in_channel }

let start_daemon skipflow args ~log =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Unix.create_process skipflow (Array.of_list (skipflow :: "serve" :: args)) in_r out_w err
  in
  List.iter Unix.close [ in_r; out_w; err ];
  { pid; to_d = Unix.out_channel_of_descr in_w; from_d = Unix.in_channel_of_descr out_r }

let exchange d line =
  output_string d.to_d line;
  output_char d.to_d '\n';
  flush d.to_d;
  match input_line d.from_d with
  | resp -> resp
  | exception End_of_file -> die "the serve daemon closed its output (see its log)"

let next_id = ref 0

let request op fields =
  incr next_id;
  Json.to_compact_string
    (Json.Obj ((("op", Json.Str op) :: ("id", Json.Int !next_id) :: fields)))

(** Shut the daemon down; its exit code and peak RSS in KiB. *)
let stop_daemon d =
  ignore (exchange d (request "shutdown" []));
  close_out_noerr d.to_d;
  close_in_noerr d.from_d;
  wait4_rss d.pid

(** Where each unit method's first constant sits ([int a = x + N;] on the
    line after its header), by qualified name: the edit sites. *)
let constant_sites src =
  let sites = Hashtbl.create 512 in
  let body = "    int a = x + " in
  let rec go off cls = function
    | line :: (next :: _ as rest) ->
        let cls =
          if String.starts_with ~prefix:"class " line then
            match String.split_on_char ' ' line with _ :: c :: _ -> Some c | _ -> cls
          else cls
        in
        (match (cls, String.index_opt line '(', String.index_opt next ';') with
        | Some c, Some lp, Some semi
          when String.starts_with ~prefix:"  int " line
               && String.ends_with ~suffix:"(int x) {" line
               && String.starts_with ~prefix:body next ->
            let len = semi - String.length body in
            if int_of_string_opt (String.sub next (String.length body) len) <> None then
              Hashtbl.replace sites
                (c ^ "." ^ String.sub line 6 (lp - 6))
                (off + String.length line + 1 + String.length body, len)
        | _ -> ());
        go (off + String.length line + 1) cls rest
    | _ -> ()
  in
  go 0 None (String.split_on_char '\n' src);
  sites

let with_constant src (start, len) c =
  String.concat ""
    [ String.sub src 0 start; string_of_int c;
      String.sub src (start + len) (String.length src - start - len) ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type req = {
  line : string;
  kind : string;  (** "read", or the strategy the write must take *)
  check : Json.t -> string option;  (** why the response is wrong *)
}

let result_of j =
  match Json.member "ok" j with Some (Json.Bool true) -> Json.member "result" j | _ -> None

let responds f j =
  match result_of j with
  | None -> Some ("error response " ^ Json.to_compact_string j)
  | Some r -> f r

(** A write that must take [strategy] and land on [reach] methods
    ([`Exactly n], [`At_least n] or [`Any]). *)
let write line strategy reach =
  let check =
    responds (fun r ->
        let s = match Json.member "strategy" r with Some (Json.Str s) -> s | _ -> "?" in
        let n = Option.value ~default:(-1) (json_int [ "metrics"; "reachable_methods" ] r) in
        if s <> strategy then Some (Printf.sprintf "strategy %s, expected %s" s strategy)
        else
          match reach with
          | `Exactly e when n <> e -> Some (Printf.sprintf "%d reachable, expected %d" n e)
          | `At_least e when n < e -> Some (Printf.sprintf "%d reachable, expected >= %d" n e)
          | _ -> None)
  in
  { line; kind = strategy; check }

(* One episode: four blocks of writes in seeded order, each block
   returning the daemon to the base source and roots, and two reads of
   each kind spread over the gaps before the blocks (8 of 15 requests are
   reads).
   Fresh constants and a fresh extra root per episode keep every write off
   the memo except the reverts. *)
let episode rng ~src ~expected ~findings ~sites ~dead ~live ~next_root ~fresh =
  let source s = [ ("source", Json.Str s) ] in
  let roots rs = [ ("roots", Json.Arr (List.map (fun r -> Json.Str r) rs)) ] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let edited m = with_constant src (Hashtbl.find sites m) (fresh ()) in
  let back = write (request "edit" (source src)) "memo" (`Exactly expected) in
  let blocks =
    [| [ write (request "edit" (source src)) "resident" (`Exactly expected) ];
       [ write (request "edit" (source (edited (pick dead)))) "reuse" (`Exactly expected); back ];
       [ write (request "edit" (source (edited (pick live)))) "full" `Any;
         write (request "edit" (source src)) "memo" (`Exactly expected) ];
       [ write (request "analyze" (roots (serve_roots @ [ next_root () ]))) "redrain" (`At_least expected);
         write (request "analyze" (roots serve_roots)) "memo" (`Exactly expected) ] |]
  in
  let read kind =
    let line, check =
      match kind with
      | `Analyze ->
          ( request "analyze" [],
            responds (fun r ->
                match json_int [ "metrics"; "reachable_methods" ] r with
                | Some n when n = expected -> None
                | n -> Some (Printf.sprintf "analyze: %d reachable, expected %d" (Option.value ~default:(-1) n) expected)) )
      | `Lint ->
          ( request "lint" [],
            responds (fun r ->
                match Json.member "findings" r with
                | Some (Json.Arr l) when List.length l = findings -> None
                | _ -> Some (Printf.sprintf "lint: expected %d findings" findings)) )
      | `Profile -> (request "profile" [], responds (fun _ -> None))
      | `Health -> (request "health" [], responds (fun _ -> None))
    in
    { line; kind = "read"; check }
  in
  (* two reads of each kind, so every episode has the same composition *)
  let reads =
    shuffle rng
      [| `Analyze; `Analyze; `Lint; `Lint; `Profile; `Profile; `Health; `Health |]
  in
  let gaps = Array.make (Array.length blocks) [] in
  Array.iter
    (fun kind ->
      let g = Random.State.int rng (Array.length gaps) in
      gaps.(g) <- read kind :: gaps.(g))
    reads;
  List.concat
    (List.mapi (fun i block -> gaps.(i) @ block) (Array.to_list (shuffle rng blocks)))

(* In-process costs of the layers a serve request goes through, on the
   base program: frontend, engine, checks, verify, snapshot. *)
let serve_probe ~src ~lines ~snap =
  List.iter (fun l -> ignore (span "serve.parse" (fun () -> S.Protocol.parse_request l))) lines;
  let p = compile_source serve_program src in
  let e, m = solve C.Config.skipflow p in
  verify serve_program e;
  ignore (lint e p);
  let bytes = span "snapshot.encode" (fun () -> C.Engine.snapshot_bytes e) in
  note "snapshot.bytes" (float_of_int (String.length bytes));
  (match span "snapshot.decode" (fun () -> C.Engine.of_snapshot_bytes bytes) with
  | Ok _ -> ()
  | Error msg -> expect false "snapshot decode: %s" msg);
  (match span "snapshot.write" (fun () -> C.Engine.save_snapshot e ~path:snap) with
  | Ok () -> ()
  | Error err -> expect false "snapshot write: %s" (C.Snapshot.error_message err));
  let st =
    {
      S.Incremental.source = src;
      roots = serve_roots;
      engine = e;
      snapshot = bytes;
      metrics = m;
      reachable =
        List.map
          (fun (mt : Program.meth) -> Program.qualified_name p.p_prog mt.Program.m_id)
          (C.Engine.reachable_methods e);
      meth_hashes = S.Incremental.meth_fingerprints p.p_prog;
      hier_hash = S.Incremental.hierarchy_fingerprint p.p_prog;
      generation = 1;
    }
  in
  let frozen = span "snapshot.freeze" (fun () -> S.Incremental.freeze st) in
  match span "snapshot.thaw" (fun () -> S.Incremental.thaw frozen) with
  | Ok _ -> ()
  | Error msg -> expect false "thaw: %s" msg

(* One daemon with durable state (a snapshot after every mutation), one
   closed-loop client over pipes sending the seeded episode mix; latency
   runs from send to the response line.  The daemon always serves the
   catalog program: the seed picks the edits, constants, roots and order.
   A seeded program added to the spread of op_ms_p95 across seeds (see
   the README), and the other workloads already vary the programs. *)
let serve_workload o =
  let scale = o.size.serve_scale in
  let dir = Filename.concat o.out "work/serve-edits" in
  fresh_dir dir;
  let path = Filename.concat dir (serve_program ^ ".mj")
  and state = Filename.concat dir "state" in
  let start () =
    let src = span "gen.source" (fun () -> W.Gen.source (params ~scale ~seed:default_seed serve_program)) in
    write_file path src;
    rm_rf state;
    let d =
      start_daemon o.skipflow
        ([ path; "--state"; state ] @ List.concat_map (fun r -> [ "--root"; r ]) serve_roots)
        ~log:(Filename.concat dir "daemon.log")
    in
    let resp = exchange d (request "health" []) in
    expect (result_of (Json.of_string resp) <> None) "daemon start: %s" resp;
    (src, d)
  in
  let (src, d), setup =
    repeat_setup o.size.setups ~drop:(fun (_, d) -> ignore (stop_daemon d)) start
  in
  (* the reference fixed point, and the edit and root candidates on it *)
  let sites = constant_sites src in
  let expected, findings, dead, live, extra_roots =
    with_tracing false (fun () ->
        let p = compile_source serve_program src in
        let e, m = solve C.Config.skipflow p in
        let findings = lint e p in
        let dead = ref [] and live = ref [] and unreached = ref [] in
        Program.iter_meths p.p_prog (fun mt ->
            let q = Program.qualified_name p.p_prog mt.Program.m_id in
            let reached = C.Engine.is_reachable e mt.Program.m_id in
            if not reached then unreached := q :: !unreached;
            if Hashtbl.mem sites q then
              if reached then live := q :: !live else dead := q :: !dead);
        check_recorded ~seed:default_seed ~scale serve_program "skipflow" m.C.Metrics.reachable_methods;
        let sorted l = List.sort compare !l in
        (m.C.Metrics.reachable_methods, findings, sorted dead, sorted live, sorted unreached))
  in
  (* the memo holds 8 states; a root seen again within 8 episodes would
     hit it instead of re-draining *)
  if List.length dead = 0 || List.length live = 0 || List.length extra_roots < 16 then
    die "%s: too few edit sites or unreachable methods for the mix" serve_program;
  let rng = Random.State.make [| o.seed; 0x5e7e |] in
  let dead = Array.of_list dead and live = Array.of_list live in
  let roots_order = shuffle rng (Array.of_list extra_roots) in
  let root_i = ref 0 and constant = ref 100_000 in
  let next_root () =
    let r = roots_order.(!root_i mod Array.length roots_order) in
    incr root_i;
    r
  in
  let fresh () =
    constant := !constant + 1 + Random.State.int rng 7;
    !constant
  in
  let requests = ref 0 in
  let run_episode ~traced =
    let reqs =
      episode rng ~src ~expected ~findings ~sites ~dead ~live ~next_root ~fresh
    in
    (* a calibration between every two requests: with one on each side of
       the episode instead, the spread of pass_s across seeds was twice as
       large (0.070 against 0.034) *)
    let lat =
      List.map
        (fun r ->
          if not traced then calibration ();
          let resp, s = sample (fun () -> span ("serve." ^ r.kind) (fun () -> exchange d r.line)) in
          incr requests;
          (match Json.of_string resp with
          | exception Json.Parse_error msg -> expect false "%s: unreadable response (%s)" r.kind msg
          | j ->
              if result_of j = None then note "serve.errors" 1.;
              let why = r.check j in
              expect (why = None) "%s request: %s" r.kind (Option.value ~default:"" why));
          s)
        reqs
    in
    if not traced then calibration ();
    if traced then
      serve_probe ~src ~lines:(List.map (fun r -> r.line) reqs)
        ~snap:(Filename.concat dir "probe.snap");
    lat
  in
  let untraced = ref [] and traced = ref [] in
  measure_window ~seconds:o.seconds
    ~enough:(fun _ -> !requests >= o.size.min_requests && (not o.traced || !traced <> []))
    (fun i ->
      if is_traced_pass o i then
        traced := with_tracing true (fun () -> span "pass" (fun () -> run_episode ~traced:true)) :: !traced
      else untraced := with_tracing false (fun () -> run_episode ~traced:false) :: !untraced);
  let state_bytes =
    match Unix.stat (Filename.concat state "serve.snap") with
    | st -> float_of_int st.Unix.st_size
    | exception Unix.Unix_error _ -> 0.
  in
  let code, rss_kb = stop_daemon d in
  expect (code = 0) "daemon exit code %d" code;
  (* the daemon's final persisted state, restored in process, must be the
     fixed point a fresh solve reaches *)
  span "checks" (fun () ->
      let cfg =
        { S.Server.default_cfg with
          S.Server.sv_roots = serve_roots;
          sv_state_dir = Some state;
          sv_log = (fun msg -> expect false "restoring the daemon state: %s" msg) }
      in
      match S.Server.create ~resume:true cfg with
      | Error msg -> expect false "restoring the daemon state: %s" msg
      | Ok srv -> (
          match S.Server.state srv with
          | None -> expect false "the daemon left no resident state"
          | Some st -> (
              match
                Api.analyze ~source:(`Text st.S.Incremental.source)
                  ~roots:st.S.Incremental.roots ()
              with
              | Error e -> expect false "fresh solve: %s" (Api.error_message e)
              | Ok fresh ->
                  let same = S.Incremental.same_fixed_point st.S.Incremental.engine fresh.Api.engine in
                  expect (same = Ok ()) "final daemon state differs from a fresh solve: %s"
                    (match same with Error m -> m | Ok () -> ""))));
  let strategy_metrics =
    List.concat_map
      (fun s ->
        let v, n = span_p50 ("serve." ^ s) in
        [ (Printf.sprintf "serve.%s_ms_p50" s, "ms", (if n = 0 then 0. else v), false);
          (Printf.sprintf "serve.%s_n" s, "count", float_of_int n, false) ])
      [ "resident"; "memo"; "reuse"; "redrain"; "full" ]
  in
  ( op_metrics ~setup ~passes:!untraced ~rss_kb (),
    if o.traced then
      overhead_of ~untraced:!untraced ~traced:!traced
      :: (let v, _ = span_p50 "serve.read" in ("serve.read_ms_p50", "ms", v, false))
      :: ("serve.state_mb", "MB", state_bytes /. 1e6, false)
      :: strategy_metrics
    else [] )

(* --------------------------- one workload run ------------------------- *)

let run_one o =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  tracing := o.traced;
  let e2e, extra =
    match o.workload with
    | "solve-skipflow" -> solve_workload o ~config:C.Config.skipflow ~other:C.Config.pta
    | "solve-pta" -> solve_workload o ~config:C.Config.pta ~other:C.Config.skipflow
    | "cli-cold" -> cli_workload o
    | "serve-edits" -> serve_workload o
    | w -> die "unknown workload %s (%s)" w (String.concat ", " workloads)
  in
  tracing := false;
  Printf.eprintf "%s seed %d%s: %d ops and checks, %d failed\n" o.workload o.seed
    (if o.traced then " (traced)" else "")
    tally.attempted tally.failed;
  List.iter (fun p -> Printf.eprintf "  FAILED: %s\n" p) (List.rev tally.problems);
  let metrics =
    if not o.traced then e2e
    else begin
      let top_heap_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.
      in
      let layers = layer_values (("engine.top_heap_mb", "MB", top_heap_mb, true) :: extra) in
      print_span_table ();
      Printf.eprintf "\n  %-26s %14s\n" "per-layer metric" "value";
      List.iter
        (fun (n, u, v, _) -> Printf.eprintf "  %-26s %14.3f %s\n" n v u)
        layers;
      write_chrome (Filename.concat o.out (o.workload ^ ".trace.json"));
      List.filter_map (fun (n, u, v, r) -> if r then Some (n, u, v) else None) layers
    end
  in
  if not o.traced then print_endline (wall_prefix ^ metrics_object !raw_walls);
  print_endline (result_line metrics);
  exit (if tally.failed = 0 then 0 else 1)

(* ----------------------------- result JSON ---------------------------- *)

(** A JSON reader with numbers as floats (the repository's reader is
    integer-only), for result lines, run artifacts and BENCHMARK.json. *)
module Js = struct
  type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

  exception Bad of string

  let parse s =
    let n = String.length s and i = ref 0 in
    let bad what = raise (Bad (Printf.sprintf "%s at offset %d" what !i)) in
    let peek () = if !i < n then s.[!i] else '\000' in
    let rec ws () =
      if !i < n && String.contains " \t\r\n" s.[!i] then begin
        incr i;
        ws ()
      end
    in
    let lit w v =
      let l = String.length w in
      if !i + l <= n && String.sub s !i l = w then begin
        i := !i + l;
        v
      end
      else bad "bad literal"
    in
    let str () =
      incr i;
      let b = Buffer.create 16 in
      let rec go () =
        if !i >= n then bad "unterminated string";
        let c = s.[!i] in
        incr i;
        match c with
        | '"' -> Buffer.contents b
        | '\\' ->
            if !i >= n then bad "bad escape";
            let e = s.[!i] in
            incr i;
            (match e with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'u' when !i + 4 <= n ->
                Buffer.add_char b
                  (Char.chr (int_of_string ("0x" ^ String.sub s !i 4) land 0xff));
                i := !i + 4
            | c -> Buffer.add_char b c);
            go ()
        | c ->
            Buffer.add_char b c;
            go ()
      in
      go ()
    in
    let rec value () =
      ws ();
      match peek () with
      | '{' ->
          incr i;
          Obj
            (seq '}' (fun () ->
                 ws ();
                 if peek () <> '"' then bad "expected a key";
                 let k = str () in
                 ws ();
                 if peek () <> ':' then bad "expected ':'";
                 incr i;
                 (k, value ())))
      | '[' ->
          incr i;
          Arr (seq ']' value)
      | '"' -> Str (str ())
      | 't' -> lit "true" (Bool true)
      | 'f' -> lit "false" (Bool false)
      | 'n' -> lit "null" Null
      | _ -> (
          let start = !i in
          while !i < n && String.contains "+-0123456789.eE" s.[!i] do
            incr i
          done;
          match float_of_string_opt (String.sub s start (!i - start)) with
          | Some f when !i > start -> Num f
          | _ -> bad "unexpected character")
    (* comma-separated [item]s up to [close], the opening bracket read *)
    and seq : 'a. char -> (unit -> 'a) -> 'a list =
     fun close item ->
      ws ();
      if peek () = close then begin
        incr i;
        []
      end
      else
        let rec go acc =
          let x = item () in
          ws ();
          match peek () with
          | ',' ->
              incr i;
              go (x :: acc)
          | c when c = close ->
              incr i;
              List.rev (x :: acc)
          | _ -> bad (Printf.sprintf "expected ',' or '%c'" close)
        in
        go []
    in
    let v = value () in
    ws ();
    if !i <> n then bad "trailing characters";
    v

  let member k = function Obj l -> List.assoc_opt k l | _ -> None
  let num = function Some (Num f) -> Some f | _ -> None
  let str = function Some (Str s) -> Some s | _ -> None
end

(** [(name, unit, better, bound)] of the end-to-end metrics, and the
    per-layer metric names, of a BENCHMARK.json. *)
let read_benchmark path =
  let j =
    try Js.parse (read_file path)
    with Js.Bad msg -> die "%s: %s" path msg
  in
  let entries key =
    match Js.member key j with Some (Js.Arr l) -> l | _ -> die "%s: no %s list" path key
  in
  let field e k = Option.value ~default:"" (Js.str (Js.member k e)) in
  ( List.map
      (fun e ->
        ( field e "name",
          field e "unit",
          field e "better",
          Option.value ~default:0. (Js.num (Js.member "bound" e)) ))
      (entries "end_to_end"),
    List.map (fun e -> field e "name") (entries "per_layer") )

type run_record = {
  r_workload : string;
  r_seed : int;
  r_trace : bool;
  r_result : Js.t;
  r_wall : Js.t;  (** the time metrics unscaled, an object like [metrics] *)
}

let load_results path =
  let file =
    if Sys.file_exists path && Sys.is_directory path then Filename.concat path "results.jsonl"
    else path
  in
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        match Js.parse line with
        | exception Js.Bad msg -> die "%s: %s" file msg
        | j ->
            Some
              {
                r_workload = Option.value ~default:"" (Js.str (Js.member "workload" j));
                r_seed = int_of_float (Option.value ~default:0. (Js.num (Js.member "seed" j)));
                r_trace = Js.member "trace" j = Some (Js.Bool true);
                r_result = Option.value ~default:Js.Null (Js.member "result" j);
                r_wall = Option.value ~default:Js.Null (Js.member "wall" j);
              })
    (String.split_on_char '\n' (read_file file))

let value_in metrics name =
  Option.bind (Js.member name metrics) (fun v -> Js.num (Js.member "value" v))

let metric_value r name = Option.bind (Js.member "metrics" r.r_result) (fun m -> value_in m name)

let correct r = Js.member "correct" r.r_result = Some (Js.Bool true)

(* ------------------------------- flags -------------------------------- *)

(** Parse [args]: [specs] maps each flag to [`Value f] (called with the
    next argument) or [`Switch f]; anything else goes to [positional]. *)
let parse_flags ?(positional = fun a -> die "unknown argument %s" a) specs args =
  let rec go = function
    | [] -> ()
    | a :: rest -> (
        match (List.assoc_opt a specs, rest) with
        | Some (`Switch f), _ ->
            f ();
            go rest
        | Some (`Value f), v :: rest ->
            f v;
            go rest
        | Some (`Value _), [] -> die "%s needs a value" a
        | None, _ ->
            positional a;
            go rest)
  in
  go args

let number of_string flag v =
  match of_string v with Some n -> n | None -> die "%s: not a number: %s" flag v

(** The untraced runs' values of one end-to-end metric on one workload,
    as reported or ([~wall:true]) in raw wall-clock time. *)
let values ?(wall = false) records w name =
  List.filter_map
    (fun r ->
      if r.r_workload <> w || r.r_trace then None
      else if wall then value_in r.r_wall name
      else metric_value r name)
    records

(* --------------------------------- run -------------------------------- *)

let default_skipflow () =
  Filename.concat (Filename.dirname (self_exe ())) "../bin/skipflow.exe"

let run_verb args =
  let chosen = ref workloads and seed = ref default_seed and seconds = ref default_seconds in
  let runs = ref 2 and smoke = ref false and out = ref "_build/perfbench" in
  let skipflow = ref (default_skipflow ()) and benchmark = ref "BENCHMARK.json" in
  parse_flags
    [ ("--workloads", `Value (fun v -> chosen := String.split_on_char ',' v));
      ("--seed", `Value (fun v -> seed := number int_of_string_opt "--seed" v));
      ("--seconds", `Value (fun v -> seconds := number float_of_string_opt "--seconds" v));
      ("--runs", `Value (fun v -> runs := max 1 (number int_of_string_opt "--runs" v)));
      ("--smoke", `Switch (fun () -> smoke := true));
      ("--out", `Value (fun v -> out := v));
      ("--skipflow", `Value (fun v -> skipflow := v));
      ("--benchmark", `Value (fun v -> benchmark := v)) ]
    args;
  List.iter
    (fun w -> if not (List.mem w workloads) then die "run: unknown workload %s" w)
    !chosen;
  if !smoke then begin
    runs := 1;
    seconds := 0.
  end;
  io_ok !out (C.Io.mkdir_p !out);
  let results = Filename.concat !out "results.jsonl" in
  let lines = ref [] and broken = ref [] in
  List.iter
    (fun w ->
      let child seed traced =
        let args =
          [ "--workload"; w; "--seed"; string_of_int seed; "--seconds";
            Printf.sprintf "%g" !seconds; "--trace"; (if traced then "1" else "0");
            "--out"; !out; "--skipflow"; !skipflow ]
          @ if !smoke then [ "--smoke" ] else []
        in
        (* each run's report goes to its log; the smoke run shows it only
           when the run fails *)
        let log =
          Filename.concat !out
            (Printf.sprintf "%s-seed%d%s.log" w seed (if traced then "-traced" else ""))
        in
        let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
        let code, stdout, _ =
          Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
              run_capture ~stderr:fd (self_exe ()) args)
        in
        if code <> 0 || not !smoke then print_string (read_file log);
        match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' stdout)) with
        | last :: before when code = 0 || code = 1 ->
            let wall =
              match before with
              | l :: _ when String.starts_with ~prefix:wall_prefix l ->
                  let n = String.length wall_prefix in
                  Printf.sprintf ", \"wall\": %s" (String.sub l n (String.length l - n))
              | _ -> ""
            in
            lines :=
              Printf.sprintf "{\"workload\": \"%s\", \"seed\": %d, \"trace\": %b%s, \"result\": %s}" w
                seed traced wall last
              :: !lines
        | _ -> broken := Printf.sprintf "%s seed %d: exit code %d, no result" w seed code :: !broken
      in
      for k = 0 to !runs - 1 do
        child (!seed + k) false
      done;
      child !seed true)
    !chosen;
  write_file results (String.concat "\n" (List.rev !lines) ^ "\n");
  let records = load_results results in
  if not !smoke then begin
  Printf.printf "\n%-15s %-16s %12s %12s %12s %6s  %s\n" "workload" "metric" "median" "q1"
    "q3" "runs" "unit";
  List.iter
    (fun w ->
      List.iter
        (fun (name, unit_) ->
          let vs = values records w name in
          let q1, q3 = quartiles vs in
          Printf.printf "%-15s %-16s %12.3f %12.3f %12.3f %6d  %s\n" w name (median vs) q1 q3
            (List.length vs) unit_)
        end_to_end)
    !chosen
  end;
  let incorrect = List.filter (fun r -> not (correct r)) records in
  List.iter
    (fun r -> Printf.printf "FAILED: %s seed %d%s\n" r.r_workload r.r_seed (if r.r_trace then " (traced)" else ""))
    incorrect;
  List.iter (fun b -> Printf.printf "FAILED: %s\n" b) !broken;
  (* the result lines must carry exactly the metrics BENCHMARK.json names *)
  let mismatched =
    if not (Sys.file_exists !benchmark) then []
    else
      let e2e, layers = read_benchmark !benchmark in
      List.filter_map
        (fun r ->
          let want = if r.r_trace then layers else List.map (fun (n, _, _, _) -> n) e2e in
          let have =
            match Js.member "metrics" r.r_result with
            | Some (Js.Obj l) -> List.map fst l
            | _ -> []
          in
          if List.sort compare want = List.sort compare have then None
          else Some (Printf.sprintf "%s: result metrics differ from %s" r.r_workload !benchmark))
        records
  in
  List.iter (fun m -> Printf.printf "FAILED: %s\n" m) mismatched;
  Printf.printf "wrote %s (%d runs)\n" results (List.length records);
  if incorrect <> [] || !broken <> [] || mismatched <> [] then exit 1

(* ------------------------------- compare ------------------------------ *)

let compare_verb args =
  let benchmark = ref "BENCHMARK.json" and dirs = ref [] in
  parse_flags
    ~positional:(fun a -> dirs := !dirs @ [ a ])
    [ ("--benchmark", `Value (fun v -> benchmark := v)) ]
    args;
  let old_dir, new_dir =
    match !dirs with
    | [ a; b ] -> (a, b)
    | _ -> die "usage: compare OLD NEW [--benchmark FILE]"
  in
  let e2e, _ = read_benchmark !benchmark in
  let olds = load_results old_dir and news = load_results new_dir in
  let ws =
    List.filter
      (fun w -> List.exists (fun r -> r.r_workload = w) news)
      (List.sort_uniq compare (List.map (fun r -> r.r_workload) olds))
  in
  let regressed = ref 0 in
  (* "wall" is the change of the raw wall-clock medians, which host-speed
     scaling leaves out: a build-wide change moves it and not "delta" *)
  Printf.printf "%-15s %-12s %-28s %-28s %8s %8s  %s\n" "workload" "metric" "old median [q1 q3]"
    "new median [q1 q3]" "delta" "wall" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (name, _unit, better, bound) ->
          let ov = values olds w name and nv = values news w name in
          if ov = [] || nv = [] then Printf.printf "%-15s %-12s (missing)\n" w name
          else begin
            let om = median ov and nm = median nv in
            let (oq1, oq3), (nq1, nq3) = (quartiles ov, quartiles nv) in
            let spread = Float.max ((oq3 -. oq1) /. om) ((nq3 -. nq1) /. nm) in
            let lower = better = "lower" in
            let worse = if lower then nm > om *. (1. +. bound) else nm < om *. (1. -. bound) in
            let all_better =
              if lower then List.fold_left Float.max neg_infinity nv < List.fold_left Float.min infinity ov
              else List.fold_left Float.min infinity nv > List.fold_left Float.max neg_infinity ov
            in
            let verdict =
              if spread > bound && not all_better then "unresolved"
              else if worse then begin
                incr regressed;
                "regressed"
              end
              else "ok"
            in
            let cell m q1 q3 = Printf.sprintf "%.4g [%.4g %.4g]" m q1 q3 in
            let wall =
              match (values ~wall:true olds w name, values ~wall:true news w name) with
              | [], _ | _, [] -> "-"
              | ow, nw -> Printf.sprintf "%+.1f%%" (100. *. ((median nw /. median ow) -. 1.))
            in
            Printf.printf "%-15s %-12s %-28s %-28s %+7.1f%% %8s  %s (bound %g)\n" w name
              (cell om oq1 oq3) (cell nm nq1 nq3)
              (100. *. ((nm /. om) -. 1.))
              wall verdict bound
          end)
        e2e)
    ws;
  let incorrect = List.filter (fun r -> not (correct r)) (olds @ news) in
  List.iter
    (fun r -> Printf.printf "FAILED run: %s seed %d\n" r.r_workload r.r_seed)
    incorrect;
  if !regressed > 0 || incorrect <> [] then exit 1

(* -------------------------------- main -------------------------------- *)

let single args =
  let workload = ref "" and seed = ref default_seed and seconds = ref default_seconds in
  let traced = ref false and smoke = ref false and out = ref "_build/perfbench" in
  let skipflow = ref (default_skipflow ()) in
  parse_flags
    [ ("--workload", `Value (fun v -> workload := v));
      ("--seed", `Value (fun v -> seed := number int_of_string_opt "--seed" v));
      ("--seconds", `Value (fun v -> seconds := number float_of_string_opt "--seconds" v));
      ( "--trace",
        `Value
          (function
          | "0" -> traced := false
          | "1" -> traced := true
          | v -> die "--trace takes 0 or 1, not %s" v) );
      ("--smoke", `Switch (fun () -> smoke := true));
      ("--out", `Value (fun v -> out := v));
      ("--skipflow", `Value (fun v -> skipflow := v)) ]
    args;
  if not (Sys.file_exists !skipflow) then die "no skipflow CLI at %s" !skipflow;
  io_ok !out (C.Io.mkdir_p !out);
  run_one
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      traced = !traced;
      size = (if !smoke then smoke_size else full_size);
      out = !out;
      skipflow = !skipflow;
    }

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run_verb args
  | _ :: "compare" :: args -> compare_verb args
  | _ :: "probe-solve" :: args -> probe_solve args
  | _ :: args -> single args
  | [] -> die "no arguments"
