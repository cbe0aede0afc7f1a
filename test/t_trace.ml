(* The observability layer and the library facade:

   - counters are monotone (negative deltas rejected), a solve records
     the emits its worklist collapsed, and the engine's stats snapshot
     reads its counters;
   - phase spans nest, accumulate on re-entry, and children sum to no
     more than the enclosing span's wall time; a solve's phase records
     the words it promoted, no more than it allocated;
   - the Chrome trace is one valid schema-versioned document that the
     integer-only JSON parser reads back with every buffered event and
     every phase in it;
   - Skipflow_api.analyze returns typed errors — missing file, parse
     error, bad root — with no exception crossing the boundary. *)

module Api = Skipflow_api
module C = Skipflow_core
module K = Skipflow_checks
module W = Skipflow_workloads

let workload () =
  W.Gen.compile { W.Gen.default_params with live_units = 10; dead_units = 2 }

let run_with_trace prog main =
  let trace = C.Trace.create ~timers:true ~events:true () in
  C.Analysis.run ~trace prog ~roots:[ main ]

let counter_value trace name =
  C.Trace.value (C.Trace.counter trace name)

(* ----- counters ----- *)

let test_counter_monotone () =
  let tr = C.Trace.create () in
  let c = C.Trace.counter tr "x" in
  C.Trace.incr c;
  C.Trace.add c 4;
  C.Trace.record_max c 3 (* below current: no-op *);
  Alcotest.(check int) "incr + add accumulate" 5 (C.Trace.value c);
  C.Trace.record_max c 9;
  Alcotest.(check int) "record_max raises" 9 (C.Trace.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Trace.add: counters are monotonic (negative delta)")
    (fun () -> C.Trace.add c (-1));
  Alcotest.(check bool) "find-or-create returns the same box" true
    (C.Trace.counter tr "x" == c)

let test_stats_mirror_counters () =
  let prog, main = workload () in
  let d = run_with_trace prog main in
  let s = C.Engine.stats d.C.Analysis.engine in
  Alcotest.(check bool) "collapsed emits recorded" true (C.Engine.dedup_hits s > 0);
  List.iter
    (fun (name, v) ->
      Alcotest.(check int) ("stats mirror " ^ name) (counter_value d.C.Analysis.trace name) v)
    [ ("engine.tasks_processed", s.C.Engine.tasks_processed);
      ("engine.input_tasks", s.C.Engine.input_tasks);
      ("engine.enable_tasks", s.C.Engine.enable_tasks);
      ("engine.notify_tasks", s.C.Engine.notify_tasks);
      ("engine.dedup_input", s.C.Engine.dedup_input);
      ("engine.dedup_enable", s.C.Engine.dedup_enable);
      ("engine.dedup_notify", s.C.Engine.dedup_notify);
      ("engine.use_edges", s.C.Engine.use_edges);
      ("engine.links", s.C.Engine.links);
      ("engine.live_flows", s.C.Engine.live_flows) ]

(* ----- phases ----- *)

let test_phase_nesting () =
  let tr = C.Trace.create ~timers:true () in
  let busy () = ignore (Sys.opaque_identity (Array.init 2000 (fun i -> i * i))) in
  C.Trace.with_phase tr "outer" (fun () ->
      C.Trace.with_phase tr "child_a" busy;
      C.Trace.with_phase tr "child_b" busy;
      C.Trace.with_phase tr "child_a" busy);
  let phases = C.Trace.phases tr in
  let find name =
    match List.find_opt (fun p -> p.C.Trace.ph_name = name) phases with
    | Some p -> p
    | None -> Alcotest.failf "phase %s not recorded" name
  in
  let outer = find "outer" and a = find "child_a" and b = find "child_b" in
  Alcotest.(check int) "outer at depth 0" 0 outer.C.Trace.ph_depth;
  Alcotest.(check int) "children at depth 1" 1 a.C.Trace.ph_depth;
  Alcotest.(check int) "re-entry accumulates into one record" 2 a.C.Trace.ph_count;
  Alcotest.(check bool) "children sum <= outer wall" true
    (a.C.Trace.ph_wall_us + b.C.Trace.ph_wall_us <= outer.C.Trace.ph_wall_us)

let test_phases_timed_off () =
  let tr = C.Trace.create () in
  C.Trace.with_phase tr "p" (fun () -> ());
  Alcotest.(check (list reject)) "no phases recorded when timers off" []
    (List.map (fun _ -> ()) (C.Trace.phases tr))

let test_analysis_phases () =
  let prog, main = workload () in
  let s = run_with_trace prog main in
  let names = List.map (fun p -> p.C.Trace.ph_name) (C.Trace.phases s.C.Analysis.trace) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " phase recorded") true (List.mem n names))
    [ "roots"; "solve"; "metrics" ]

(* a solve promotes its graph: the solve phase's promoted words are
   positive and bounded by what it allocated.  Promotion happens only at
   a minor collection, so the solve must allocate several minor heaps'
   worth (about 1.1 Mwords here, against the default 256 kwords). *)
let test_phase_gc_words () =
  let prog, main =
    W.Gen.compile { W.Gen.default_params with live_units = 30; dead_units = 2 }
  in
  let s = run_with_trace prog main in
  match
    List.find_opt
      (fun p -> String.equal p.C.Trace.ph_name "solve")
      (C.Trace.phases s.C.Analysis.trace)
  with
  | None -> Alcotest.fail "no solve phase"
  | Some p ->
      Alcotest.(check bool) "promoted words > 0" true (p.C.Trace.ph_promoted_words > 0);
      Alcotest.(check bool) "minor words >= promoted words" true
        (p.C.Trace.ph_minor_words >= p.C.Trace.ph_promoted_words)

(* ----- events ----- *)

let test_event_cap () =
  let tr = C.Trace.create ~events:true ~max_events:3 () in
  for i = 1 to 5 do
    C.Trace.event tr ~kind:"k" ~arg:i ()
  done;
  Alcotest.(check int) "buffer capped" 3 (C.Trace.event_count tr);
  Alcotest.(check int) "overflow counted" 2 (C.Trace.dropped_events tr);
  Alcotest.(check int) "by_kind sees the buffered ones" 3
    (List.assoc "k" (C.Trace.by_kind tr))

(* ----- serialization ----- *)

let test_chrome_valid () =
  let prog, main = workload () in
  let s = run_with_trace prog main in
  let trace = s.C.Analysis.trace in
  let doc = K.Json.of_string (C.Trace.chrome_string trace) in
  (match K.Json.check_schema_version doc with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  match K.Json.member "traceEvents" doc with
  | Some (K.Json.Arr evs) ->
      Alcotest.(check bool) "has trace events" true (evs <> []);
      let phs =
        List.map
          (fun ev ->
            match K.Json.member "ph" ev with
            | Some (K.Json.Str ("X" | "i" as ph)) -> ph
            | _ -> Alcotest.fail "trace event is not a complete span or instant")
          evs
      in
      let count ph = List.length (List.filter (String.equal ph) phs) in
      (* every buffered event and every phase survives serialization *)
      Alcotest.(check int) "one instant per buffered event"
        (C.Trace.event_count trace) (count "i");
      Alcotest.(check int) "one span per phase"
        (List.length (C.Trace.phases trace))
        (count "X")
  | _ -> Alcotest.fail "missing traceEvents array"

let test_schema_rejection () =
  let bad = K.Json.Obj [ ("schema_version", K.Json.Int 99) ] in
  (match K.Json.check_schema_version bad with
  | Ok _ -> Alcotest.fail "version 99 must be rejected"
  | Error _ -> ());
  match K.Json.check_schema_version (K.Json.Obj []) with
  | Ok _ -> Alcotest.fail "missing version must be rejected"
  | Error _ -> ()

(* ----- the facade's error contract ----- *)

let test_api_errors () =
  let input_error r =
    match r with
    | Ok _ -> Alcotest.fail "expected an error"
    | Error e ->
        Alcotest.(check int) "maps to input-error exit code" 2
          (Api.exit_code_of_error e);
        e
  in
  (match
     input_error (Api.analyze ~source:(`File "/nonexistent/x.mj") ~roots:[] ())
   with
  | Api.Io_error _ -> ()
  | e -> Alcotest.failf "expected Io_error, got: %s" (Api.error_message e));
  (match
     input_error (Api.analyze ~source:(`Text "class A { int f( }") ~roots:[] ())
   with
  | Api.Compile_error { diags; _ } ->
      Alcotest.(check bool) "diagnostics accumulated" true (diags <> [])
  | e -> Alcotest.failf "expected Compile_error, got: %s" (Api.error_message e));
  let ok_src = "class Main { static void main() { } }" in
  (match
     input_error (Api.analyze ~source:(`Text ok_src) ~roots:[ "Nope.main" ] ())
   with
  | Api.Unknown_root _ -> ()
  | e -> Alcotest.failf "expected Unknown_root, got: %s" (Api.error_message e));
  (match
     input_error
       (Api.analyze ~source:(`Text "class A { void f() { } }") ~roots:[] ())
   with
  | Api.No_main -> ()
  | e -> Alcotest.failf "expected No_main, got: %s" (Api.error_message e));
  match Api.analyze ~source:(`Text ok_src) ~roots:[] () with
  | Ok s ->
      Alcotest.(check int) "trivial program reaches main" 1
        (List.length s.Api.reachable)
  | Error e -> Alcotest.failf "valid program failed: %s" (Api.error_message e)

let suite =
  ( "trace",
    [
      Alcotest.test_case "counters monotone" `Quick test_counter_monotone;
      Alcotest.test_case "the stats snapshot mirrors counters" `Quick
        test_stats_mirror_counters;
      Alcotest.test_case "phase spans nest and accumulate" `Quick test_phase_nesting;
      Alcotest.test_case "timers off records nothing" `Quick test_phases_timed_off;
      Alcotest.test_case "analysis records its phases" `Quick test_analysis_phases;
      Alcotest.test_case "the solve phase records its GC words" `Quick
        test_phase_gc_words;
      Alcotest.test_case "event buffer cap" `Quick test_event_cap;
      Alcotest.test_case "chrome trace is valid and versioned" `Quick
        test_chrome_valid;
      Alcotest.test_case "unknown schema versions rejected" `Quick
        test_schema_rejection;
      Alcotest.test_case "facade returns typed errors" `Quick test_api_errors;
    ] )
