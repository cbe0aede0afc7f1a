(* The mega-flow overshoot regression: a single drained invoke task can
   resolve many callees, and without the in-task probe (a
   [Budget.check] after every interprocedural link, counting the task's
   links as work) the engine would only notice a tripped cap at the next
   task boundary — after building every callee's PVPG.  These tests pin
   the overshoot bound: the flow count recorded at trip time stays
   within one callee's worth of flows of the cap, even when one call
   site fans out to dozens of targets.  The last two pin what a budget
   counts: a resumed run's task cap caps that run's own tasks, and an
   engine keeps the cap that tripped first. *)

module C = Skipflow_core
module F = Skipflow_frontend
module W = Skipflow_workloads
module I = Skipflow_serve.Incremental

let n_subclasses = 40

(* One base class, [n_subclasses] overriders, and a single virtual call
   site whose receiver phi merges every allocation — the worst case for
   in-task fan-out: one drained invoke task links all 40 callees. *)
let megacall_source () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "class A { int m() { return 0; } }\n";
  for i = 1 to n_subclasses do
    Buffer.add_string b
      (Printf.sprintf "class C%d extends A { int m() { return %d; } }\n" i i)
  done;
  Buffer.add_string b "class Main {\n  static void main() {\n";
  Buffer.add_string b "    int i = 0;\n    A a = new A();\n";
  for i = 1 to n_subclasses do
    Buffer.add_string b
      (Printf.sprintf "    if (i < %d) { a = new C%d(); }\n" i i)
  done;
  Buffer.add_string b "    int r = a.m();\n  }\n}\n";
  Buffer.contents b

let compile () =
  let prog = F.Frontend.compile (megacall_source ()) in
  (prog, Option.get (F.Frontend.main_of prog))

let run ?budget prog main = C.Analysis.run ?budget prog ~roots:[ main ]

let stats (r : C.Analysis.result) = C.Engine.stats r.C.Analysis.engine

(* The slack allowed past a cap: the flows one [link_callee] creates —
   the largest single callee graph plus the handful of linking flows on
   the invoke side. *)
let max_method_flows (r : C.Analysis.result) =
  List.fold_left
    (fun acc (g : C.Graph.method_graph) ->
      max acc (C.Graph.flow_count g))
    0
    (C.Engine.graphs r.C.Analysis.engine)

let test_flow_overshoot_bounded () =
  let prog, main = compile () in
  let straight = run prog main in
  let total = (stats straight).C.Engine.live_flows in
  let per_method = max_method_flows straight in
  (* a cap that trips mid-fan-out: past the root graphs, well short of
     the total *)
  let cap = (total / 2) + 1 in
  Alcotest.(check bool) "cap below the full flow count" true (cap < total);
  let degraded = run ~budget:(C.Budget.make ~max_flows:cap ()) prog main in
  let s = stats degraded in
  Alcotest.(check bool) "run degraded" true s.C.Engine.degraded;
  (match s.C.Engine.first_trip with
  | Some C.Budget.Flows -> ()
  | Some t -> Alcotest.failf "tripped on %s, not flows" (C.Budget.trip_name t)
  | None -> Alcotest.fail "no trip recorded");
  if s.C.Engine.trip_flows > cap + per_method + 8 then
    Alcotest.failf
      "flow overshoot unbounded: %d live flows at trip, cap %d, largest \
       method %d flows"
      s.C.Engine.trip_flows cap per_method;
  Alcotest.(check bool) "trip actually exceeded the cap" true
    (s.C.Engine.trip_flows >= cap)

let test_task_overshoot_bounded () =
  let prog, main = compile () in
  let cap = 30 in
  let degraded = run ~budget:(C.Budget.make ~max_tasks:cap ()) prog main in
  let s = stats degraded in
  Alcotest.(check bool) "run degraded" true s.C.Engine.degraded;
  (* the probe counts in-task links toward the task cap, so the drained
     task count at trip can never exceed it *)
  if s.C.Engine.trip_tasks > cap then
    Alcotest.failf "task overshoot: %d tasks drained at trip, cap %d"
      s.C.Engine.trip_tasks cap

(* Regression: the in-task probe must charge only the links made inside
   the current task toward [max_tasks], not the run-cumulative link
   counter.  A discovery chain — each callee's return value is the next
   call's receiver — keeps linking interleaved with propagation to the
   very end of the solve, so the final links probe with nearly the full
   task count *and* the full link total behind them.  With cumulative
   accounting a cap just past the straight-run task count trips there;
   with delta accounting each of those probes charges a single link and
   the run completes untripped. *)
let chain_length = 60

let chain_source () =
  let b = Buffer.create 4096 in
  for i = 1 to chain_length do
    Buffer.add_string b
      (Printf.sprintf "class C%d { C%d next() { return new C%d(); } }\n" i
         (i + 1) (i + 1))
  done;
  Buffer.add_string b (Printf.sprintf "class C%d { }\n" (chain_length + 1));
  Buffer.add_string b "class Main {\n  static void main() {\n";
  Buffer.add_string b "    C1 v1 = new C1();\n";
  for i = 1 to chain_length do
    Buffer.add_string b
      (Printf.sprintf "    C%d v%d = v%d.next();\n" (i + 1) (i + 1) i)
  done;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

let test_task_cap_ignores_cumulative_links () =
  let prog = F.Frontend.compile (chain_source ()) in
  let main = Option.get (F.Frontend.main_of prog) in
  let straight = run prog main in
  let s = stats straight in
  Alcotest.(check bool) "chain is link-heavy" true
    (s.C.Engine.links >= chain_length);
  (* small slack past the exact task count, well below the link total:
     cumulative accounting would need ~links worth of headroom *)
  let cap = s.C.Engine.tasks_processed + 4 in
  let capped = run ~budget:(C.Budget.make ~max_tasks:cap ()) prog main in
  Alcotest.(check bool) "no trip at cap = straight tasks + slack" false
    (stats capped).C.Engine.degraded

(* Degradation stays sound under the mega-call: the widened run certifies
   and reaches at least the precise reachable set. *)
let test_megacall_degradation_sound () =
  let prog, main = compile () in
  let precise = run prog main in
  let degraded = run ~budget:(C.Budget.make ~max_flows:60 ()) prog main in
  (match C.Verify.run degraded.C.Analysis.engine with
  | [] -> ()
  | vs -> Alcotest.failf "degraded mega-call fails certification: %s" (List.hd vs));
  Alcotest.(check bool) "reachable superset" true
    (C.Engine.reachable_count degraded.C.Analysis.engine
    >= C.Engine.reachable_count precise.C.Analysis.engine)

(* Pausing (instead of degrading) on the same cap must not widen: the
   paused engine is mid-solve, and resuming it unlimited lands on the
   precise fixed point with the precise reachable count. *)
let test_megacall_pause_stays_precise () =
  let prog, main = compile () in
  let precise = run prog main in
  let paused =
    run ~budget:(C.Budget.make ~max_tasks:30 ~on_trip:`Pause ()) prog main
  in
  match paused.C.Analysis.outcome with
  | C.Engine.Completed -> Alcotest.fail "mega-call finished under 30 tasks"
  | C.Engine.Paused trip -> (
      Alcotest.(check bool) "the task cap paused it" true (trip = C.Budget.Tasks);
      let bytes = C.Engine.snapshot_bytes paused.C.Analysis.engine in
      match C.Engine.of_snapshot_bytes bytes with
      | Error msg -> Alcotest.failf "resume: %s" msg
      | Ok engine ->
          let finished = C.Analysis.rerun engine in
          Alcotest.(check bool) "not degraded" false
            (C.Engine.is_degraded finished.C.Analysis.engine);
          Alcotest.(check int) "precise reachable count"
            (C.Engine.reachable_count precise.C.Analysis.engine)
            (C.Engine.reachable_count finished.C.Analysis.engine))

(* Resuming under the cap that paused a solve makes progress: the cap
   counts the tasks the resumed run drains, not the engine's lifetime
   total, so every resume that pauses again has drained a full cap, and
   the chain of resumes lands on the straight fixed point. *)
let test_resume_cap_counts_own_tasks () =
  let prog, main =
    W.Gen.compile { W.Gen.default_params with W.Gen.live_units = 4; dead_units = 2 }
  in
  let straight = run prog main in
  let cap = 200 in
  let budget = C.Budget.make ~max_tasks:cap ~on_trip:`Pause () in
  (* each resume drains at least [cap] tasks, so this many always do *)
  let max_resumes = ((stats straight).C.Engine.tasks_processed / cap) + 2 in
  let rec resume k (r : C.Analysis.result) =
    match r.C.Analysis.outcome with
    | C.Engine.Completed -> r
    | C.Engine.Paused _ -> (
        if k > max_resumes then
          Alcotest.failf "still paused after %d resumes" max_resumes;
        match C.Engine.of_snapshot_bytes (C.Engine.snapshot_bytes r.C.Analysis.engine) with
        | Error msg -> Alcotest.failf "resume %d: %s" k msg
        | Ok engine ->
            let before = (C.Engine.stats engine).C.Engine.tasks_processed in
            let next = C.Analysis.rerun ~budget engine in
            let drained = (stats next).C.Engine.tasks_processed - before in
            (match next.C.Analysis.outcome with
            | C.Engine.Paused _ when drained < cap ->
                Alcotest.failf "resume %d drained %d tasks under a %d-task cap" k
                  drained cap
            | _ -> ());
            resume (k + 1) next)
  in
  let first = run ~budget prog main in
  (match first.C.Analysis.outcome with
  | C.Engine.Paused _ -> ()
  | C.Engine.Completed -> Alcotest.failf "the program finished under %d tasks" cap);
  let final = resume 1 first in
  match I.same_fixed_point final.C.Analysis.engine straight.C.Analysis.engine with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "the resumed chain diverged: %s" msg

(* [first_trip] is the cap that tripped first over the engine's life: a
   solve paused on its task cap and degraded on a flow cap when resumed
   still names the task cap. *)
let test_first_trip_kept () =
  let prog, main = compile () in
  let paused =
    run ~budget:(C.Budget.make ~max_tasks:50 ~on_trip:`Pause ()) prog main
  in
  (match paused.C.Analysis.outcome with
  | C.Engine.Paused C.Budget.Tasks -> ()
  | _ -> Alcotest.fail "the mega-call did not pause on its task cap");
  match C.Engine.of_snapshot_bytes (C.Engine.snapshot_bytes paused.C.Analysis.engine) with
  | Error msg -> Alcotest.failf "resume: %s" msg
  | Ok engine ->
      let s =
        stats (C.Analysis.rerun ~budget:(C.Budget.make ~max_flows:1 ()) engine)
      in
      Alcotest.(check bool) "the flow cap degraded the resumed run" true
        s.C.Engine.degraded;
      Alcotest.(check int) "two trips" 2 s.C.Engine.budget_trips;
      match s.C.Engine.first_trip with
      | Some C.Budget.Tasks -> ()
      | Some t -> Alcotest.failf "first trip reported as the %s" (C.Budget.trip_name t)
      | None -> Alcotest.fail "no trip recorded"

let suite =
  ( "budget",
    [
      Alcotest.test_case "mega-call flow overshoot is bounded" `Quick
        test_flow_overshoot_bounded;
      Alcotest.test_case "mega-call task overshoot is bounded" `Quick
        test_task_overshoot_bounded;
      Alcotest.test_case "task cap ignores cumulative links" `Quick
        test_task_cap_ignores_cumulative_links;
      Alcotest.test_case "mega-call degradation is sound" `Quick
        test_megacall_degradation_sound;
      Alcotest.test_case "mega-call pause resumes precisely" `Quick
        test_megacall_pause_stays_precise;
      Alcotest.test_case "a resumed run's cap counts its own tasks" `Quick
        test_resume_cap_counts_own_tasks;
      Alcotest.test_case "first trip kept" `Quick test_first_trip_kept;
    ] )
