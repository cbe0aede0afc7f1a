(* Tests for the deduplicated worklist engine:

   - it reaches the least fixed point: the naive round-robin solver of
     {!Naive} reaches the same methods, and flow by flow the same kind,
     enabled bit, [state] and [raw], and the same link set on every
     invoke and field access — across a fuzz corpus, the generated
     workload and the examples, under the SkipFlow, PTA and
     SkipFlow-with-product-domain configs;
   - deduplication must pay: [tasks_processed] stays under ceilings
     recorded from the boxed-FIFO drain the engine replaced (at least 2x
     fewer tasks on the benchmark-sized programs), with the collapsed
     emits accounted in the [dedup_*] counters;
   - degradation under a task budget still only ever widens: the dedup
     engine's budget-tripped reachable set is a superset of the precise
     one;
   - a restored engine's re-drain allocates the same however many flow
     ids the process has minted;
   - a solved graph shares its immutable payloads (one [meth] option per
     method, the six filter kinds, interned constant sources) and stays
     within a bounded number of heap words per live flow. *)

open Skipflow_ir
module C = Skipflow_core
module W = Skipflow_workloads
module F = Skipflow_frontend

let run ?config ?budget prog main = C.Analysis.run ?config ?budget prog ~roots:[ main ]

let reachable_ids e =
  List.fold_left
    (fun acc (m : Program.meth) -> Ids.Meth.Set.add m.Program.m_id acc)
    Ids.Meth.Set.empty (C.Engine.reachable_methods e)

let configs =
  [ ("skipflow", C.Config.skipflow); ("pta", C.Config.pta);
    ("skipflow-product", { C.Config.skipflow with C.Config.pval = C.Pval.Product });
  ]

(* Recursion reached while the body is built: [g]'s own call is enabled
   by the always-on predicate, as are [f] and [g]'s calls of each other. *)
let recursive_srcs =
  [
    ("self-recursion", {|class Main { static void g() { Main.g(); } static void main() { Main.g(); } }|});
    ( "mutual recursion",
      {|class Main { static void f() { Main.g(); } static void g() { Main.f(); } static void main() { Main.f(); } }|}
    );
  ]

let compile_main src =
  let prog = F.Frontend.compile src in
  (prog, Option.get (F.Frontend.main_of prog))

(* A method's graph is stored only once its build returns, but its
   parameter and return flows are linkable from the start: a recursive
   call the build enables links to them instead of building the method
   again (which nested until the synchronous-depth limit). *)
let test_each_method_built_once () =
  List.iter
    (fun (pname, src) ->
      let prog, main = compile_main src in
      List.iter
        (fun (name, config) ->
          let ctx = Printf.sprintf "%s, %s" pname name in
          let r = run ~config prog main in
          let e = r.C.Analysis.engine in
          let counter n = List.assoc n (C.Trace.counters r.C.Analysis.trace) in
          Alcotest.(check int)
            (ctx ^ ": build.methods = reachable count")
            (C.Engine.reachable_count e) (counter "build.methods");
          Alcotest.(check int)
            (ctx ^ ": one graph per reachable method")
            (C.Engine.reachable_count e)
            (List.length (C.Engine.graphs e));
          Alcotest.(check int)
            (ctx ^ ": engine.live_flows = metrics flows")
            r.C.Analysis.metrics.C.Metrics.flows
            (counter "engine.live_flows"))
        configs)
    recursive_srcs

let example_srcs =
  [
    ( "jdk-threads",
      {|
class Thread { boolean isVirtual() { return this instanceof BaseVirtualThread; } }
class BaseVirtualThread extends Thread { }
class Set { void remove(Thread t) { } }
class Container {
  var Set virtualThreads;
  void onExit(Thread thread) {
    if (thread.isVirtual()) { this.virtualThreads.remove(thread); }
  }
}
class Main {
  static void main() {
    Container c = new Container();
    c.virtualThreads = new Set();
    c.onExit(new Thread());
    c.onExit(new BaseVirtualThread());
  }
}
|}
    );
    ( "dispatch-loop",
      {|
class A { int f() { return 1; } }
class B extends A { int f() { return 2; } }
class C extends A { int f() { return 3; } }
class Main {
  static void main() {
    A a = new B();
    int i = 0;
    int s = 0;
    while (i < 10) {
      if (i == 5) { a = new C(); }
      s = s + a.f();
      i = i + 1;
    }
  }
}
|}
    );
  ]

let workload () =
  W.Gen.compile { W.Gen.default_params with W.Gen.live_units = 6; dead_units = 2 }

(* The engine reaches the least fixed point, checked against the naive
   solver on 40 random programs, the sources above, the generated
   workload and the two shipped examples.  The random programs alone
   miss a delta re-resolution that skips a type; the workload and
   jdk-threads catch it. *)
let test_dedup_equals_naive () =
  let example name =
    compile_main (In_channel.with_open_bin ("../examples/" ^ name) In_channel.input_all)
  in
  let corpus =
    List.init 40 (fun seed ->
        ( Printf.sprintf "seed %d" seed,
          W.Gen_random.compile
            {
              W.Gen_random.seed;
              classes = 3 + (seed mod 7);
              meths_per_class = 1 + (seed mod 3);
              max_stmts = 4 + (seed mod 5);
            } ))
    @ List.map (fun (name, src) -> (name, compile_main src)) (recursive_srcs @ example_srcs)
    @ [ ("workload", workload ()); ("lint_demo.mj", example "lint_demo.mj");
        ("threads.mj", example "threads.mj") ]
  in
  let cases =
    List.concat_map (fun (pname, p) -> List.map (fun c -> (pname, p, c)) configs) corpus
  in
  let failures =
    List.filter_map
      (fun (pname, (prog, main), (cname, config)) ->
        let engine = (run ~config prog main).C.Analysis.engine in
        match Naive.check engine (Naive.solve config prog ~roots:[ main ]) with
        | Ok () -> None
        | Error msg -> Some (Printf.sprintf "%s, %s: %s" pname cname msg))
      cases
  in
  if failures <> [] then
    Alcotest.failf "%d of %d cases differ from the naive solver; first: %s"
      (List.length failures) (List.length cases) (List.hd failures)

(* Task ceilings, recorded once from the boxed-FIFO drain (one task per
   emit) that the deduplicated engine replaced.  Task counts are
   deterministic, so each is an exact gate. *)

(* the old drain took 102 tasks on jdk-threads *)
let max_tasks_jdk_threads = 101

(* the old drain took 114 tasks on dispatch-loop *)
let max_tasks_dispatch_loop = 113

(* half of the old drain's 4,386 tasks on [workload ()] *)
let max_tasks_workload = 2_193

(* half of the old drain's 45,701 + 46,549 tasks on fj-kmeans and
   scala-kmeans at scale 0.02 under SkipFlow *)
let max_tasks_kmeans = 46_125

let test_dedup_processes_fewer_tasks () =
  let check ctx ceiling programs =
    let tasks =
      List.fold_left
        (fun acc (prog, main) ->
          let s = C.Engine.stats (run prog main).C.Analysis.engine in
          Alcotest.(check bool) (ctx ^ ": collapsed emits recorded") true
            (C.Engine.dedup_hits s > 0);
          acc + s.C.Engine.tasks_processed)
        0 programs
    in
    if tasks > ceiling then Alcotest.failf "%s: %d tasks, ceiling %d" ctx tasks ceiling
  in
  List.iter2
    (fun (name, src) ceiling -> check name ceiling [ compile_main src ])
    example_srcs
    [ max_tasks_jdk_threads; max_tasks_dispatch_loop ];
  check "workload" max_tasks_workload [ workload () ];
  check "fj-kmeans + scala-kmeans" max_tasks_kmeans
    (List.map
       (fun name ->
         W.Gen.compile (W.Suites.params_of ~scale:0.02 (Option.get (W.Suites.find name))))
       [ "fj-kmeans"; "scala-kmeans" ])

let test_dedup_budget_superset () =
  let prog, main = workload () in
  let precise = run prog main in
  let degraded = run ~budget:(C.Budget.make ~max_tasks:400 ()) prog main in
  Alcotest.(check bool) "budget tripped" true
    degraded.C.Analysis.metrics.C.Metrics.degraded;
  (match C.Verify.run degraded.C.Analysis.engine with
  | [] -> ()
  | vs -> Alcotest.failf "degraded dedup run fails certification: %s" (List.hd vs));
  Alcotest.(check bool) "degradation only adds reachable methods" true
    (Ids.Meth.Set.subset
       (reachable_ids precise.C.Analysis.engine)
       (reachable_ids degraded.C.Analysis.engine))

(* Thaw a solved state, add a root that is unreachable at its fixed
   point, and re-drain: the worklist is sized by its queue, so the same
   re-drain allocates no more after 300,000 other flows were minted. *)
let test_redrain_alloc_flat () =
  let prog, main =
    W.Gen.compile { W.Gen.default_params with W.Gen.live_units = 4; dead_units = 2 }
  in
  let solved = (run prog main).C.Analysis.engine in
  let bytes = C.Engine.snapshot_bytes solved in
  let solved_tasks = (C.Engine.stats solved).C.Engine.tasks_processed in
  let redrain root =
    (* from a settled heap: an in-flight major cycle skews the count *)
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    let e =
      match C.Engine.of_snapshot_bytes bytes with
      | Ok e -> e
      | Error msg -> Alcotest.fail msg
    in
    C.Engine.add_root e root;
    ignore (C.Engine.run e);
    let allocated = Gc.allocated_bytes () -. a0 in
    (allocated, (C.Engine.stats e).C.Engine.tasks_processed - solved_tasks)
  in
  let unreachable = ref [] in
  Program.iter_meths prog (fun m ->
      if m.Program.m_body <> None && not (C.Engine.is_reachable solved m.Program.m_id)
      then unreachable := m :: !unreachable);
  let root =
    match List.find_opt (fun m -> snd (redrain m) > 0) (List.rev !unreachable) with
    | Some m -> m
    | None -> Alcotest.fail "no unreachable root makes the re-drain process a task"
  in
  let first, _ = redrain root in
  for _ = 1 to 300_000 do
    ignore (C.Flow.make C.Flow.Pred_on)
  done;
  let second, _ = redrain root in
  if second > first +. 65536. then
    Alcotest.failf "re-drain allocated %.0f bytes after minting, %.0f before" second
      first

(* Every payload a solve can share, it does: the flows of a graph carry
   one [meth] option, branch flows use the six shared [Filter] kinds, and
   the [Source] flows of one small constant share their kind and their
   solved state. *)
let test_graph_shares_payloads () =
  let prog, main =
    W.Gen.compile { W.Gen.default_params with W.Gen.live_units = 4; dead_units = 2 }
  in
  let filter_kinds =
    List.concat_map
      (fun check ->
        [ C.Flow.filter_kind check ~branch_then:true;
          C.Flow.filter_kind check ~branch_then:false ])
      [ C.Flow.Type_check; C.Flow.Null_check; C.Flow.Prim_check ]
  in
  List.iter
    (fun (cname, config) ->
      let e = (C.Analysis.run ~config prog ~roots:[ main ]).C.Analysis.engine in
      let first_of_const = Hashtbl.create 16 and shared = ref 0 and filters = ref 0 in
      List.iter
        (fun (g : C.Graph.method_graph) ->
          let meth = g.C.Graph.g_return.C.Flow.meth in
          if meth <> Some g.C.Graph.g_meth.Program.m_id then
            Alcotest.failf "%s: the return flow names another method" cname;
          Array.iter
            (fun (f : C.Flow.t) ->
              if f.C.Flow.meth != meth then
                Alcotest.failf "%s: flow %d boxes its own meth option" cname f.C.Flow.id;
              match f.C.Flow.kind with
              | C.Flow.Filter _ ->
                  incr filters;
                  if not (List.exists (fun k -> k == f.C.Flow.kind) filter_kinds) then
                    Alcotest.failf "%s: flow %d boxes its own filter kind" cname
                      f.C.Flow.id
              | C.Flow.Source (C.Vstate.Prim p) when f.C.Flow.enabled -> (
                  match C.Prim.as_const p with
                  | Some n when C.Prim.interned n -> (
                      match Hashtbl.find_opt first_of_const n with
                      | None -> Hashtbl.replace first_of_const n f
                      | Some (first : C.Flow.t) ->
                          incr shared;
                          if first.C.Flow.kind != f.C.Flow.kind then
                            Alcotest.failf "%s: sources of %d box their own kinds" cname n;
                          if first.C.Flow.state != f.C.Flow.state then
                            Alcotest.failf "%s: sources of %d box their own states" cname
                              n)
                  | _ -> ())
              | _ -> ())
            g.C.Graph.g_flows)
        (C.Engine.graphs e);
      Alcotest.(check bool) (cname ^ ": filter flows seen") true (!filters > 0);
      Alcotest.(check bool) (cname ^ ": repeated constants seen") true (!shared > 0))
    [
      ("skipflow", C.Config.skipflow);
      ("skipflow-product", { C.Config.skipflow with C.Config.pval = C.Pval.Product });
    ];
  Alcotest.(check bool) "Vstate.const 1 is preallocated" true
    (C.Vstate.const 1 == C.Vstate.const 1)

(* The heap words a solve adds for its graphs (the program excluded),
   per live flow.  Shared payloads took the generated program below from
   35.3 to 24.6 words per flow; the bound sits between. *)
let test_graph_words_bounded () =
  let prog, main = workload () in
  let e = (C.Analysis.run prog ~roots:[ main ]).C.Analysis.engine in
  let words =
    Obj.reachable_words (Obj.repr (prog, C.Engine.graphs e))
    - Obj.reachable_words (Obj.repr prog)
  in
  let per_flow =
    float_of_int words /. float_of_int (C.Engine.stats e).C.Engine.live_flows
  in
  if per_flow > 30.0 then
    Alcotest.failf "%.1f graph words per live flow (bound 30.0)" per_flow

let suite =
  ( "engine-perf",
    [
      Alcotest.test_case "dedup = naive least fixed point" `Quick
        test_dedup_equals_naive;
      Alcotest.test_case "each reachable method is built once" `Quick
        test_each_method_built_once;
      Alcotest.test_case "dedup drains strictly fewer tasks" `Quick
        test_dedup_processes_fewer_tasks;
      Alcotest.test_case "budgeted dedup reaches a reachable superset" `Quick
        test_dedup_budget_superset;
      Alcotest.test_case "redrain allocation does not grow with minted flow ids"
        `Quick test_redrain_alloc_flat;
      Alcotest.test_case "the graph shares its immutable payloads" `Quick
        test_graph_shares_payloads;
      Alcotest.test_case "graph words per live flow stay bounded" `Quick
        test_graph_words_bounded;
    ] )
