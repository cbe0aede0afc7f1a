(* Fixed-point certification (lib/core/verify.ml) and the dead-code report
   client (lib/core/report.ml). *)

module C = Skipflow_core
module F = Skipflow_frontend
module W = Skipflow_workloads

let solve ?(config = C.Config.skipflow) src =
  let prog = F.Frontend.compile src in
  let main = Option.get (F.Frontend.main_of prog) in
  (C.Analysis.run ~config prog ~roots:[ main ]).C.Analysis.engine

let fig2 =
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
  }
}
|}

let certify name engine =
  match C.Verify.run engine with
  | [] -> ()
  | vs -> Alcotest.failf "%s: %d violations, first: %s" name (List.length vs) (List.hd vs)

let test_certify_examples () =
  List.iter
    (fun (cname, config) -> certify cname (solve ~config fig2))
    [
      ("skipflow", C.Config.skipflow);
      ("pta", C.Config.pta);
      ("preds-only", C.Config.predicates_only);
      ("prims-only", C.Config.primitives_only);
      ("saturated", { C.Config.skipflow with C.Config.saturation = Some 1 });
    ]

let test_certify_benchmark () =
  let prog, main =
    W.Gen.compile { W.Gen.default_params with W.Gen.live_units = 8; dead_units = 3 }
  in
  List.iter
    (fun config ->
      certify "benchmark"
        (C.Analysis.run ~config prog ~roots:[ main ]).C.Analysis.engine)
    [ C.Config.skipflow; C.Config.pta ]

let test_detects_corruption () =
  let engine = solve fig2 in
  (* corrupt one flow: shrink an enabled, non-empty state to Empty *)
  let corrupted = ref false in
  List.iter
    (fun (g : C.Graph.method_graph) ->
      Array.iter
        (fun (f : C.Flow.t) ->
          if
            (not !corrupted) && f.C.Flow.enabled
            && (not (C.Vstate.is_empty f.C.Flow.state))
            && f.C.Flow.uses <> []
          then begin
            f.C.Flow.state <- C.Vstate.empty;
            f.C.Flow.raw <- C.Vstate.empty;
            corrupted := true
          end)
        g.C.Graph.g_flows)
    (C.Engine.graphs engine);
  Alcotest.(check bool) "corrupted something" true !corrupted;
  Alcotest.(check bool) "verifier notices" true (C.Verify.run engine <> [])

let contains sub text =
  let n = String.length text and m = String.length sub in
  let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
  go 0

(* clear the completion token of an enabled void return: the Return rule
   requires an enabled void return to carry its token *)
let test_detects_cleared_return_token () =
  let engine = solve fig2 in
  let prog = C.Engine.prog_of engine in
  let corrupted = ref false in
  List.iter
    (fun (g : C.Graph.method_graph) ->
      Array.iter
        (fun (f : C.Flow.t) ->
          match (f.C.Flow.kind, f.C.Flow.meth) with
          | C.Flow.Return, Some m
            when (not !corrupted) && f.C.Flow.enabled
                 && Skipflow_ir.Ty.equal
                      (Skipflow_ir.Program.meth prog m).Skipflow_ir.Program.m_ret_ty
                      Skipflow_ir.Ty.Void ->
              f.C.Flow.state <- C.Vstate.empty;
              f.C.Flow.raw <- C.Vstate.empty;
              corrupted := true
          | _ -> ())
        g.C.Graph.g_flows)
    (C.Engine.graphs engine);
  Alcotest.(check bool) "corrupted a void return" true !corrupted;
  let vs = C.Verify.run engine in
  Alcotest.(check bool) "void-return violation reported" true
    (List.exists (contains "void return") vs)

(* drop the join along a use edge: pretend Propagate never ran for one
   edge by clearing the target's VS_in (and keeping its VS_out locally
   consistent, so only the edge rule can fire) *)
let test_detects_dropped_use_join () =
  let engine = solve fig2 in
  let corrupted = ref false in
  List.iter
    (fun (g : C.Graph.method_graph) ->
      Array.iter
        (fun (f : C.Flow.t) ->
          if (not !corrupted) && f.C.Flow.enabled
             && not (C.Vstate.is_empty f.C.Flow.state) then
            match f.C.Flow.uses with
            | t :: _ ->
                t.C.Flow.raw <- C.Vstate.empty;
                t.C.Flow.state <- C.Flow.apply_filter ~pval:C.Pval.Flat t C.Vstate.empty;
                corrupted := true
            | [] -> ())
        g.C.Graph.g_flows)
    (C.Engine.graphs engine);
  Alcotest.(check bool) "dropped a use-edge join" true !corrupted;
  let vs = C.Verify.run engine in
  Alcotest.(check bool) "use-edge violation reported" true
    (List.exists (contains "use edge") vs)

(* The first flow of a solved graph that [pick] accepts. *)
let find_flow engine pick =
  let flows = List.concat_map (fun g -> Array.to_list g.C.Graph.g_flows) (C.Engine.graphs engine) in
  match List.find_opt pick flows with
  | Some f -> f
  | None -> Alcotest.fail "no flow to corrupt"

(* Corruptions only the edges out of the global flows show: a parameter
   switched off breaks [pred_on]'s predicate edge to it, and an emptied
   static load breaks its field flow's use edge. *)
let test_detects_global_edge_corruption () =
  let solve () =
    let prog, main =
      W.Gen.compile { W.Gen.default_params with W.Gen.live_units = 6; dead_units = 2 }
    in
    (C.Analysis.run prog ~roots:[ main ]).C.Analysis.engine
  in
  let engine = solve () in
  let param =
    find_flow engine (fun f ->
        match f.C.Flow.kind with C.Flow.Param _ -> f.C.Flow.enabled | _ -> false)
  in
  param.C.Flow.enabled <- false;
  Alcotest.(check bool) "disabled parameter reported" true
    (List.exists (contains "predicate edge") (C.Verify.run engine));
  let engine = solve () in
  let load =
    find_flow engine (fun f ->
        match f.C.Flow.kind with
        | C.Flow.Static_load fid ->
            f.C.Flow.enabled
            && not (C.Vstate.is_empty (C.Engine.field_flow engine fid).C.Flow.state)
        | _ -> false)
  in
  load.C.Flow.raw <- C.Vstate.empty;
  load.C.Flow.state <- C.Vstate.empty;
  Alcotest.(check bool) "emptied static load reported" true
    (List.exists (contains "use edge") (C.Verify.run engine))

(* an allocation in a branch SkipFlow proves dead, switched on by hand,
   allocates a class the engine never instantiated *)
let test_detects_uninstantiated_alloc () =
  let engine =
    solve
      {|
class Flags { static boolean enabled() { return false; } }
class DeadLib { void init() { } }
class Main { static void main() { if (Flags.enabled()) { DeadLib d = new DeadLib(); d.init(); } } }
|}
  in
  let alloc =
    find_flow engine (fun f ->
        match f.C.Flow.kind with C.Flow.Alloc _ -> not f.C.Flow.enabled | _ -> false)
  in
  let c = match alloc.C.Flow.kind with C.Flow.Alloc c -> c | _ -> assert false in
  alloc.C.Flow.enabled <- true;
  alloc.C.Flow.raw <- C.Vstate.of_class c;
  alloc.C.Flow.state <- C.Vstate.of_class c;
  Alcotest.(check bool) "uninstantiated allocation reported" true
    (List.exists (contains "not instantiated") (C.Verify.run engine))

(* The all-instantiated flows feed root parameters and saturated flows;
   one that lost an instantiated type breaks no edge rule, since its
   smaller state is still below its targets' *)
let test_detects_emptied_all_instantiated () =
  let all_inst engine pick =
    match
      List.find_opt
        (fun f ->
          match f.C.Flow.kind with
          | C.Flow.All_instantiated c -> pick c && not (C.Vstate.is_empty f.C.Flow.raw)
          | _ -> false)
        (C.Engine.global_flows engine)
    with
    | Some f ->
        f.C.Flow.raw <- C.Vstate.empty;
        f.C.Flow.state <- C.Vstate.empty;
        List.exists (contains "instantiated subtype") (C.Verify.run engine)
    | None -> Alcotest.fail "no all-instantiated flow to empty"
  in
  let engine =
    let prog, main =
      W.Gen.compile { W.Gen.default_params with W.Gen.live_units = 6; dead_units = 2 }
    in
    (C.Analysis.run prog ~roots:[ main ]).C.Analysis.engine
  in
  Alcotest.(check bool) "the flow of all instantiated types" true
    (all_inst engine Skipflow_ir.Program.is_null_class);
  let engine =
    let prog =
      F.Frontend.compile
        {|
class Item { }
class Sub extends Item { }
class Box { void take(Item i) { } }
class Main { static void main() { Item a = new Sub(); } }
|}
    in
    let roots = C.Analysis.roots_by_name prog [ "Main.main"; "Box.take" ] in
    (C.Analysis.run prog ~roots:(Result.get_ok roots)).C.Analysis.engine
  in
  Alcotest.(check bool) "a root parameter's feed" true
    (all_inst engine (fun c -> not (Skipflow_ir.Program.is_null_class c)))

let prop_certify =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random programs certify under all configs" ~count:60
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 50_000))
       (fun seed ->
         let cfg =
           { W.Gen_random.default_cfg with W.Gen_random.seed; classes = 3 + (seed mod 6) }
         in
         let prog, main = W.Gen_random.compile cfg in
         List.for_all
           (fun config ->
             C.Verify.run (C.Analysis.run ~config prog ~roots:[ main ]).C.Analysis.engine
             = [])
           [ C.Config.skipflow; C.Config.pta; C.Config.predicates_only ]))

(* ------------------------------- report -------------------------------- *)

let test_report () =
  let src =
    {|
class H { int h() { return 0; } }
class H1 extends H { int h() { return 1; } }
class H2 extends H { int h() { return 2; } }
class Flags { static boolean enabled() { return false; } }
class DeadLib { void init() { } }
class Main {
  static void main() {
    H x = new H1();
    if (Flags.enabled()) {
      DeadLib d = new DeadLib();
      d.init();
      x = new H2();
    }
    int r = x.h();
  }
}
|}
  in
  let prog = F.Frontend.compile src in
  let main = Option.get (F.Frontend.main_of prog) in
  let pta = C.Analysis.run ~config:C.Config.pta prog ~roots:[ main ] in
  let sf = C.Analysis.run ~config:C.Config.skipflow prog ~roots:[ main ] in
  let r =
    C.Report.compare_runs ~baseline:pta.C.Analysis.engine ~precise:sf.C.Analysis.engine
  in
  Alcotest.(check bool) "DeadLib.init removed" true
    (List.mem "DeadLib.init" r.C.Report.removed_methods);
  Alcotest.(check bool) "H2.h removed" true (List.mem "H2.h" r.C.Report.removed_methods);
  (* the feature-flag branch folds to one side (verdicts are in terms of
     the normalized IR branches: boolean conditions lower to '== 0' with
     swapped targets, so the surface-else is the IR-then here) *)
  Alcotest.(check bool) "a folded branch reported" true
    (List.exists
       (fun (m, _, v) ->
         m = "Main.main" && (v = C.Report.Then_only || v = C.Report.Else_only))
       r.C.Report.folded_branches);
  (* x.h() devirtualizes to H1.h *)
  Alcotest.(check bool) "devirtualized to H1.h" true
    (List.mem ("Main.main", "H1.h") r.C.Report.devirtualized);
  (* Flags.enabled returns the constant 0 *)
  Alcotest.(check bool) "constant return found" true
    (List.mem ("Flags.enabled", 0) r.C.Report.constant_returns);
  (* the pretty-printer produces all sections *)
  let text = Format.asprintf "%a" C.Report.pp r in
  Alcotest.(check bool) "pp sections" true
    (String.length text > 50
    && List.for_all
         (fun sub ->
           let n = String.length text and m = String.length sub in
           let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
           go 0)
         [ "methods removed"; "foldable branches"; "devirtualized"; "constant-returning" ])

let test_report_empty_when_equal () =
  (* on a program with no SkipFlow-only facts the removed list is empty *)
  let src = {| class Main { static void main() { int x = 1; } } |} in
  let prog = F.Frontend.compile src in
  let main = Option.get (F.Frontend.main_of prog) in
  let pta = C.Analysis.run ~config:C.Config.pta prog ~roots:[ main ] in
  let sf = C.Analysis.run ~config:C.Config.skipflow prog ~roots:[ main ] in
  let r =
    C.Report.compare_runs ~baseline:pta.C.Analysis.engine ~precise:sf.C.Analysis.engine
  in
  Alcotest.(check (list string)) "nothing removed" [] r.C.Report.removed_methods

let suite =
  ( "verify",
    [
      Alcotest.test_case "examples certify (all configs)" `Quick test_certify_examples;
      Alcotest.test_case "benchmark certifies" `Quick test_certify_benchmark;
      Alcotest.test_case "verifier detects corruption" `Quick test_detects_corruption;
      Alcotest.test_case "verifier detects a cleared return token" `Quick
        test_detects_cleared_return_token;
      Alcotest.test_case "verifier detects a dropped use-edge join" `Quick
        test_detects_dropped_use_join;
      Alcotest.test_case "verifier checks global flows' edges" `Quick
        test_detects_global_edge_corruption;
      Alcotest.test_case "verifier checks all-instantiated contents" `Quick
        test_detects_emptied_all_instantiated;
      Alcotest.test_case "verifier checks allocated classes" `Quick
        test_detects_uninstantiated_alloc;
      prop_certify;
      Alcotest.test_case "dead-code report" `Quick test_report;
      Alcotest.test_case "report empty on trivial program" `Quick test_report_empty_when_equal;
    ] )
