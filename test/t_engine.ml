(* Fixed-point engine tests (Appendix C, Figure 15): the Figure 8 final
   state, predicate semantics (Figure 4), value joins (Figure 5), field
   rules, AllInstantiated root seeding, saturation, and worklist-order
   independence on concrete programs. *)

open Skipflow_ir
module C = Skipflow_core
module F = Skipflow_frontend

let analyze ?(config = C.Config.skipflow) ?random_order src =
  let prog = F.Frontend.compile src in
  let main = Option.get (F.Frontend.main_of prog) in
  let r = C.Analysis.run ~config ?random_order prog ~roots:[ main ] in
  (prog, r.C.Analysis.engine, r.C.Analysis.metrics)

let flows_of e prog qname =
  let found = ref None in
  Program.iter_meths prog (fun m ->
      if String.equal (Program.qualified_name prog m.Program.m_id) qname then
        found := C.Engine.graph_of e m.Program.m_id);
  !found

let reachable e prog q =
  List.exists
    (fun (m : Program.meth) -> String.equal (Program.qualified_name prog m.Program.m_id) q)
    (C.Engine.reachable_methods e)

(* -------- Figure 8: the JDK example fixed point, flow by flow --------- *)

let test_fig8_fixed_point () =
  let src =
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
  in
  let prog, e, _ = analyze src in
  let g = Option.get (flows_of e prog "Container.onExit") in
  let find pred = List.filter pred (Array.to_list g.C.Graph.g_flows) in
  (* p_thread holds {Thread} only — no virtual thread instantiated *)
  let params = find (fun f -> match f.C.Flow.kind with C.Flow.Param _ -> true | _ -> false) in
  let thread_cls = (Option.get (Program.find_class prog "Thread")).Program.c_id in
  let p_thread = List.nth params 1 in
  Alcotest.(check bool) "VS(p_thread) = {Thread}" true
    (C.Vstate.equal p_thread.C.Flow.state (C.Vstate.of_class thread_cls));
  (* the isVirtual invoke returns exactly {0} *)
  let invokes =
    find (fun f ->
        match f.C.Flow.kind with
        | C.Flow.Invoke inv ->
            String.equal (Program.meth_name prog inv.C.Flow.inv_target) "isVirtual"
        | _ -> false)
  in
  let inv = List.hd invokes in
  Alcotest.(check bool) "isVirtual invoke enabled" true inv.C.Flow.enabled;
  Alcotest.(check bool) "VS(invoke) = {0}" true
    (C.Vstate.equal inv.C.Flow.state (C.Vstate.const 0));
  (* the remove() invoke stays disabled with an empty state (grey in Fig 8) *)
  let removes =
    find (fun f ->
        match f.C.Flow.kind with
        | C.Flow.Invoke inv ->
            String.equal (Program.meth_name prog inv.C.Flow.inv_target) "remove"
        | _ -> false)
  in
  let rm = List.hd removes in
  Alcotest.(check bool) "remove disabled" false rm.C.Flow.enabled;
  Alcotest.(check bool) "remove state empty" true (C.Vstate.is_empty rm.C.Flow.state);
  (* the load of virtualThreads is disabled too *)
  let loads =
    find (fun f -> match f.C.Flow.kind with C.Flow.Field_load _ -> true | _ -> false)
  in
  Alcotest.(check bool) "load disabled" false (List.hd loads).C.Flow.enabled;
  (* in isVirtual: the positive instanceof filter is enabled but EMPTY,
     the negated one holds {Thread} *)
  let gv = Option.get (flows_of e prog "Thread.isVirtual") in
  let filters =
    List.filter_map
      (fun (f : C.Flow.t) ->
        match f.C.Flow.filter with
        | C.Flow.Instanceof { negated; _ } -> Some (negated, f)
        | _ -> None)
      (Array.to_list gv.C.Graph.g_flows)
  in
  let pos = List.assoc false filters and neg = List.assoc true filters in
  Alcotest.(check bool) "positive filter empty" true (C.Vstate.is_empty pos.C.Flow.state);
  Alcotest.(check bool) "negated filter = {Thread}" true
    (C.Vstate.equal neg.C.Flow.state (C.Vstate.of_class thread_cls));
  (* the isVirtual return is exactly {0} — the constant 1 never flows *)
  Alcotest.(check bool) "return = {0}" true
    (C.Vstate.equal gv.C.Graph.g_return.C.Flow.state (C.Vstate.const 0))

(* ----------------- Figure 4: primitive predicate pruning --------------- *)

let test_fig4 () =
  let src =
    {|
class O { void m() { } void f() { } }
class Conf { static int x() { return 42; } }
class Main {
  static void main() {
    int x = Conf.x();
    O o = new O();
    if (x > 10) { o.m(); } else { o.f(); }
  }
}
|}
  in
  let prog, e, _ = analyze src in
  Alcotest.(check bool) "m reachable" true (reachable e prog "O.m");
  Alcotest.(check bool) "f dead" false (reachable e prog "O.f")

(* ----------------- Figure 5: value join through phis ------------------ *)

let test_fig5_join () =
  let src =
    {|
class C {
  int pick(C x) {
    int y = 0;
    if (x == null) { y = 10; } else { y = 5; }
    return y;
  }
}
class Main {
  static void main() {
    C c = new C();
    int a = c.pick(null);
  }
}
|}
  in
  let prog, e, _ = analyze src in
  let g = Option.get (flows_of e prog "C.pick") in
  (* only the x == null branch is live (the argument is always null), so
     the phi and the return hold exactly {10} *)
  Alcotest.(check bool) "return = {10}" true
    (C.Vstate.equal g.C.Graph.g_return.C.Flow.state (C.Vstate.const 10));
  (* both-branch variant: joining 5 and 10 gives Any (constants collapse) *)
  let src2 =
    {|
class C {
  int pick(C x) {
    int y = 0;
    if (x == null) { y = 10; } else { y = 5; }
    return y;
  }
}
class Main {
  static void main() {
    C c = new C();
    int a = c.pick(null);
    int b = c.pick(c);
  }
}
|}
  in
  let prog2, e2, _ = analyze src2 in
  let g2 = Option.get (flows_of e2 prog2 "C.pick") in
  Alcotest.(check bool) "return joins to Any" true
    (C.Vstate.equal g2.C.Graph.g_return.C.Flow.state C.Vstate.any)

(* --------------------------- field rules ------------------------------ *)

let test_field_flow_join () =
  (* values stored into a field from two places join at every load *)
  let src =
    {|
class Box { var O v; }
class O { }
class P extends O { }
class Main {
  static void main() {
    Box b1 = new Box();
    Box b2 = new Box();
    b1.v = new O();
    b2.v = new P();
    O r = b1.v;
  }
}
|}
  in
  let prog, e, _ = analyze src in
  let g = Option.get (flows_of e prog "Main.main") in
  let loads =
    List.filter
      (fun (f : C.Flow.t) ->
        match f.C.Flow.kind with C.Flow.Field_load _ -> true | _ -> false)
      (Array.to_list g.C.Graph.g_flows)
  in
  let o = (Option.get (Program.find_class prog "O")).Program.c_id in
  let p = (Option.get (Program.find_class prog "P")).Program.c_id in
  let expected =
    C.Vstate.join ~pval:C.Pval.Flat C.Vstate.null
      (C.Vstate.join ~pval:C.Pval.Flat (C.Vstate.of_class o) (C.Vstate.of_class p))
  in
  (* field-sensitive but context-insensitive: the load sees both stores
     plus the default null *)
  Alcotest.(check bool) "load = {null, O, P}" true
    (C.Vstate.equal (List.hd loads).C.Flow.state expected)

let test_unwritten_field_default () =
  let src =
    {|
class Box { var O v; var int n; }
class O { void m() { } }
class Main {
  static void main() {
    Box b = new Box();
    O r = b.v;
    int k = b.n;
    if (r == null) { int dead = k; } else { r.m(); }
  }
}
|}
  in
  let prog, e, _ = analyze src in
  (* the unwritten object field yields {null}: r.m() resolves to nothing *)
  Alcotest.(check bool) "O.m dead on null-only receiver" false (reachable e prog "O.m")

(* ------------------- root seeding (Section 5 policy) ------------------ *)

let test_root_param_seeding () =
  let src =
    {|
class H { void handle() { } }
class HSpecial extends H { void handle() { } }
class Api {
  void endpoint(H h) { h.handle(); }
}
class Main {
  static void main() {
    H x = new HSpecial();
  }
}
|}
  in
  let prog = F.Frontend.compile src in
  let main = Option.get (F.Frontend.main_of prog) in
  let api = Option.get (Program.find_class prog "Api") in
  let endpoint = Option.get (Program.find_meth prog api "endpoint") in
  (* endpoint is a reflection-style root: its H parameter is seeded with
     every instantiated subtype of H *)
  let e = C.Engine.create prog C.Config.skipflow in
  C.Engine.add_root e main;
  C.Engine.add_root e endpoint;
  ignore (C.Engine.run e);
  Alcotest.(check bool) "HSpecial.handle reachable via seeded root" true
    (reachable e prog "HSpecial.handle");
  (* H itself is never instantiated, so H.handle stays dead *)
  Alcotest.(check bool) "H.handle dead" false (reachable e prog "H.handle")

(* ------------------------------ saturation ---------------------------- *)

let test_saturation_sound () =
  (* with a tiny cutoff, type sets collapse to all-instantiated; the
     result must stay a superset of the precise one *)
  let src =
    {|
class B { void m() { } }
class B1 extends B { void m() { } }
class B2 extends B { void m() { } }
class B3 extends B { void m() { } }
class Main {
  static void main() {
    B b = new B1();
    if (b instanceof B1) { b = new B2(); } else { b = new B3(); }
    b.m();
  }
}
|}
  in
  let prog, e, _ = analyze src in
  let prog2, e2, _ =
    analyze ~config:{ C.Config.skipflow with C.Config.saturation = Some 1 } src
  in
  ignore prog2;
  List.iter
    (fun (m : Program.meth) ->
      let q = Program.qualified_name prog m.Program.m_id in
      if reachable e prog q then
        Alcotest.(check bool) (q ^ " still reachable under saturation") true
          (reachable e2 prog q))
    (C.Engine.reachable_methods e)

(* -------------------- worklist-order independence --------------------- *)

let test_order_independence () =
  let src =
    {|
class A { int f(A o, int d) { if (d < 3 && o != null) { return o.f(null, d + 1); } return d; } }
class B extends A { int f(A o, int d) { return d * 2; } }
class Main {
  static void main() {
    A a = new A();
    A b = new B();
    int r = a.f(b, 0);
  }
}
|}
  in
  let _, e0, m0 = analyze src in
  let baseline = List.length (C.Engine.reachable_methods e0) in
  List.iter
    (fun seed ->
      let _, e, m = analyze ~random_order:seed src in
      Alcotest.(check int) "same reachable count" baseline
        (List.length (C.Engine.reachable_methods e));
      Alcotest.(check int) "same type checks" m0.C.Metrics.type_checks m.C.Metrics.type_checks;
      Alcotest.(check int) "same poly calls" m0.C.Metrics.poly_calls m.C.Metrics.poly_calls)
    [ 1; 7; 1234; 99991 ]

(* --------------------- devirtualization info -------------------------- *)

let test_devirtualization () =
  let src =
    {|
class B { int m() { return 0; } }
class B1 extends B { int m() { return 1; } }
class B2 extends B { int m() { return 2; } }
class Flags { static boolean two() { return false; } }
class Main {
  static void main() {
    B b = new B1();
    if (Flags.two()) { b = new B2(); }
    int r = b.m();
  }
}
|}
  in
  let _, _, m_sf = analyze src in
  let _, _, m_pta = analyze ~config:C.Config.pta src in
  (* SkipFlow proves B2 never allocated: the call devirtualizes *)
  Alcotest.(check int) "skipflow: no poly calls" 0 m_sf.C.Metrics.poly_calls;
  Alcotest.(check bool) "pta: the call stays polymorphic" true (m_pta.C.Metrics.poly_calls >= 1)

let suite =
  ( "engine",
    [
      Alcotest.test_case "Figure 8 fixed point" `Quick test_fig8_fixed_point;
      Alcotest.test_case "Figure 4 primitive predicates" `Quick test_fig4;
      Alcotest.test_case "Figure 5 value joins" `Quick test_fig5_join;
      Alcotest.test_case "field flows join stores" `Quick test_field_flow_join;
      Alcotest.test_case "unwritten field defaults to null" `Quick test_unwritten_field_default;
      Alcotest.test_case "root parameter seeding" `Quick test_root_param_seeding;
      Alcotest.test_case "saturation stays sound" `Quick test_saturation_sound;
      Alcotest.test_case "worklist-order independence" `Quick test_order_independence;
      Alcotest.test_case "devirtualization" `Quick test_devirtualization;
    ] )
