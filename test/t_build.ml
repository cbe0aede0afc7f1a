(* PVPG construction tests (Appendix B, Figures 12-14): structural
   assertions on the graphs built for known programs, including the
   Figure 7 shape for the JDK motivating example. *)

open Skipflow_ir
module C = Skipflow_core
module F = Skipflow_frontend

(* Build the graph of one method without running the solver: use an engine
   but only add the method as a root with no seeding, then inspect. *)
let graph_of ?(config = C.Config.skipflow) src ~cls ~meth =
  let prog = F.Frontend.compile src in
  let c = Option.get (Program.find_class prog cls) in
  let m = Option.get (Program.find_meth prog c meth) in
  let e = C.Engine.create prog { config with C.Config.seed_root_params = false } in
  C.Engine.add_root e m;
  let g = Option.get (C.Engine.graph_of e m.Program.m_id) in
  (prog, e, g)

let count_kind g pred =
  Array.fold_left
    (fun n (f : C.Flow.t) -> if pred f.C.Flow.kind then n + 1 else n)
    0 g.C.Graph.g_flows

(* transitive reachability along predicate edges (the lowering introduces
   landing-pad merges, so a filter often predicates a flow through one or
   more phi_pred hops) *)
let pred_reaches (src : C.Flow.t) (dst : C.Flow.t) =
  let seen = Hashtbl.create 16 in
  let rec go (f : C.Flow.t) =
    f == dst
    || (not (Hashtbl.mem seen f.C.Flow.id))
       && begin
            Hashtbl.replace seen f.C.Flow.id ();
            List.exists go f.C.Flow.pred_out
          end
  in
  go src

let is_invoke = function C.Flow.Invoke _ -> true | _ -> false
let is_filter = function C.Flow.Filter _ -> true | _ -> false
let is_phi = function C.Flow.Phi -> true | _ -> false
let is_phi_pred = function C.Flow.Phi_pred -> true | _ -> false
let is_param = function C.Flow.Param _ -> true | _ -> false
let is_load = function C.Flow.Field_load _ -> true | _ -> false
let is_alloc = function C.Flow.Alloc _ -> true | _ -> false

let fig2_src =
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
class Main { static void main() { } }
|}

let test_on_exit_shape () =
  (* Figure 7, left: onExit has params this+thread, the isVirtual invoke,
     the constant 0, two filter pairs (== 0 / != 0), the field load, and
     the remove invoke *)
  let _, _, g = graph_of fig2_src ~cls:"Container" ~meth:"onExit" in
  Alcotest.(check int) "2 params" 2 (count_kind g is_param);
  Alcotest.(check int) "2 invokes (isVirtual, remove)" 2 (count_kind g is_invoke);
  Alcotest.(check int) "1 field load" 1 (count_kind g is_load);
  Alcotest.(check int) "4 filter flows (two per branch side)" 4 (count_kind g is_filter);
  (* the invoke observes its receiver *)
  let params =
    List.filter (fun (f : C.Flow.t) -> is_param f.C.Flow.kind) (Array.to_list g.C.Graph.g_flows)
  in
  let p_thread = List.nth params 1 in
  Alcotest.(check bool) "p_thread observed by an invoke" true
    (List.exists (fun (o : C.Flow.t) -> is_invoke o.C.Flow.kind) p_thread.C.Flow.observers);
  (* the invoke is a predicate for subsequent flows (invoke-as-predicate) *)
  let invokes =
    List.filter (fun (f : C.Flow.t) -> is_invoke f.C.Flow.kind) (Array.to_list g.C.Graph.g_flows)
  in
  Alcotest.(check bool) "isVirtual invoke has predicate successors" true
    (List.exists (fun (f : C.Flow.t) -> f.C.Flow.pred_out <> []) invokes)

let test_is_virtual_shape () =
  (* Figure 7, right: two instanceof filter flows, each the predicate of a
     constant source; a phi joining 1/0 feeding the return *)
  let _, _, g = graph_of fig2_src ~cls:"Thread" ~meth:"isVirtual" in
  Alcotest.(check int) "1 param (this)" 1 (count_kind g is_param);
  Alcotest.(check int) "2 instanceof filters" 2 (count_kind g is_filter);
  Alcotest.(check bool) "at least one phi" true (count_kind g is_phi >= 1);
  let filters =
    List.filter (fun (f : C.Flow.t) -> is_filter f.C.Flow.kind) (Array.to_list g.C.Graph.g_flows)
  in
  let sources =
    List.filter
      (fun (f : C.Flow.t) ->
        match f.C.Flow.kind with C.Flow.Source _ -> true | _ -> false)
      (Array.to_list g.C.Graph.g_flows)
  in
  List.iter
    (fun (f : C.Flow.t) ->
      Alcotest.(check bool) "filter predicates a source (transitively)" true
        (List.exists (fun s -> pred_reaches f s) sources))
    filters;
  (* the two filters are one positive, one negated instanceof *)
  let negs =
    List.filter_map
      (fun (f : C.Flow.t) ->
        match f.C.Flow.filter with
        | C.Flow.Instanceof { negated; _ } -> Some negated
        | _ -> None)
      filters
  in
  Alcotest.(check (slist bool compare)) "pos + neg" [ false; true ] negs

let test_branch_site_recorded () =
  let _, _, g = graph_of fig2_src ~cls:"Container" ~meth:"onExit" in
  match g.C.Graph.g_branches with
  | [ bs ] ->
      (* the isVirtual() condition is a primitive (boolean) check *)
      Alcotest.(check bool) "prim check" true (bs.C.Graph.bs_kind = C.Flow.Prim_check)
  | l -> Alcotest.failf "expected 1 branch site, got %d" (List.length l)

let test_merge_phi_pred () =
  (* Figure 5: a value join gets a phi predicated by the block's phi_pred *)
  let src =
    {|
class C {
  int m(C x) {
    int y = 0;
    if (x == null) { y = 5; } else { y = 10; }
    return y + 1;
  }
}
class Main { static void main() { } }
|}
  in
  let _, _, g = graph_of src ~cls:"C" ~meth:"m" in
  Alcotest.(check bool) "has phi_pred flows" true (count_kind g is_phi_pred >= 1);
  let phis = List.filter (fun (f : C.Flow.t) -> is_phi f.C.Flow.kind) (Array.to_list g.C.Graph.g_flows) in
  Alcotest.(check bool) "has a phi" true (phis <> []);
  (* every phi is the predicate-target of some phi_pred *)
  let phi_preds =
    List.filter (fun (f : C.Flow.t) -> is_phi_pred f.C.Flow.kind) (Array.to_list g.C.Graph.g_flows)
  in
  List.iter
    (fun (phi : C.Flow.t) ->
      Alcotest.(check bool) "phi predicated by a phi_pred" true
        (List.exists
           (fun (pp : C.Flow.t) -> List.memq phi pp.C.Flow.pred_out)
           phi_preds))
    phis;
  (* branch classified as null check *)
  match g.C.Graph.g_branches with
  | [ bs ] -> Alcotest.(check bool) "null check" true (bs.C.Graph.bs_kind = C.Flow.Null_check)
  | _ -> Alcotest.fail "expected one branch site"

let test_alloc_predicated_by_filter () =
  (* Figure 1: the allocation in the then-branch is predicated (directly or
     transitively) by the null-check filter flow, not by pred_on *)
  let src =
    {|
class D { }
class C {
  void m(D d) {
    if (d == null) { d = new D(); }
    int x = 1;
  }
}
class Main { static void main() { } }
|}
  in
  let _, _, g = graph_of src ~cls:"C" ~meth:"m" in
  let allocs =
    List.filter (fun (f : C.Flow.t) -> is_alloc f.C.Flow.kind) (Array.to_list g.C.Graph.g_flows)
  in
  Alcotest.(check int) "one alloc" 1 (List.length allocs);
  let alloc = List.hd allocs in
  (* the allocation must be gated (possibly through landing-pad phi_preds)
     by the == null filter flow, and by that one only *)
  let filters =
    List.filter (fun (f : C.Flow.t) -> is_filter f.C.Flow.kind) (Array.to_list g.C.Graph.g_flows)
  in
  let gating = List.filter (fun f -> pred_reaches f alloc) filters in
  Alcotest.(check bool) "alloc gated by a filter" true (gating <> [])

let test_binary_filter_edges () =
  (* Figure 14 initBinary: f_l uses lhs and observes rhs; f_r uses rhs and
     observes lhs; predicates chain pred -> f_l -> f_r *)
  let src =
    {|
class C {
  int m(int a, int b) { if (a < b) { return 1; } return 0; }
}
class Main { static void main() { } }
|}
  in
  let _, _, g = graph_of src ~cls:"C" ~meth:"m" in
  let filters =
    List.filter (fun (f : C.Flow.t) -> is_filter f.C.Flow.kind) (Array.to_list g.C.Graph.g_flows)
  in
  Alcotest.(check int) "four filters (two per side)" 4 (List.length filters);
  (* each branch side: an f_l that predicates an f_r *)
  let chained =
    List.filter
      (fun (f : C.Flow.t) ->
        List.exists (fun (t : C.Flow.t) -> is_filter t.C.Flow.kind) f.C.Flow.pred_out)
      filters
  in
  Alcotest.(check int) "two f_l -> f_r predicate chains" 2 (List.length chained);
  (* observe edges between operand flows and filters exist *)
  let operand_params =
    List.filter
      (fun (f : C.Flow.t) ->
        match f.C.Flow.kind with C.Flow.Param i -> i >= 1 | _ -> false)
      (Array.to_list g.C.Graph.g_flows)
  in
  Alcotest.(check int) "two compared operands" 2 (List.length operand_params);
  List.iter
    (fun (p : C.Flow.t) ->
      Alcotest.(check bool) "operand observed by filters" true
        (List.exists (fun (o : C.Flow.t) -> is_filter o.C.Flow.kind) p.C.Flow.observers))
    operand_params

let test_void_return_flow () =
  let src = {| class C { void m() { } } class Main { static void main() { } } |} in
  let _, e, g = graph_of src ~cls:"C" ~meth:"m" in
  ignore (C.Engine.run e);
  (* the void return flow produces the artificial token once reachable *)
  Alcotest.(check bool) "return enabled" true g.C.Graph.g_return.C.Flow.enabled;
  Alcotest.(check bool) "return state non-empty (token)" false
    (C.Vstate.is_empty g.C.Graph.g_return.C.Flow.state)

let test_defs_recorded () =
  let _, _, g = graph_of fig2_src ~cls:"Container" ~meth:"onExit" in
  let defined =
    Array.fold_left (fun n f -> if C.Flow.is_none f then n else n + 1) 0 g.C.Graph.g_defs
  in
  Alcotest.(check bool) "most vars have defining flows" true (defined >= 4)

let suite =
  ( "build",
    [
      Alcotest.test_case "onExit PVPG shape (Fig 7 left)" `Quick test_on_exit_shape;
      Alcotest.test_case "isVirtual PVPG shape (Fig 7 right)" `Quick test_is_virtual_shape;
      Alcotest.test_case "branch site recorded" `Quick test_branch_site_recorded;
      Alcotest.test_case "merge phi + phi_pred (Fig 5)" `Quick test_merge_phi_pred;
      Alcotest.test_case "alloc predicated by filter (Fig 1)" `Quick
        test_alloc_predicated_by_filter;
      Alcotest.test_case "binary filter edges (Fig 14)" `Quick test_binary_filter_edges;
      Alcotest.test_case "void return token" `Quick test_void_return_flow;
      Alcotest.test_case "per-var def flows recorded" `Quick test_defs_recorded;
    ] )
