(* The JDK motivating example (paper, Figure 2; PVPGs in Figures 7 and 8).

   SharedThreadContainer.onExit removes a thread from the virtual-thread
   set only if thread.isVirtual() — and isVirtual() is implemented as
   'this instanceof BaseVirtualThread'.  When the application never
   creates a virtual thread, SkipFlow propagates the constant 0 out of
   isVirtual(), the '!= 0' filtering flow stays empty, and remove() is
   never linked (the grey flows of Figure 8).

   This example prints the fixed-point value state of every flow in the
   two methods, mirroring Figure 8, and writes the PVPG as DOT.

   Run with:  dune exec examples/jdk_threads.exe
*)

open Skipflow_ir
module Api = Skipflow_api
module C = Skipflow_core
module F = Skipflow_frontend

let source ~with_virtual =
  Printf.sprintf
    {|
class Thread {
  boolean isVirtual() { return this instanceof BaseVirtualThread; }
}
class BaseVirtualThread extends Thread { }
class VirtualThread extends BaseVirtualThread { }
class ThreadSet {
  void remove(Thread t) { }
}
class SharedThreadContainer {
  var ThreadSet virtualThreads;
  void onExit(Thread thread) {
    if (thread.isVirtual()) {
      this.virtualThreads.remove(thread);
    }
  }
}
class Main {
  static void main() {
    SharedThreadContainer c = new SharedThreadContainer();
    c.virtualThreads = new ThreadSet();
    Thread t = new Thread();
    c.onExit(t);
    %s
  }
}
|}
    (if with_virtual then "c.onExit(new VirtualThread());" else "")

let dump prog engine qname =
  Program.iter_meths prog (fun m ->
      if String.equal (Program.qualified_name prog m.Program.m_id) qname then
        match C.Engine.graph_of engine m.Program.m_id with
        | None -> Printf.printf "--- %s: UNREACHABLE ---\n" qname
        | Some g ->
            Printf.printf "--- %s ---\n" qname;
            Array.iter
              (fun (f : C.Flow.t) ->
                Format.printf "  %-14s %-8s VS=%a@."
                  (C.Flow.kind_name f)
                  (if f.C.Flow.enabled then "enabled" else "disabled")
                  (C.Vstate.pp_named ~class_name:(Program.class_name prog))
                  f.C.Flow.state)
              g.C.Graph.g_flows)

let run ~with_virtual =
  Printf.printf "===== %s virtual threads =====\n"
    (if with_virtual then "WITH" else "WITHOUT");
  let prog = F.Frontend.compile (source ~with_virtual) in
  let main = Option.get (F.Frontend.main_of prog) in
  let r = Result.get_ok (Api.analyze_program ~config:C.Config.skipflow prog ~roots:[ main ]) in
  dump prog r.Api.engine "SharedThreadContainer.onExit";
  dump prog r.Api.engine "Thread.isVirtual";
  let remove_reachable =
    List.exists
      (fun (m : Program.meth) ->
        String.equal (Program.qualified_name prog m.Program.m_id) "ThreadSet.remove")
      (C.Engine.reachable_methods r.Api.engine)
  in
  Printf.printf "ThreadSet.remove: %s\n\n"
    (if remove_reachable then "REACHABLE" else "proven unreachable");
  (prog, r)

let () =
  let prog, r = run ~with_virtual:false in
  let _ = run ~with_virtual:true in
  let graphs =
    List.filter
      (fun (g : C.Graph.method_graph) ->
        List.mem
          (Program.qualified_name prog g.C.Graph.g_meth.Program.m_id)
          [ "SharedThreadContainer.onExit"; "Thread.isVirtual" ])
      (C.Engine.graphs r.Api.engine)
  in
  C.Dot.write_file prog ~path:"jdk_threads_pvpg.dot" graphs;
  print_endline "wrote jdk_threads_pvpg.dot (the Figure 7/8 graph)"
