(** PVPG construction: one method body (validated SSA) to its predicated
    value propagation graph (paper Section 4, Figures 7–8).

    {!run} is called by the engine once per method, when it becomes
    reachable — as a root, or when an invoke links it.  The context,
    built once per engine, carries the engine-owned pieces construction
    needs: the global always-on predicate, the per-field global flows,
    the emit callback that schedules work for every edge drawn, the hook
    that learns a method's linking points before its body is built, and
    the run's ["build."] counters, into which construction volume is
    accounted.

    The graph shares what it can: every flow of a method carries one
    [Some m_id], constant and branch flows take the shared kinds of
    {!Flow}, and the flow and definition tables are arrays. *)

open Skipflow_ir

type ctx = {
  prog : Program.t;
  config : Config.t;
  masks : Masks.t;
  pred_on : Flow.t;
      (** the engine's always-enabled global predicate flow *)
  emit : Edges.emit;
  field_flow : Ids.Field.t -> Flow.t;
      (** the engine's global per-field flow; used to link static field
          accesses at construction time (no receiver to observe) *)
  entered : Program.meth -> Flow.t list -> Flow.t -> unit;
      (** receives the method's parameter and return flows (its linking
          points) as soon as they exist, before the body is built: the
          body can enable a call to the method itself, and that link must
          find these flows instead of building a second graph *)
  c_methods : Trace.counter;  (** [build.methods]: graphs built *)
  c_flows : Trace.counter;
      (** [build.flows]: flows created, the return flow excluded *)
  c_edges : Trace.counter;  (** [build.edges]: edges drawn *)
}

val run : ctx -> Program.meth -> Graph.method_graph
(** Build the PVPG for one method.
    @raise Invalid_argument if the method has no body (abstract methods
    never become reachable). *)
