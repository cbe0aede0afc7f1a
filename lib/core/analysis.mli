(** Top-level analysis driver: build the engine, register roots, solve to
    the fixed point, collect metrics.  This is the main entry point for
    examples, tests, the CLI, and the benchmark harness. *)

type result = {
  config : Config.t;
  engine : Engine.t;
      (** the solved engine: reachable methods, per-flow value states *)
  outcome : Engine.outcome;
      (** {!Engine.Paused} only when a budget with [on_trip = `Pause]
          tripped; to finish the solve, restore the engine's
          {!Engine.snapshot_bytes} (optionally after a {!Snapshot.write}
          round trip) with {!Engine.of_snapshot_bytes} and {!rerun} it *)
  metrics : Metrics.t;
  trace : Trace.t;
      (** the run's counters, and — when requested at creation — its
          phase timings and solver event stream *)
  cpu_time_s : float;
      (** CPU time of graph construction + solving ([Sys.time]-based) *)
}

val run :
  ?config:Config.t ->
  ?random_order:int ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  Skipflow_ir.Program.t ->
  roots:Skipflow_ir.Program.meth list ->
  result
(** [run ~config prog ~roots] analyzes [prog] from the given root methods
    (default config: {!Config.skipflow}).  [random_order] processes the
    worklist in a seeded pseudo-random order instead of FIFO — the fixed
    point must not change; used by determinism tests.  [trace] (default a
    fresh quiet {!Trace.t}) receives the run's counters; when created with
    timers the driver records ["roots"] / ["solve"] / ["metrics"] phases
    into it, and with events the engine streams solver activity.
    [budget] (default {!Budget.unlimited}) caps the solve; see
    {!Engine.run} for its [on_trip] reactions. *)

val rerun :
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  Engine.t ->
  result
(** Drive an already-constructed engine (back) to its fixed point and
    recompute metrics: a solved engine that just gained roots via
    {!Engine.add_root} re-drains from the new roots' boundary flows
    only, and an engine {!Engine.of_snapshot_bytes} restored from a
    paused run resumes under this call's [budget] (default: none), whose
    task cap counts only the tasks this call drains.
    Either way monotone chaotic iteration lands on the fixed
    point a from-scratch solve reaches, flow by flow (pinned by the serve
    and snapshot tests).  [trace] defaults to the engine's own trace. *)

val roots_by_name :
  Skipflow_ir.Program.t ->
  string list ->
  (Skipflow_ir.Program.meth list, string) Stdlib.result
(** Resolve roots from ["Class.method"] names.  [Error msg] names the
    first root that does not resolve (unknown class, unknown method, or a
    name not of the form [Class.method]); no exception escapes. *)

val reachable_names : result -> string list
(** Qualified names of the reachable methods, in discovery order. *)
