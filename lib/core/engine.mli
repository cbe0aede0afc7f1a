(** The fixed-point propagation engine: an operational implementation of
    the inference rules of Figure 15 (Appendix C).

    The engine drains a worklist of enable / input / notify work over the
    predicated value propagation graphs built by {!Build}.  Methods become
    reachable ([ℝ]) when their PVPG is built — as roots or when an invoke
    links them; virtual invokes resolve every type in the receiver's value
    state and link actual arguments to formal parameters and the callee
    return back to the invoke flow.

    All transfer functions are monotone over the finite-height lattice, so
    the fixed point is unique regardless of work order — which is why the
    worklist may collapse redundant work items (joins that change nothing,
    enables of already-enabled flows, notifies of already-queued
    observers) without changing any result.  Input values are joined into
    VS_in eagerly at emit time, and at most one entry per flow is queued,
    with dirty-kind bits stored on the flow itself. *)

(** How {!run} ended.  [Paused trip] is returned only in pause-on-budget
    mode: the engine stopped at a task boundary because the [trip] cap
    tripped in this run.  Serialize the engine with {!snapshot_bytes} (or
    persist it with {!save_snapshot}), restore it with
    {!of_snapshot_bytes} / {!load_snapshot} and [run] it to continue to
    the {e identical} fixed point. *)
type outcome = Completed | Paused of Budget.trip

(** An immutable snapshot of the run's counters (see {!Trace}); the
    engine's live accounting is a set of registered {!Trace.counter}s in
    the trace passed to {!create}, under the ["engine."] name prefix. *)
type stats = {
  tasks_processed : int;  (** worklist entries drained *)
  input_tasks : int;  (** input work items processed *)
  enable_tasks : int;  (** enable work items processed *)
  notify_tasks : int;  (** notify work items processed *)
  dedup_input : int;  (** input emits collapsed into pending work *)
  dedup_enable : int;  (** enable emits collapsed (already enabled/queued) *)
  dedup_notify : int;  (** notify emits collapsed (already queued) *)
  use_edges : int;  (** counted at link time only *)
  links : int;
  max_queue : int;
  live_flows : int;  (** flows created across all reachable PVPGs *)
  budget_trips : int;  (** budget-cap trip events (0 or 1 per run) *)
  trip_tasks : int;
      (** [tasks_processed] at the engine's latest trip (0 when none
          did).  A run that started at [s] tasks trips its [max_tasks n]
          at no more than [s + n]: the links made inside a task count
          toward the cap too *)
  trip_flows : int;
      (** live flows at the engine's latest trip (0 when none did); the
          budget regression test pins its distance from [max_flows] *)
  degraded : bool;  (** a budget trip switched the run to degradation mode *)
  first_trip : Budget.trip option;  (** which cap tripped first *)
}

val dedup_hits : stats -> int
(** Total emits collapsed into already-pending work
    ([dedup_input + dedup_enable + dedup_notify]). *)

type t

val create : ?trace:Trace.t -> Skipflow_ir.Program.t -> Config.t -> t
(** [trace] (default a fresh quiet {!Trace.t}) receives the engine's
    counters and — when its events are enabled — the solver event stream
    (joins, enables, links, invoke resolutions, saturation trips, budget
    degradations). *)

val add_root : t -> Skipflow_ir.Program.meth -> unit
(** Make a method an analysis root (building its PVPG).  Under the
    config's [seed_root_params], its object parameters are seeded with
    all instantiated subtypes of their declared type and its primitives
    with [Any] — the Section 5 reflection/JNI root policy. *)

val run : ?random_order:int -> ?budget:Budget.t -> t -> outcome
(** Drain the worklist to the fixed point.  With [random_order:seed],
    pending work is picked pseudo-randomly instead of FIFO; the fixed
    point must not change (checked by the property tests).

    The run honors [budget] (default {!Budget.unlimited}), an argument
    of this run only: neither the engine nor its snapshot keeps it.
    [max_tasks] counts the tasks this run drains and [max_seconds] this
    run's wall time, so a resumed engine's earlier work does not count;
    [max_flows] caps the engine's whole graph.  Every trip increments
    [stats.budget_trips] and records [trip_tasks]/[trip_flows];
    [first_trip] keeps the cap that tripped first.  The budget's
    [on_trip] field selects the reaction:

    - [`Degrade] (default): the engine does not abort — it switches to
      degradation mode (all flows enabled, object flows saturated to the
      all-instantiated set, primitive flows widened to [Any]) and
      finishes at a sound but coarser fixed point.  [stats.degraded]
      records that this happened; the degraded reachable-method set is
      always a superset of the precise one.
    - [`Pause]: nothing is widened — the engine stops at the next task
      boundary and returns [Paused trip], naming the cap.  Resuming the
      engine's snapshot ([run] it again, as often as a pausing budget
      needs) continues to the identical fixed point, flow by flow.

    Budget caps are checked after every drained task {e and}, via an
    in-task probe, after every interprocedural link (the task's links
    count as work, see {!Budget.check}), so a single invoke resolving
    many callees cannot overshoot a cap unboundedly. *)

(** {2 Checkpointing}

    An engine at a task boundary — a paused one included — serializes to
    a byte string (all solver state: flow value states, predicate
    enablement, pending dirty work in queue order, link/seen sets,
    saturation flags, counters).  The bytes are a
    [Marshal] image — treat them as opaque and, when persisting, wrap
    them in the {!Snapshot} container ({!save_snapshot} /
    {!load_snapshot}), which adds the magic, schema version, and CRC that
    make stale or corrupt files a reported error instead of undefined
    behavior. *)

val snapshot_kind : string
(** The {!Snapshot} container kind tag for engine state (["engine-state"]). *)

val snapshot_version : int
(** The engine-state payload schema version; {!load_snapshot} rejects
    files written by a build with a different one. *)

val snapshot_bytes : t -> string
(** Serialize the engine's complete solver state (non-destructively; the
    engine remains usable).  Meaningful at task boundaries — i.e. on a
    fresh engine, after [run] returned, or on the engine a [Paused]
    outcome was produced from. *)

val of_snapshot_bytes :
  ?trace:Trace.t ->
  ?prog:Skipflow_ir.Program.t ->
  string ->
  (t, string) result
(** Rebuild an engine from {!snapshot_bytes} output.  The engine shares
    no mutable state with any other, the one the bytes came from
    included.  [trace] (default:
    a fresh quiet one) receives the restored counter values, so a resumed
    run's totals continue from the paused run's.  The bytes hold no
    budget: the resumed {!run} takes its own.  [prog]
    binds the engine to another compile of the snapshotted program: the
    engine reads its methods, bodies and hierarchy from [prog] instead.
    The caller guarantees that [prog] has the same class, method and
    field ids and the same reachable bodies, as the serve daemon's
    fingerprints do; a [prog] whose class or method count differs, or
    that lacks a body for a reachable method, is an [Error].  Returns
    [Error message] if the bytes cannot be decoded. *)

val save_snapshot : t -> path:string -> (unit, Snapshot.error) result
(** {!snapshot_bytes} wrapped in the {!Snapshot} container (kind
    ["engine-state"]), written atomically. *)

val load_snapshot : ?trace:Trace.t -> string -> (t, Snapshot.error) result
(** Read back a {!save_snapshot} file.  Truncation, bit flips, foreign
    files, and stale schema versions come back as the corresponding
    {!Snapshot.error}; an intact container whose payload fails to decode
    is {!Snapshot.Bad_payload}. *)

(** {2 Results} *)

val prog_of : t -> Skipflow_ir.Program.t
val config_of : t -> Config.t

val roots : t -> Skipflow_ir.Ids.Meth.Set.t
(** The methods registered via {!add_root} (never reported dead by
    clients — they are reachable by assumption). *)

val is_reachable : t -> Skipflow_ir.Ids.Meth.t -> bool

val reachable_methods : t -> Skipflow_ir.Program.meth list
(** In discovery order. *)

val reachable_count : t -> int

val graphs : t -> Graph.method_graph list
(** The per-method PVPGs with their fixed-point flow states, in discovery
    order. *)

val graph_of : t -> Skipflow_ir.Ids.Meth.t -> Graph.method_graph option
val instantiated_types : t -> Skipflow_ir.Ids.Class.t list

val instantiated : t -> Typeset.t
(** The instantiated-type set as a typeset (what virtual resolution and
    the certifier iterate for conservative [Any] receivers). *)

val is_degraded : t -> bool
(** Whether a budget trip switched this run to degradation mode. *)

val stats : t -> stats
(** A snapshot of the engine counters at the moment of the call. *)

val trace_of : t -> Trace.t
(** The trace this engine accounts into (the one given to {!create}). *)

(** {2 Internals exposed for {!Verify}} *)

val field_flow : t -> Skipflow_ir.Ids.Field.t -> Flow.t
(** The global per-declared-field flow ([LookUp]'s codomain), created on
    first use with the field's Java default value. *)

val global_flows : t -> Flow.t list
(** The flows no method owns: [pred_on], the per-field flows created so
    far, and the all-instantiated flows. *)
