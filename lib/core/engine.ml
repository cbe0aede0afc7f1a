(** The fixed-point propagation engine: an operational implementation of
    the inference rules of Figure 15 (Appendix C).

    The engine schedules three kinds of propagation work:

    - {e input}: join a value into a flow's VS_in (the Propagate / Load /
      Store / Invoke-linking rules push values this way);
    - {e enable}: mark a flow executable (the Predicate rule);
    - {e notify}: re-run a flow's flow-specific action because an observed
      flow's state changed (method resolution and linking for invokes,
      field linking for loads/stores, re-filtering for comparison filters).

    The worklist is deduplicated: an input emit performs the value join
    into [Flow.raw] {e eagerly} and enqueues the flow only if the join
    changed something and the flow is not already pending (scheduling
    bits live on {!Flow.t}); an enable emit on an already-enabled flow and
    a notify emit on an already-queued observer collapse to no-ops.  The
    queue itself is {!Worklist}: a ring buffer of the pending flows, not
    boxed task values.  All transfer functions are monotone over the
    finite-height lattice [𝕃], so the schedule does not change the fixed
    point; the test-suite checks it, flow by flow and link set by link
    set, against a naive round-robin solver of the same rules.

    Methods become reachable ([ℝ] in the paper) when their PVPG is built:
    either as analysis roots or when an invoke links them.  Virtual invokes
    resolve every type in the receiver's value state with [Resolve] and link
    actual-argument flows to formal-parameter flows and the callee's return
    flow back to the invoke flow (which represents the returned value in the
    caller). *)

open Skipflow_ir

(** How {!run} ended: at the fixed point, or — in pause-on-budget mode —
    suspended at a task boundary by the given cap ({!snapshot_bytes} +
    {!of_snapshot_bytes} continue to the {e identical} fixed point). *)
type outcome = Completed | Paused of Budget.trip

(** Work and graph-growth accounting, snapshotted from the engine's
    {!Trace} counter registry by {!stats}.  The record is immutable: the
    live, always-updating values are the registry counters themselves
    (names under ["engine."], readable through {!trace_of}). *)
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
  trip_tasks : int;  (** tasks drained at the latest trip (0: no trip) *)
  trip_flows : int;  (** live flows at the latest trip (0: no trip) *)
  degraded : bool;  (** a budget trip switched the run to degradation mode *)
  first_trip : Budget.trip option;  (** which cap tripped first *)
}

let dedup_hits s = s.dedup_input + s.dedup_enable + s.dedup_notify

(** The engine's registered counters — monotonic boxes in the run's
    {!Trace} registry; incrementing one is a single store, exactly what
    the old mutable stats fields cost. *)
type counters = {
  c_tasks : Trace.counter;
  c_input : Trace.counter;
  c_enable : Trace.counter;
  c_notify : Trace.counter;
  c_dedup_input : Trace.counter;
  c_dedup_enable : Trace.counter;
  c_dedup_notify : Trace.counter;
  c_use_edges : Trace.counter;
  c_links : Trace.counter;
  c_max_queue : Trace.counter;
  c_live_flows : Trace.counter;
  c_budget_trips : Trace.counter;
  c_trip_tasks : Trace.counter;
  c_trip_flows : Trace.counter;
  c_build_us : Trace.counter;
      (** wall time spent constructing PVPGs, accumulated across every
          {!Build.run} call (only ticks when the trace has timers on) *)
  c_build_methods : Trace.counter;
  c_build_flows : Trace.counter;
  c_build_edges : Trace.counter;
}

let register_counters tr =
  {
    c_tasks = Trace.counter tr "engine.tasks_processed";
    c_input = Trace.counter tr "engine.input_tasks";
    c_enable = Trace.counter tr "engine.enable_tasks";
    c_notify = Trace.counter tr "engine.notify_tasks";
    c_dedup_input = Trace.counter tr "engine.dedup_input";
    c_dedup_enable = Trace.counter tr "engine.dedup_enable";
    c_dedup_notify = Trace.counter tr "engine.dedup_notify";
    c_use_edges = Trace.counter tr "engine.use_edges";
    c_links = Trace.counter tr "engine.links";
    c_max_queue = Trace.counter tr "engine.max_queue";
    c_live_flows = Trace.counter tr "engine.live_flows";
    c_budget_trips = Trace.counter tr "engine.budget_trips";
    c_trip_tasks = Trace.counter tr "engine.trip_tasks";
    c_trip_flows = Trace.counter tr "engine.trip_flows";
    c_build_us = Trace.counter tr "build.wall_us";
    c_build_methods = Trace.counter tr "build.methods";
    c_build_flows = Trace.counter tr "build.flows";
    c_build_edges = Trace.counter tr "build.edges";
  }

type t = {
  prog : Program.t;
  config : Config.t;
  masks : Masks.t;
  trace : Trace.t;  (** counter registry + optional timers / event buffer *)
  c : counters;
  wl : Worklist.t;  (** the deduplicated ring of dirty flows *)
  emit : Edges.emit;  (** this engine's scheduling hooks (knot-tied in {!thaw}) *)
  build : Build.ctx;  (** the construction context, shared by every {!Build.run} *)
  graphs : Graph.method_graph Ids.Meth.Tbl.t;
  building : (Flow.t list * Flow.t) Ids.Meth.Tbl.t;
      (** the parameter and return flows of each method whose graph
          {!Build.run} is building now (see [Build.ctx.entered]); empty
          between tasks, so never part of an image *)
  mutable reachable_order : Program.meth list;  (** reverse discovery order *)
  mutable roots : Ids.Meth.Set.t;  (** methods registered via {!add_root} *)
  field_flows : Flow.t Ids.Field.Tbl.t;
  all_inst : Flow.t Ids.Class.Tbl.t;
  all_inst_rev : Flow.t list array;
      (** reverse subtype index: class id -> the [all_inst] flows whose
          subtype mask contains it, so {!mark_instantiated} updates exactly
          the affected flows instead of scanning the whole table *)
  all_inst_any : Flow.t;
      (** all instantiated types, regardless of declared type; feeds
          saturated flows *)
  mutable instantiated : Typeset.t;
  pred_on : Flow.t;
  mutable sync_depth : int;
      (** current depth of synchronous (drain-free) processing; beyond
          {!sync_depth_limit} the work is scheduled instead, keeping the
          OCaml stack bounded on deep predicate/call chains *)
  mutable degraded : bool;  (** a budget trip switched the run to degradation mode *)
  mutable first_trip : Budget.trip option;  (** which cap tripped first *)
  mutable probe : unit -> unit;
      (** in-flight budget probe, installed by {!run} for the duration of
          the drain and called inside the invoke/field re-resolution loops
          so a single mega-flow cannot overshoot the budget by more than
          one link's worth of work; a no-op outside a run *)
}

let flow_meth_id (f : Flow.t) =
  match f.Flow.meth with Some m -> Ids.Meth.to_int m | None -> -1

let sync_depth_limit = 200

let always_on kind state =
  let f = Flow.make kind in
  f.Flow.enabled <- true;
  f.Flow.raw <- state;
  f.Flow.state <- state;
  f

(* ---------------------------- scheduling ------------------------------ *)

(** Set a dirty bit and enqueue the flow unless it is already pending.
    Returns [false] when the work merged into an existing entry. *)
let schedule t (f : Flow.t) bit =
  let w = f.Flow.work in
  f.Flow.work <- w lor bit lor Flow.wk_pending;
  if w land Flow.wk_pending = 0 then begin
    Worklist.push t.wl f;
    Trace.record_max t.c.c_max_queue (Worklist.length t.wl);
    true
  end
  else false

(* ------------------------- global flows ------------------------------ *)

(** The global flow holding all instantiated subtypes of [c] (including
    types instantiated later).  Implements the "any instantiated subtype of
    the declared type" policy for root-method parameters (Section 5). *)
let all_inst_flow t (c : Ids.Class.t) =
  match Ids.Class.Tbl.find_opt t.all_inst c with
  | Some f -> f
  | None ->
      let mask = Masks.sub t.masks c in
      let init = Vstate.types (Typeset.inter t.instantiated mask) in
      let f = always_on (Flow.All_instantiated c) init in
      Ids.Class.Tbl.replace t.all_inst c f;
      (* register in the reverse index so later instantiations of any
         subtype reach this flow directly *)
      Typeset.iter
        (fun ci -> t.all_inst_rev.(ci) <- f :: t.all_inst_rev.(ci))
        mask;
      f

(** Default value of a field before any store is observed: [null] for
    object fields, [0] for primitive fields (Java default initialization;
    needed for soundness with respect to the concrete interpreter). *)
let field_default t (fld : Program.field) =
  match fld.Program.f_ty with
  | Ty.Obj _ | Ty.Null -> Vstate.null
  | Ty.Int | Ty.Bool -> if t.config.Config.primitives then Vstate.const 0 else Vstate.any
  | Ty.Void -> Vstate.empty

let field_flow t (fid : Ids.Field.t) =
  match Ids.Field.Tbl.find_opt t.field_flows fid with
  | Some f -> f
  | None ->
      let fld = Program.field t.prog fid in
      let f = always_on (Flow.Field_state fid) (field_default t fld) in
      Ids.Field.Tbl.replace t.field_flows fid f;
      f

(* --------------------------- propagation ------------------------------ *)

let gen_value t (f : Flow.t) =
  match f.Flow.kind with
  | Flow.Source v -> v
  | Flow.Alloc c -> Vstate.of_class c
  | Flow.Phi_pred -> Vstate.const 1 (* reachability token *)
  | Flow.Return -> (
      (* A method with void return type still returns the predicate of the
         return instruction as an artificial value (Section 3). *)
      match f.Flow.meth with
      | Some m when Ty.equal (Program.meth t.prog m).Program.m_ret_ty Ty.Void ->
          Vstate.const 0
      | _ -> Vstate.empty)
  | _ -> Vstate.empty

(* The emit functions, state-change propagation, and the reachability /
   linking rules are one mutually recursive block: the deduplicated
   engine processes cheap-to-collapse work {e synchronously} instead of
   scheduling a drain for it —

   - an input emit on a {e disabled} flow folds the filter in place
     (disabled flows push nothing to uses/preds, so only observers must
     hear about the growth, and notifying them is itself an emit);
   - an enable emit runs {!enable} immediately (a flow is enabled at most
     once, so there is never a second enable to merge with), up to
     {!sync_depth_limit} — past it, deep predicate/call chains fall back
     to the worklist so the OCaml stack stays bounded.

   Both are just different schedules of the same chaotic iteration: all
   transfer functions are monotone joins, so the fixed point is unchanged
   (the tests check it against a naive solver). *)

(* Which primitive sublattice joins and comparison filters run on —
   threaded from the configuration into every join/filter site so flat
   runs stay bit-identical to the pre-product engine. *)
let pval_of t = t.config.Config.pval

let rec emit_input t (f : Flow.t) v =
  (* the join happens here, eagerly: a value already below VS_in needs no
     task at all, and concurrent growth merges into one drain.  The [leq]
     test first keeps the common already-subsumed case allocation-free (no
     union is built); when it fails the join is a strict growth, so no
     equality re-check is needed either. *)
  if Vstate.leq v f.Flow.raw then Trace.incr t.c.c_dedup_input
  else begin
    f.Flow.raw <- Vstate.join ~pval:(pval_of t) f.Flow.raw v;
    if not f.Flow.enabled then begin
      Trace.incr t.c.c_input;
      recompute t f
    end
    else if not (schedule t f Flow.wk_recompute) then
      Trace.incr t.c.c_dedup_input
  end

and emit_enable t (f : Flow.t) =
  if f.Flow.enabled || f.Flow.work land Flow.wk_enable <> 0 then
    Trace.incr t.c.c_dedup_enable
  else if t.sync_depth < sync_depth_limit then begin
    Trace.incr t.c.c_enable;
    t.sync_depth <- t.sync_depth + 1;
    enable t f;
    t.sync_depth <- t.sync_depth - 1
  end
  else if not (schedule t f Flow.wk_enable) then
    Trace.incr t.c.c_dedup_enable

and emit_notify t (f : Flow.t) =
  if f.Flow.work land Flow.wk_notify <> 0 then
    Trace.incr t.c.c_dedup_notify
  else if not (schedule t f Flow.wk_notify) then
    Trace.incr t.c.c_dedup_notify

and saturate_check t (f : Flow.t) (s : Vstate.t) =
  match (t.config.Config.saturation, s) with
  | Some cutoff, Vstate.Types ts
    when (not f.Flow.saturated) && Typeset.cardinal ts > cutoff ->
      f.Flow.saturated <- true;
      if Trace.events_on t.trace then
        Trace.event t.trace ~kind:"saturate" ~flow:f.Flow.id
          ~meth:(flow_meth_id f) ~arg:(Typeset.cardinal ts) ();
      Edges.use_edge ~emit:t.emit t.all_inst_any f
  | _ -> ()

and on_state_change t (f : Flow.t) =
  if f.Flow.enabled then begin
    if not (Vstate.is_empty f.Flow.state) then begin
      List.iter (fun u -> emit_input t u f.Flow.state) f.Flow.uses;
      List.iter (fun p -> emit_enable t p) f.Flow.pred_out
    end
  end;
  List.iter (fun o -> emit_notify t o) f.Flow.observers

and recompute t (f : Flow.t) =
  let s = Flow.apply_filter ~pval:(pval_of t) f f.Flow.raw in
  (* Joining with the previous state keeps the per-flow state monotone
     even while an observed operand is still growing; the [leq] test makes
     the already-covered case allocation-free. *)
  if not (Vstate.leq s f.Flow.state) then begin
    let s = Vstate.join ~pval:(pval_of t) f.Flow.state s in
    f.Flow.state <- s;
    if Trace.events_on t.trace then
      Trace.event t.trace ~kind:"join" ~flow:f.Flow.id ~meth:(flow_meth_id f) ();
    saturate_check t f s;
    on_state_change t f
  end

(** Synchronous join-and-recompute, used by {!mark_instantiated} (which
    updates global flows directly). *)
and input t (f : Flow.t) v =
  if not (Vstate.leq v f.Flow.raw) then begin
    f.Flow.raw <- Vstate.join ~pval:(pval_of t) f.Flow.raw v;
    recompute t f
  end

(** Degradation mode (budget exhaustion): precision is abandoned, never
    soundness.  Every flow is force-enabled (as in the no-predicates
    baseline); flows holding type sets are saturated onto the global
    all-instantiated flow — exactly the paper's saturation mechanism with
    cutoff 0 — and everything else is widened to the lattice top [Any].
    The result, once the worklist re-drains, is a sound but much coarser
    fixed point: the degraded reachable-method set is a superset of the
    precise one (a property the fuzz harness asserts). *)
and degrade_flow t (f : Flow.t) =
  emit_enable t f;
  (if not f.Flow.saturated then
     match f.Flow.raw with
     | Vstate.Types _ ->
         f.Flow.saturated <- true;
         Edges.use_edge ~emit:t.emit t.all_inst_any f
     | Vstate.Empty | Vstate.Prim _ | Vstate.Any -> emit_input t f Vstate.any);
  (* re-run the flow-specific action against the widened operand states *)
  match f.Flow.kind with
  | Flow.Invoke _ | Flow.Field_load _ | Flow.Field_store _ -> emit_notify t f
  | _ -> ()

(* ----------------------- reachability & linking ----------------------- *)

and ensure_reachable t (m : Program.meth) =
  match Ids.Meth.Tbl.find_opt t.graphs m.Program.m_id with
  | Some g -> g
  | None ->
      let g = Trace.timed t.trace t.c.c_build_us (fun () -> Build.run t.build m) in
      Ids.Meth.Tbl.remove t.building m.Program.m_id;
      Ids.Meth.Tbl.replace t.graphs m.Program.m_id g;
      t.reachable_order <- m :: t.reachable_order;
      Trace.add t.c.c_live_flows (Graph.flow_count g);
      if Trace.events_on t.trace then
        Trace.event t.trace ~kind:"reachable" ~meth:(Ids.Meth.to_int m.Program.m_id)
          ~arg:(Graph.flow_count g) ();
      (* Degradation mode: methods discovered after the budget tripped are
         coarsened on arrival, like everything built before the trip. *)
      if t.degraded then Array.iter (degrade_flow t) g.Graph.g_flows
      else if not t.config.Config.predicates then
        (* Baseline configuration: no predicate edges — every flow of a
           reachable method propagates unconditionally. *)
        Array.iter (fun f -> emit_enable t f) g.Graph.g_flows;
      g

and link_callee t (inv_flow : Flow.t) (inv : Flow.invoke_site) (callee : Program.meth) =
  if not (Ids.Meth.Set.mem callee.Program.m_id inv.Flow.inv_linked) then begin
    inv.Flow.inv_linked <- Ids.Meth.Set.add callee.Program.m_id inv.Flow.inv_linked;
    Trace.incr t.c.c_links;
    if Trace.events_on t.trace then
      Trace.event t.trace ~kind:"link" ~flow:inv_flow.Flow.id
        ~meth:(flow_meth_id inv_flow)
        ~arg:(Ids.Meth.to_int callee.Program.m_id) ();
    let params, return =
      match Ids.Meth.Tbl.find_opt t.building callee.Program.m_id with
      | Some entry -> entry (* a recursive call, enabled while [callee] is built *)
      | None ->
          let cg = ensure_reachable t callee in
          (cg.Graph.g_params, cg.Graph.g_return)
    in
    let actuals =
      match inv.Flow.inv_recv with
      | Some r when not callee.Program.m_static -> r :: inv.Flow.inv_args
      | _ -> inv.Flow.inv_args
    in
    (if List.length actuals <> List.length params then
       invalid_arg
         (Printf.sprintf "Engine: arity mismatch calling %s (%d actuals, %d formals)"
            (Program.qualified_name t.prog callee.Program.m_id)
            (List.length actuals) (List.length params)));
    List.iter2
      (fun a p ->
        Trace.incr t.c.c_use_edges;
        Edges.use_edge ~emit:t.emit a p)
      actuals params;
    (* the invoke flow represents the returned value in the caller *)
    Edges.use_edge ~emit:t.emit return inv_flow
  end

(** The Invoke rule: resolve and link every possible callee.  Virtual
    invokes resolve per receiver type; [null] receivers resolve to nothing
    (a would-be NullPointerException, which the analysis does not model). *)
and try_link t (f : Flow.t) =
  match f.Flow.kind with
  | Flow.Invoke inv when f.Flow.enabled ->
      if inv.Flow.inv_virtual then begin
        let recv =
          match inv.Flow.inv_recv with
          | Some r -> r
          | None -> invalid_arg "Engine: virtual invoke without receiver"
        in
        let tyset =
          match recv.Flow.state with
          | Vstate.Types ts -> ts
          | Vstate.Any ->
              (* Object flows never reach [Any] in well-typed programs;
                 be conservative if they do. *)
              t.instantiated
          | Vstate.Empty | Vstate.Prim _ -> Typeset.empty
        in
        (* difference propagation: the receiver state only grows, and
           [Resolve] is deterministic, so types resolved on an earlier
           notify can be skipped without changing the fixed point *)
        let fresh = Typeset.diff tyset inv.Flow.inv_seen in
        inv.Flow.inv_seen <- Typeset.union inv.Flow.inv_seen tyset;
        if Trace.events_on t.trace && not (Typeset.is_empty fresh) then
          Trace.event t.trace ~kind:"resolve" ~flow:f.Flow.id
            ~meth:(flow_meth_id f) ~arg:(Typeset.cardinal fresh) ();
        Typeset.iter_classes
          (fun c ->
            if not (Program.is_null_class c) then
              match Program.resolve t.prog ~recv_cls:c ~target:inv.Flow.inv_target with
              | Some callee ->
                  link_callee t f inv callee;
                  (* a single invoke task can resolve arbitrarily many
                     callees; let the budget see each one *)
                  t.probe ()
              | None -> ())
          fresh
      end
      else
        link_callee t f inv (Program.meth t.prog inv.Flow.inv_target)
  | _ -> ()

(** The Load / Store rules: connect the instruction flow with the global
    per-declared-field flows ([LookUp]) of every type in the receiver's
    value state. *)
and try_field t (f : Flow.t) =
  if f.Flow.enabled then
    match f.Flow.kind with
    | Flow.Field_load fa | Flow.Field_store fa ->
        let tyset =
          match fa.Flow.fa_recv.Flow.state with
          | Vstate.Any ->
              (* Object flows only reach [Any] under degradation mode; be
                 conservative, as the Invoke rule is. *)
              t.instantiated
          | s -> Vstate.type_set s
        in
        (* delta processing, as in the Invoke rule: [LookUp] is
           deterministic, so seen receiver types can be skipped *)
        let fresh = Typeset.diff tyset fa.Flow.fa_seen in
        fa.Flow.fa_seen <- Typeset.union fa.Flow.fa_seen tyset;
        Typeset.iter_classes
          (fun c ->
            if not (Program.is_null_class c) then
              match Program.lookup_field t.prog ~recv_cls:c ~field:fa.Flow.fa_field with
              | Some fld ->
                  if not (Ids.Field.Set.mem fld.Program.f_id fa.Flow.fa_linked) then begin
                    fa.Flow.fa_linked <-
                      Ids.Field.Set.add fld.Program.f_id fa.Flow.fa_linked;
                    let ff = field_flow t fld.Program.f_id in
                    (match f.Flow.kind with
                    | Flow.Field_load _ -> Edges.use_edge ~emit:t.emit ff f
                    | _ -> Edges.use_edge ~emit:t.emit f ff);
                    t.probe ()
                  end
              | None -> ())
          fresh
    | _ -> ()

and mark_instantiated t (c : Ids.Class.t) =
  if not (Typeset.class_mem c t.instantiated) then begin
    t.instantiated <- Typeset.class_add c t.instantiated;
    let v = Vstate.of_class c in
    input t t.all_inst_any v;
    (* only the all-inst flows whose subtype mask contains [c], via the
       reverse index — not the whole table *)
    List.iter (fun f -> input t f v) t.all_inst_rev.(Ids.Class.to_int c)
  end

and enable t (f : Flow.t) =
  if not f.Flow.enabled then begin
    f.Flow.enabled <- true;
    if Trace.events_on t.trace then
      Trace.event t.trace ~kind:"enable" ~flow:f.Flow.id ~meth:(flow_meth_id f) ();
    (match f.Flow.kind with Flow.Alloc c -> mark_instantiated t c | _ -> ());
    let gv = gen_value t f in
    let pval = pval_of t in
    if not (Vstate.is_empty gv) then
      f.Flow.raw <- Vstate.join ~pval f.Flow.raw gv;
    let s = Vstate.join ~pval f.Flow.state (Flow.apply_filter ~pval f f.Flow.raw) in
    f.Flow.state <- s;
    saturate_check t f s;
    (* Becoming enabled makes the (possibly previously accumulated) state
       visible to use/predicate successors for the first time, and counts
       as a state change for observers. *)
    on_state_change t f;
    (* enabling gates the flow-specific actions of Figure 15 *)
    match f.Flow.kind with
    | Flow.Invoke _ -> try_link t f
    | Flow.Field_load _ | Flow.Field_store _ -> try_field t f
    | _ -> ()
  end

and notify t (f : Flow.t) =
  match f.Flow.kind with
  | Flow.Invoke _ -> try_link t f
  | Flow.Field_load _ | Flow.Field_store _ -> try_field t f
  | _ ->
      (* comparison filters re-apply their condition against the observed
         operand's new state *)
      recompute t f

let degrade t =
  t.degraded <- true;
  (* iterate a snapshot of the discovery list, not the table: degrading
     a flow can link new callees synchronously, growing [t.graphs]
     mid-walk (methods added during the walk are degraded on arrival by
     {!ensure_reachable}) *)
  List.iter
    (fun (m : Program.meth) ->
      match Ids.Meth.Tbl.find_opt t.graphs m.Program.m_id with
      | Some g -> Array.iter (degrade_flow t) g.Graph.g_flows
      | None -> ())
    t.reachable_order

(* --------------------------- construction ----------------------------- *)

(** The marshalable image of an engine: every piece of [t] except the
    trace registry (counters travel as a name/value list), the worklist
    (pending work travels as the flows themselves, dirty bits intact), and
    the [emit] closures and construction context (re-tied by {!thaw}).  Flow ids are
    process-global, so the image also records the id counter;
    {!of_snapshot_bytes} bumps {!Flow.next_id} so ids minted after a
    resume never collide with snapshotted ones. *)
type frozen = {
  fz_prog : Program.t;
  fz_config : Config.t;
  fz_graphs : Graph.method_graph Ids.Meth.Tbl.t;
  fz_reachable_order : Program.meth list;
  fz_roots : Ids.Meth.Set.t;
  fz_field_flows : Flow.t Ids.Field.Tbl.t;
  fz_all_inst : Flow.t Ids.Class.Tbl.t;
  fz_all_inst_rev : Flow.t list array;
  fz_all_inst_any : Flow.t;
  fz_instantiated : Typeset.t;
  fz_pred_on : Flow.t;
  fz_pending : Flow.t array;  (** worklist contents, queue order *)
  fz_counters : (string * int) list;
  fz_next_flow_id : int;
  fz_degraded : bool;
  fz_first_trip : Budget.trip option;
}

(** The one constructor: {!create} and {!of_snapshot_bytes} both build
    their engine from an image here.  [wl] is created by the caller,
    before any flow of the image is minted, so flow ids keep their order. *)
let thaw ?trace wl fz =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  ignore (Program.freeze fz.fz_prog);
  let masks = Masks.compute fz.fz_prog and c = register_counters trace in
  (* the knot: [emit] and [build] close over the engine they belong to *)
  let rec t =
    {
      prog = fz.fz_prog;
      config = fz.fz_config;
      masks;
      trace;
      c;
      wl;
      emit;
      build;
      graphs = fz.fz_graphs;
      building = Ids.Meth.Tbl.create 8;
      reachable_order = fz.fz_reachable_order;
      roots = fz.fz_roots;
      field_flows = fz.fz_field_flows;
      all_inst = fz.fz_all_inst;
      all_inst_rev = fz.fz_all_inst_rev;
      all_inst_any = fz.fz_all_inst_any;
      instantiated = fz.fz_instantiated;
      pred_on = fz.fz_pred_on;
      sync_depth = 0;
      degraded = fz.fz_degraded;
      first_trip = fz.fz_first_trip;
      probe = (fun () -> ());
    }
  and emit =
    {
      Edges.input = (fun f v -> emit_input t f v);
      enable = (fun f -> emit_enable t f);
      notify = (fun f -> emit_notify t f);
    }
  and build =
    {
      Build.prog = fz.fz_prog;
      config = fz.fz_config;
      masks;
      pred_on = fz.fz_pred_on;
      emit;
      field_flow = (fun fid -> field_flow t fid);
      entered =
        (fun m params return ->
          Ids.Meth.Tbl.replace t.building m.Program.m_id (params, return));
      c_methods = c.c_build_methods;
      c_flows = c.c_build_flows;
      c_edges = c.c_build_edges;
    }
  in
  (* a restored run's counters continue from the snapshotted values *)
  List.iter
    (fun (name, v) -> if v <> 0 then Trace.add (Trace.counter trace name) v)
    fz.fz_counters;
  (* pending flows still carry their dirty bits; re-ring them in order *)
  Array.iter (fun f -> Worklist.push t.wl f) fz.fz_pending;
  t

let create ?trace prog config =
  let wl = Worklist.create () in
  thaw ?trace wl
    {
      fz_prog = prog;
      fz_config = config;
      fz_graphs = Ids.Meth.Tbl.create 256;
      fz_reachable_order = [];
      fz_roots = Ids.Meth.Set.empty;
      fz_field_flows = Ids.Field.Tbl.create 64;
      fz_all_inst = Ids.Class.Tbl.create 32;
      fz_all_inst_rev = Array.make (Program.num_classes prog) [];
      fz_all_inst_any = always_on (Flow.All_instantiated Program.null_class) Vstate.empty;
      fz_instantiated = Typeset.empty;
      fz_pred_on = always_on Flow.Pred_on (Vstate.const 1);
      fz_pending = [||];
      fz_counters = [];
      fz_next_flow_id = 0;
      fz_degraded = false;
      fz_first_trip = None;
    }

(* --------------------------- checkpointing ---------------------------- *)

let capture t =
  {
    fz_prog = t.prog;
    fz_config = t.config;
    fz_graphs = t.graphs;
    fz_reachable_order = t.reachable_order;
    fz_roots = t.roots;
    fz_field_flows = t.field_flows;
    fz_all_inst = t.all_inst;
    fz_all_inst_rev = t.all_inst_rev;
    fz_all_inst_any = t.all_inst_any;
    fz_instantiated = t.instantiated;
    fz_pred_on = t.pred_on;
    fz_pending = Worklist.pending t.wl;
    fz_counters = Trace.counters t.trace;
    fz_next_flow_id = !Flow.next_id;
    fz_degraded = t.degraded;
    fz_first_trip = t.first_trip;
  }

(** Every shared structure — flows appearing both in graphs and in edge
    lists, global tables, the pending queue — is one object graph,
    marshaled in a single call, so sharing and cycles survive the round
    trip.  [frozen] holds no closures (the Marshal invariant). *)
let snapshot_bytes t = Marshal.to_string (capture t) []

let snapshot_kind = "engine-state"

(* v8: one drain, so the image holds no engine mode and no second queue;
   v7 images carry both and are refused as a version mismatch *)
let snapshot_version = 8

(* Point a decoded image at [prog], another compile of the same program:
   the program itself, every graph's method and body, and the discovery
   list.  Flows carry ids and spans, not records, so they need nothing.
   The image is freshly decoded, so its graph table is ours to update. *)
let rebind prog fz =
  let fits =
    Program.num_classes prog = Array.length fz.fz_all_inst_rev
    && Program.num_meths prog = Program.num_meths fz.fz_prog
    && Ids.Meth.Tbl.fold
         (fun id _ ok -> ok && Option.is_some (Program.meth prog id).Program.m_body)
         fz.fz_graphs true
  in
  if not fits then Error "engine snapshot does not fit the given program"
  else begin
    Ids.Meth.Tbl.filter_map_inplace
      (fun id (g : Graph.method_graph) ->
        let m = Program.meth prog id in
        Some { g with Graph.g_meth = m; g_body = Option.get m.Program.m_body })
      fz.fz_graphs;
    Ok
      {
        fz with
        fz_prog = prog;
        fz_reachable_order =
          List.map
            (fun (m : Program.meth) -> Program.meth prog m.Program.m_id)
            fz.fz_reachable_order;
      }
  end

let of_snapshot_bytes ?trace ?prog s =
  let decoded =
    match (Marshal.from_string s 0 : frozen) with
    | exception _ -> Error "cannot decode engine snapshot payload"
    | fz -> ( match prog with None -> Ok fz | Some p -> rebind p fz)
  in
  Result.map
    (fun fz ->
      (* flow ids stay unique within the engine: ids minted after the
         resume start past every restored one *)
      if !Flow.next_id < fz.fz_next_flow_id then Flow.next_id := fz.fz_next_flow_id;
      thaw ?trace (Worklist.create ()) fz)
    decoded

let save_snapshot t ~path =
  Snapshot.write ~path ~kind:snapshot_kind ~version:snapshot_version
    (snapshot_bytes t)

let load_snapshot ?trace path =
  match Snapshot.read ~path ~kind:snapshot_kind ~version:snapshot_version with
  | Error e -> Error e
  | Ok payload -> (
      match of_snapshot_bytes ?trace payload with
      | Ok t -> Ok t
      | Error message -> Error (Snapshot.Bad_payload { path; message }))

(* ------------------------------ driver -------------------------------- *)

let add_root t (m : Program.meth) =
  t.roots <- Ids.Meth.Set.add m.Program.m_id t.roots;
  let g = ensure_reachable t m in
  if t.config.Config.seed_root_params then begin
    let body = g.Graph.g_body in
    List.iter2
      (fun v pf ->
        match Bl.var_ty body v with
        | Ty.Obj c ->
            Edges.use_edge ~emit:t.emit (all_inst_flow t c) pf;
            emit_input t pf Vstate.null
        | Ty.Int | Ty.Bool -> emit_input t pf Vstate.any
        | Ty.Null | Ty.Void -> ())
      body.Bl.params g.Graph.g_params
  end

(** Drain one deduplicated worklist entry: clear the flow's scheduling
    bits, then run every dirty kind.  Enable first (it folds the pending
    VS_in into the state and runs the flow action), then recompute (a
    no-op if enable just covered it), then notify. *)
let process_flow t (f : Flow.t) =
  Trace.incr t.c.c_tasks;
  let w = f.Flow.work in
  f.Flow.work <- 0;
  if w land Flow.wk_enable <> 0 then begin
    Trace.incr t.c.c_enable;
    enable t f
  end;
  if w land Flow.wk_recompute <> 0 then begin
    Trace.incr t.c.c_input;
    recompute t f
  end;
  if w land Flow.wk_notify <> 0 then begin
    Trace.incr t.c.c_notify;
    notify t f
  end

(** [run ?random_order ?budget t] drains the worklist to the fixed
    point.

    By default pending work is processed FIFO.  With [random_order:seed]
    pending flows are picked pseudo-randomly instead — the fixed point must not change (all transfer functions are
    monotone joins over a finite lattice), which the property-test suite
    verifies by comparing runs.

    The run is subject to [budget] (default {!Budget.unlimited}), which
    the engine does not keep: every piece of budget bookkeeping is local
    to this call.  The task cap counts only the tasks this run drains,
    and the clock starts with it.  When a cap trips, the one trip path
    records it and applies [budget.on_trip]:

    - [`Degrade] (default): switch to degradation mode ({!degrade}) and
      finish at a sound but coarser fixed point instead of aborting;
    - [`Pause]: stop at the next task boundary and return [Paused trip]
      — no state is widened, and resuming the engine ({!snapshot_bytes} +
      {!of_snapshot_bytes} + [run]) continues to the {e identical} fixed
      point, because a fixed point of a monotone chaotic iteration does
      not depend on where the drain was cut.

    Budget checks run after every drained entry and, through the in-task
    probe, after every interprocedural link, so even a single task that
    resolves many callees cannot overshoot a cap by more than one link's
    worth of work.  Once degraded (or once a pause is pending), checks
    stop and the remaining drain runs to its boundary so the final state
    is consistent. *)
let run ?random_order ?(budget = Budget.unlimited) t =
  let start = Unix.gettimeofday () in
  (* clamped against backwards clock steps: a negative elapsed time
     would make the wall budget unreachable *)
  let elapsed_s () = Float.max 0.0 (Unix.gettimeofday () -. start) in
  let tasks_at_start = Trace.value t.c.c_tasks in
  (* [c_links] at the current task's start: the in-task probe charges
     only the links made inside this task *)
  let task_links = ref (Trace.value t.c.c_links) in
  let paused = ref None in
  (* One trip path for both reactions.  [first_trip] keeps the cap that
     tripped first over the engine's life; the trip counters record the
     engine's totals at this trip. *)
  let trip kind =
    Trace.incr t.c.c_budget_trips;
    if Option.is_none t.first_trip then t.first_trip <- Some kind;
    Trace.record_max t.c.c_trip_tasks (Trace.value t.c.c_tasks);
    Trace.record_max t.c.c_trip_flows (Trace.value t.c.c_live_flows);
    if Trace.events_on t.trace then
      Trace.event t.trace
        ~kind:(match budget.Budget.on_trip with `Degrade -> "degrade" | `Pause -> "pause")
        ~arg:(match kind with Budget.Tasks -> 0 | Budget.Seconds -> 1 | Budget.Flows -> 2)
        ();
    match budget.Budget.on_trip with
    | `Degrade -> degrade t
    | `Pause -> paused := Some kind
  in
  (* [in_task]: the links made so far inside the task being drained *)
  let check =
    if Budget.is_unlimited budget then fun _ -> ()
    else fun in_task ->
      if (not t.degraded) && Option.is_none !paused then
        match
          Budget.check budget
            ~work:(Trace.value t.c.c_tasks - tasks_at_start + in_task)
            ~flows:(Trace.value t.c.c_live_flows) ~elapsed_s
        with
        | Some kind -> trip kind
        | None -> ()
  in
  t.probe <- (fun () -> check (Trace.value t.c.c_links - !task_links));
  let step f =
    task_links := Trace.value t.c.c_links;
    process_flow t f;
    check 0
  in
  let drain_fifo () =
    while Option.is_none !paused && not (Worklist.is_empty t.wl) do
      step (Worklist.pop_exn t.wl)
    done
  in
  let drain_random seed =
    (* array-backed bag of pending flows with swap-remove; deterministic
       LCG.  A bagged flow keeps its [wk_pending] bit, so emits keep
       merging into it. *)
    let state = ref (seed land 0x3FFFFFFF) in
    let next bound =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod bound
    in
    let bag = ref (Worklist.pop_all t.wl) in
    let len = ref (Array.length !bag) in
    while !len > 0 do
      let i = next !len in
      let f = !bag.(i) in
      !bag.(i) <- !bag.(!len - 1);
      decr len;
      step f;
      if Option.is_some !paused then begin
        (* hand the still-bagged flows back to the queue so a snapshot
           sees them as pending work *)
        for k = 0 to !len - 1 do
          Worklist.push t.wl !bag.(k)
        done;
        len := 0
      end
      else if !len = 0 then begin
        bag := Worklist.pop_all t.wl;
        len := Array.length !bag
      end
    done
  in
  let drain () =
    match random_order with None -> drain_fifo () | Some s -> drain_random s
  in
  Fun.protect ~finally:(fun () -> t.probe <- (fun () -> ())) @@ fun () ->
  drain ();
  if Option.is_none !paused && t.degraded then begin
    (* Degradation introduces [Any] object states.  An invoke (or field
       access) observing an [Any] receiver no longer sees incremental
       notifications when further types are instantiated (its receiver
       state cannot grow past top), so close the fixed point explicitly:
       re-run every flow-specific action and re-drain until the linked
       sets stop changing.  Each pass only adds links/graphs, so this
       terminates. *)
    let signature () =
      let field_links = ref 0 in
      Ids.Meth.Tbl.iter
        (fun _ g ->
          Array.iter
            (fun (f : Flow.t) ->
              match f.Flow.kind with
              | Flow.Field_load fa | Flow.Field_store fa ->
                  field_links := !field_links + Ids.Field.Set.cardinal fa.Flow.fa_linked
              | _ -> ())
            g.Graph.g_flows)
        t.graphs;
      (Ids.Meth.Tbl.length t.graphs, Trace.value t.c.c_links, !field_links)
    in
    let rec close prev =
      (* snapshot: notifying can link new callees and grow [t.graphs]
         mid-walk; the next round covers the newcomers *)
      List.iter
        (fun (m : Program.meth) ->
          match Ids.Meth.Tbl.find_opt t.graphs m.Program.m_id with
          | Some g -> Array.iter (fun f -> notify t f) g.Graph.g_flows
          | None -> ())
        t.reachable_order;
      drain ();
      let s = signature () in
      if s <> prev then close s
    in
    close (signature ())
  end;
  match !paused with Some trip -> Paused trip | None -> Completed

(* ------------------------------ results ------------------------------- *)

let prog_of t = t.prog
let config_of t = t.config

let roots t = t.roots
let is_reachable t (m : Ids.Meth.t) = Ids.Meth.Tbl.mem t.graphs m

let reachable_methods t = List.rev t.reachable_order

let reachable_count t = Ids.Meth.Tbl.length t.graphs

let graphs t =
  List.rev_map
    (fun m -> Ids.Meth.Tbl.find t.graphs m.Program.m_id)
    t.reachable_order

let graph_of t (m : Ids.Meth.t) = Ids.Meth.Tbl.find_opt t.graphs m

let instantiated_types t = Typeset.classes t.instantiated

let instantiated t = t.instantiated

let is_degraded t = t.degraded

let global_flows t =
  let add _ f acc = f :: acc in
  t.pred_on :: t.all_inst_any
  :: Ids.Field.Tbl.fold add t.field_flows (Ids.Class.Tbl.fold add t.all_inst [])

let trace_of t = t.trace

let stats t =
  {
    tasks_processed = Trace.value t.c.c_tasks;
    input_tasks = Trace.value t.c.c_input;
    enable_tasks = Trace.value t.c.c_enable;
    notify_tasks = Trace.value t.c.c_notify;
    dedup_input = Trace.value t.c.c_dedup_input;
    dedup_enable = Trace.value t.c.c_dedup_enable;
    dedup_notify = Trace.value t.c.c_dedup_notify;
    use_edges = Trace.value t.c.c_use_edges;
    links = Trace.value t.c.c_links;
    max_queue = Trace.value t.c.c_max_queue;
    live_flows = Trace.value t.c.c_live_flows;
    budget_trips = Trace.value t.c.c_budget_trips;
    trip_tasks = Trace.value t.c.c_trip_tasks;
    trip_flows = Trace.value t.c.c_trip_flows;
    degraded = t.degraded;
    first_trip = t.first_trip;
  }
