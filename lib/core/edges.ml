(** Edge insertion with propagation scheduling.

    Both PVPG construction ({!Build}) and interprocedural linking
    ({!Engine}) add edges to a graph whose fixed-point computation may
    already be under way, so adding an edge must schedule the propagation
    work the edge implies:

    - a {e use} edge from an enabled source with a non-empty state pushes
      that state to the new target;
    - a {e predicate} edge from an enabled, non-empty source immediately
      enables the target;
    - an {e observe} edge from a source with a non-empty state notifies the
      new observer.

    Scheduling goes through an {!emit} record supplied by the engine, so
    this module does not allocate task values: the engine joins input
    values into the target's VS_in eagerly and enqueues only the dirty
    flow.  Because all transfer functions are monotone joins over a
    finite-height lattice, the fixed point does not depend on drain order
    (a property the test-suite checks by running with randomized
    orders). *)

type emit = {
  input : Flow.t -> Vstate.t -> unit;
      (** join the value into the target's VS_in and schedule it *)
  enable : Flow.t -> unit;  (** schedule the target to become executable *)
  notify : Flow.t -> unit;  (** schedule the observer's flow-specific action *)
}

let use_edge ~(emit : emit) (s : Flow.t) (t : Flow.t) =
  s.Flow.uses <- t :: s.Flow.uses;
  if s.Flow.enabled && not (Vstate.is_empty s.Flow.state) then
    emit.input t s.Flow.state

let pred_edge ~(emit : emit) (s : Flow.t) (t : Flow.t) =
  s.Flow.pred_out <- t :: s.Flow.pred_out;
  if s.Flow.enabled && not (Vstate.is_empty s.Flow.state) then emit.enable t

let obs_edge ~(emit : emit) (s : Flow.t) (t : Flow.t) =
  s.Flow.observers <- t :: s.Flow.observers;
  if not (Vstate.is_empty s.Flow.state) then emit.notify t
