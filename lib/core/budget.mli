(** Resource budgets for the fixed-point engine.

    A budget caps how much work {!Engine.run} may spend before it gives up
    on full precision.  Exceeding a cap does {e not} abort the analysis:
    the engine switches to {e degradation mode} — it force-saturates every
    object flow to the set of all instantiated types, widens primitive
    flows to [Any], and drains the remaining work to a sound but coarser
    fixed point (the same degrade-precision-never-correctness policy as the
    paper's saturation mechanism, Section 5).

    A budget caps one run and is never stored: the fixed point does not
    depend on it.  All caps are optional; {!unlimited} never trips. *)

type t = {
  max_tasks : int option;
      (** cap on the worklist tasks this run drains (a resumed engine's
          earlier tasks do not count) *)
  max_seconds : float option;
      (** wall-clock cap on this run; checked while draining the worklist *)
  max_flows : int option;
      (** cap on live flows (PVPG vertices) across all reachable methods:
          the engine's whole graph, restored flows included *)
  on_trip : [ `Degrade | `Pause ];
      (** the reaction to a trip (see {!Engine.run}); [make]'s default
          is [`Degrade] *)
}

(** Why a budget tripped. *)
type trip = Tasks | Seconds | Flows

val unlimited : t
(** No caps; {!check} never trips. *)

val is_unlimited : t -> bool

val make :
  ?max_tasks:int -> ?max_seconds:float -> ?max_flows:int ->
  ?on_trip:[ `Degrade | `Pause ] -> unit -> t

val tiny : t
(** A deliberately minuscule task cap, used by the fuzz harness to
    fault-inject the degradation path on every non-trivial input. *)

val check : t -> work:int -> flows:int -> elapsed_s:(unit -> float) -> trip option
(** [check b ~work ~flows ~elapsed_s] returns the first exceeded cap, if
    any.  [work] is what the checking run did: the tasks it drained,
    plus, when {!Engine.run} checks inside a task, the interprocedural
    links made in that task.  One invoke task can resolve an unbounded
    number of callees, so counting its links bounds a [max_tasks]
    overshoot by one link's work, not one task's.  [flows] is the
    engine's live-flow count.  [elapsed_s] is a thunk so the clock is
    only read when a wall-clock cap is actually configured. *)

val trip_name : trip -> string
val pp : Format.formatter -> t -> unit
