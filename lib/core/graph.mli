(** Per-method PVPGs and the bookkeeping the metrics need.

    A {!method_graph} owns every flow created for one reachable method,
    its parameter and return flows (the interprocedural linking points),
    and an index of its branch sites and invoke sites used to compute the
    Table 1 counter metrics. *)

open Skipflow_ir

(** One conditional branch in the source method: the pair of filtering
    flows that decide whether each successor branch is live.  A check
    "remains" in the compiled code (counter metrics of Section 6) iff both
    branches are live at the fixed point. *)
type branch_site = {
  bs_kind : Flow.check_kind;
  bs_then_live : Flow.t;  (** the then-branch's entry predicate (filter flow) *)
  bs_else_live : Flow.t;  (** the else-branch's entry predicate *)
  bs_span : Span.t option;  (** source position of the branch condition *)
  bs_swapped : bool;
      (** condition normalization swapped the targets: the IR then-successor
          is the {e source} else-branch (see {!Bl.block.b_term_swapped}) *)
  bs_synthetic : bool;
      (** branch introduced by lowering a literal boolean condition; lint
          clients must not report its one-sidedness *)
  bs_then_block : Ids.Block.t;  (** IR then-successor (label block) *)
  bs_else_block : Ids.Block.t;  (** IR else-successor (label block) *)
}

type method_graph = {
  g_meth : Program.meth;
  g_body : Bl.body;
  g_params : Flow.t list;  (** receiver first for instance methods *)
  g_return : Flow.t;
  g_flows : Flow.t array;  (** every flow of this method, in creation order *)
  g_branches : branch_site list;
  g_invokes : Flow.t list;  (** flows with [Flow.Invoke] kind *)
  g_defs : Flow.t array;
      (** canonical defining flow per SSA variable (index = variable id),
          {!Flow.none} where a variable has none; used by tests to
          compare fixed-point value states against concretely observed
          values *)
}

val flow_count : method_graph -> int

val both_branches_live : branch_site -> bool
(** A branch site is "live on both sides" when both its filter flows are
    enabled with a non-empty value state. *)
