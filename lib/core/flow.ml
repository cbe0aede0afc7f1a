(** Flows: the vertices of a predicated value propagation graph (PVPG)
    (paper, Section 4 / Appendix B.3).

    Each flow carries:
    - a {e value state} — the conservative over-approximation of the values
      the underlying base-language element can hold at runtime.  Following
      the paper's implementation note ("the actual implementation uses one
      value state per flow"), we store both the joined input [VS_in] (in
      [raw]) and the filtered output [VS_out] (in [state]); the split is
      needed operationally because a comparison filter must be re-applied
      when its {e observed} operand changes;
    - an {e enabled} bit — flows only propagate once enabled by a predicate
      edge (except under the baseline configuration, where every flow is
      enabled at creation);
    - outgoing {e use}, {e predicate} and {e observe} edges.

    Flows are created by {!Build} and driven to a fixed point by
    {!Engine}. *)

open Skipflow_ir

(** What a filter flow filters on (the [TypeCheck]/[Cond]/[PassThrough]
    rules of Figure 15). *)
type filter =
  | No_filter
  | Instanceof of { mask : Typeset.t; negated : bool; cls : Ids.Class.t }
      (** [mask] = subtypes of [cls], excluding null *)
  | Compare of { op : Vstate.cmp_op; other : t }
      (** filtered with respect to the current state of [other], which is
          connected by an observe edge *)
  | Declared of { mask_with_null : Typeset.t; cls : Ids.Class.t }
      (** formal-parameter filter: subtypes of the declared type + null *)
  | Arith of { op : Prim.binop; l : t; r : t }
      (** forward arithmetic transfer ([--pval product] only): the flow's
          VS_in is ignored and its output is [Vstate.arith op] over the
          states of the two operand flows, both connected by observe
          edges *)

(** Categories of branch sites, for the counter metrics of Table 1. *)
and check_kind = Type_check | Null_check | Prim_check

and invoke_site = {
  inv_target : Ids.Meth.t;  (** statically resolved target *)
  inv_virtual : bool;
  inv_recv : t option;  (** receiver flow in the caller; [None] for static *)
  inv_args : t list;  (** actual-argument flows, receiver excluded *)
  mutable inv_linked : Ids.Meth.Set.t;  (** callees linked so far *)
  mutable inv_seen : Typeset.t;
      (** receiver types already resolved; the deduplicated engine
          re-resolves only the delta on each notify (resolution is
          deterministic, so skipping seen types cannot change the fixed
          point) *)
}

and field_access = {
  fa_field : Ids.Field.t;
  fa_recv : t;  (** the flow of the receiver object [r], observed *)
  mutable fa_linked : Ids.Field.Set.t;  (** field-state flows linked so far *)
  mutable fa_seen : Typeset.t;
      (** receiver types whose field was already looked up (delta
          processing, as for {!invoke_site.inv_seen}) *)
}

and kind =
  | Pred_on  (** the unique always-enabled predicate [pred^on] *)
  | Source of Vstate.t  (** constants, [null], [new T], [Any] *)
  | Alloc of Ids.Class.t
      (** a [new T] source; enabling it marks [T] instantiated *)
  | Param of int  (** formal parameter [p_i] (0 = receiver for instance methods) *)
  | Phi  (** value join of a merge block *)
  | Phi_pred  (** predicate join of a merge block ([φ_pred]) *)
  | Field_load of field_access  (** a [v <- r.x] instruction *)
  | Field_store of field_access  (** an [r.x <- v] instruction *)
  | Field_state of Ids.Field.t
      (** the global per-declared-field flow returned by [LookUp] *)
  | Static_load of Ids.Field.t  (** a [v <- C.x] instruction *)
  | Static_store of Ids.Field.t  (** a [C.x <- v] instruction *)
  | Cast of Ids.Class.t
      (** a checkcast [(C) v]: a filtering flow in value position keeping
          subtypes of [C] plus [null] *)
  | Invoke of invoke_site
  | Return  (** the method's single return; for void methods its value
                state is the artificial constant 0 token (Section 5) *)
  | Filter of { check : check_kind; branch_then : bool }
      (** a filtering flow created for one branch of an [if] *)
  | All_instantiated of Ids.Class.t
      (** all instantiated subtypes of a class; feeds root-method
          parameters (reflection/JNI policy of Section 5) and saturated
          flows *)

and t = {
  id : int;
  kind : kind;
  meth : Ids.Meth.t option;  (** owning method; [None] for global flows *)
  span : Span.t option;
      (** source position of the base-language element this flow was
          created for; [None] for global/synthetic flows and for programs
          built without the frontend *)
  filter : filter;
  mutable enabled : bool;
  mutable raw : Vstate.t;  (** VS_in: join of enabled inputs *)
  mutable state : Vstate.t;  (** VS_out: [filter] applied to [raw] *)
  mutable uses : t list;  (** use-edge successors (reverse insertion order) *)
  mutable pred_out : t list;  (** predicate-edge successors *)
  mutable observers : t list;  (** observe-edge successors *)
  mutable saturated : bool;
      (** set when the type set grew past the saturation cutoff (optional
          engine feature, after Wimmer et al. 2024) *)
  mutable work : int;
      (** the deduplicated engine's scheduling bits ([wk_pending] while
          the flow sits in the worklist, plus the dirty kinds still to be
          processed); always 0 outside a drain *)
}

(** {2 Worklist scheduling bits}

    The deduplicated engine replaces boxed tasks with dirty bits on the
    flow itself: an emit that finds its bit already set is a no-op (the
    pending worklist entry will cover it). *)

let wk_pending = 1  (** the flow is in the worklist (or the random-order bag) *)

let wk_recompute = 2  (** VS_in grew; re-apply the filter and re-propagate *)

let wk_enable = 4  (** a predicate edge requested enabling *)

let wk_notify = 8  (** an observed flow changed; re-run the flow action *)

let next_id = ref 0

let blank id kind meth span filter =
  {
    id;
    kind;
    meth;
    span;
    filter;
    enabled = false;
    raw = Vstate.empty;
    state = Vstate.empty;
    uses = [];
    pred_out = [];
    observers = [];
    saturated = false;
    work = 0;
  }

let make ?meth ?span ?(filter = No_filter) kind =
  incr next_id;
  blank !next_id kind meth span filter

(** The "no flow" placeholder of flow arrays (a graph's undefined
    [g_defs] slots).  It carries id 0, which {!make} never mints, and is
    recognized by that id, not physically, so a thawed copy still
    reads as undefined. *)
let none = blank 0 Phi None None No_filter

let is_none f = f.id = 0

(** {2 Shared kinds}

    [Source] and [Filter] payloads are immutable, so flows of the same
    constant or the same branch shape share one kind value instead of
    boxing their own. *)

let source_empty = Source Vstate.empty
let source_any = Source Vstate.any
let source_null = Source Vstate.null

(** [Source (Vstate.const n)], shared for {!Prim.interned} [n]. *)
let source_const = Prim.interning (fun n -> Source (Vstate.const n))

let filter_kinds =
  Array.of_list
    (List.concat_map
       (fun check ->
         [ Filter { check; branch_then = false }; Filter { check; branch_then = true } ])
       [ Type_check; Null_check; Prim_check ])

(** [Filter { check; branch_then }], one shared value per pair. *)
let filter_kind check ~branch_then =
  let c = match check with Type_check -> 0 | Null_check -> 1 | Prim_check -> 2 in
  filter_kinds.((2 * c) + Bool.to_int branch_then)

let apply_filter ~pval (f : t) (v : Vstate.t) =
  match f.filter with
  | No_filter -> v
  | Instanceof { mask; negated; _ } -> Vstate.filter_instanceof ~mask ~negated v
  | Compare { op; other } -> Vstate.compare_filter ~pval op v other.state
  | Declared { mask_with_null; _ } -> Vstate.filter_declared ~mask_with_null v
  | Arith { op; l; r } -> Vstate.arith op l.state r.state

let is_invoke f = match f.kind with Invoke _ -> true | _ -> false

let kind_name f =
  match f.kind with
  | Pred_on -> "pred_on"
  | Source _ -> "source"
  | Alloc _ -> "alloc"
  | Param i -> Printf.sprintf "param%d" i
  | Phi -> "phi"
  | Phi_pred -> "phi_pred"
  | Field_load _ -> "load"
  | Field_store _ -> "store"
  | Field_state _ -> "field"
  | Static_load _ -> "static_load"
  | Static_store _ -> "static_store"
  | Cast _ -> "cast"
  | Invoke _ -> "invoke"
  | Return -> "return"
  | Filter { branch_then; _ } -> if branch_then then "filter+" else "filter-"
  | All_instantiated _ -> "all_instantiated"

let pp ppf f =
  Format.fprintf ppf "#%d:%s%s state=%a" f.id (kind_name f)
    (if f.enabled then "[on]" else "[off]")
    Vstate.pp f.state
