(** PVPG construction: one linear pass over a method body (paper,
    Appendix B.4, Figures 12–14).

    Basic blocks are traversed in reverse postorder and instructions top to
    bottom.  Per block, the traversal maintains

    - a mapping from variables to flows.  Because our input is already in
      SSA form with explicit phi instructions (produced by
      {!Skipflow_ir.Ssa_builder}), every variable has a canonical defining
      flow; the per-block mapping only records the {e filtering-flow
      re-definitions} introduced by branch conditions (Figure 14) plus the
      shadow-phi flows that [propagate] (Figure 13) creates when
      re-definitions collide at control-flow merges.  Explicit SSA phis are
      turned into [Phi] flows directly (the paper's dynamic collision
      detection re-derives exactly these for ordinary values, so the result
      is the same graph);
    - the current predicate [pred], updated by every invoke and branch, used
      as the source of the predicate edge every newly created flow receives.

    Merge blocks get a [φ_pred] flow that joins the predicates of all
    incoming edges and predicates the block's phi flows and subsequent
    instructions (Section 3, "Joining Values using φ Flows").

    The returned {!Graph.method_graph} records the branch sites and invoke
    sites used by the counter metrics. *)

open Skipflow_ir

type ctx = {
  prog : Program.t;
  config : Config.t;
  masks : Masks.t;
  pred_on : Flow.t;
  emit : Edges.emit;
  field_flow : Ids.Field.t -> Flow.t;
      (** the engine's global per-field flow; used to link static field
          accesses at construction time (no receiver to observe) *)
  entered : Program.meth -> Flow.t list -> Flow.t -> unit;
      (** receives the method's parameter and return flows before its
          body is built, so a recursive call the body enables links to
          them instead of building the method again *)
  c_methods : Trace.counter;  (** [build.methods] *)
  c_flows : Trace.counter;  (** [build.flows] *)
  c_edges : Trace.counter;  (** [build.edges] *)
}

module VarMap = Map.Make (Int)
module VarSet = Set.Make (Int)

(* The re-definition environment is a persistent map so that entering a
   branch target shares the parent block's environment in O(1) instead of
   copying it; with the old eager [Hashtbl] copy a chain of [d] sequential
   branches cost O(d²) copying per method, which dominated construction on
   branchy code. *)
type block_state = {
  mutable map : Flow.t VarMap.t;  (** filter/shadow re-definitions, by var id *)
  mutable shadow_phis : VarSet.t;
      (** vars whose [map] entry is a shadow phi created by this merge *)
  mutable cur_pred : Flow.t;
  mutable touched : bool;  (** has any predecessor propagated into this merge? *)
}

let run ctx (meth : Program.meth) : Graph.method_graph =
  let body =
    match meth.Program.m_body with
    | Some b -> b
    | None ->
        invalid_arg
          (Printf.sprintf "Build.run: method %s has no body" meth.Program.m_name)
  in
  Trace.incr ctx.c_methods;
  let emit = ctx.emit in
  let use_edge s t = Trace.incr ctx.c_edges; Edges.use_edge ~emit s t in
  let pred_edge s t = Trace.incr ctx.c_edges; Edges.pred_edge ~emit s t in
  let obs_edge s t = Trace.incr ctx.c_edges; Edges.obs_edge ~emit s t in
  (* every flow of the method shares this one option *)
  let meth_id = Some meth.Program.m_id in
  let return_flow = Flow.make ?meth:meth_id ?span:meth.Program.m_span Flow.Return in
  (* newest first; the graph stores creation order *)
  let flows = ref [ return_flow ] and invokes = ref [] in
  let register f =
    Trace.incr ctx.c_flows;
    flows := f :: !flows;
    (match f.Flow.kind with Flow.Invoke _ -> invokes := f :: !invokes | _ -> ());
    f
  in
  let mk ?filter ?span kind = register (Flow.make ?meth:meth_id ?span ?filter kind) in
  (* canonical defining flow per SSA variable *)
  let def = Array.make body.Bl.var_count Flow.none in
  let set_def v f = def.(Ids.Var.to_int v) <- f in
  let def_flow v =
    let f = def.(Ids.Var.to_int v) in
    if Flow.is_none f then
      invalid_arg
        (Printf.sprintf "Build.run: variable v%d has no defining flow"
           (Ids.Var.to_int v));
    f
  in
  (* per-block states, created lazily (merges are touched by [propagate]
     before they are visited) *)
  let states : block_state option array = Array.make (Array.length body.Bl.blocks) None in
  let fresh_state cur_pred =
    { map = VarMap.empty; shadow_phis = VarSet.empty; cur_pred; touched = false }
  in
  let get_merge_state (bid : Ids.Block.t) =
    let i = Ids.Block.to_int bid in
    match states.(i) with
    | Some s -> s
    | None ->
        let blk = Bl.block body bid in
        assert (blk.Bl.b_kind = Bl.Merge);
        let phi_pred = mk Flow.Phi_pred in
        let s = fresh_state phi_pred in
        (* Phi flows for the block's explicit SSA phis, predicated by the
           block's φ_pred (Figure 5); their use edges are added per
           incoming edge by [propagate]. *)
        List.iter
          (fun (phi : Bl.phi) ->
            let f = mk Flow.Phi in
            pred_edge phi_pred f;
            set_def phi.Bl.phi_var f)
          blk.Bl.b_phis;
        states.(i) <- Some s;
        s
  in
  let label_state (bid : Ids.Block.t) s = states.(Ids.Block.to_int bid) <- Some s in
  let get_state (bid : Ids.Block.t) =
    match states.(Ids.Block.to_int bid) with
    | Some s -> s
    | None -> get_merge_state bid
  in
  (* variable lookup: branch-scoped re-definition, else the SSA def *)
  let lookup (s : block_state) v =
    match VarMap.find_opt (Ids.Var.to_int v) s.map with
    | Some f -> f
    | None -> def_flow v
  in
  (* ---------------- parameters (start instruction) ------------------- *)
  let entry_state = fresh_state ctx.pred_on in
  label_state body.Bl.entry entry_state;
  let param_flows =
    List.mapi
      (fun i v ->
        let filter =
          match Bl.var_ty body v with
          | Ty.Obj c ->
              Some (Flow.Declared { mask_with_null = Masks.decl ctx.masks c; cls = c })
          | _ -> None
        in
        let f = mk ?filter ?span:meth.Program.m_span (Flow.Param i) in
        pred_edge ctx.pred_on f;
        set_def v f;
        f)
      body.Bl.params
  in
  ctx.entered meth param_flows return_flow;
  (* ------------------------- propagate (Fig. 13) --------------------- *)
  let propagate (b : block_state) (src : Bl.block) (tgt : Ids.Block.t) =
    let ts = get_merge_state tgt in
    let tblk = Bl.block body tgt in
    pred_edge b.cur_pred ts.cur_pred;
    (* connect this incoming edge's phi operands *)
    List.iter
      (fun (phi : Bl.phi) ->
        let pf = def_flow phi.Bl.phi_var in
        match List.assoc_opt src.Bl.b_id phi.Bl.phi_args with
        | Some arg -> use_edge (lookup b arg) pf
        | None -> ())
      tblk.Bl.b_phis;
    (* merge branch-scoped re-definitions *)
    if not ts.touched then begin
      ts.touched <- true;
      ts.map <- b.map (* persistent: sharing, not copying *)
    end
    else
      (* walk the union of both environments; a var missing on one side
         falls back to its SSA def *)
      VarMap.merge (fun _ tv pv -> Some (tv, pv)) ts.map b.map
      |> VarMap.iter (fun v (tv_opt, pv_opt) ->
             let var = Ids.Var.of_int v in
             let tv = match tv_opt with Some f -> f | None -> def_flow var in
             let pv = match pv_opt with Some f -> f | None -> def_flow var in
             if tv != pv then
               if VarSet.mem v ts.shadow_phis then
                 (* shadow phi already created for this merge: just add the
                    new operand (the isPhi branch of Figure 13) *)
                 use_edge pv tv
               else begin
                 let f = mk Flow.Phi in
                 pred_edge ts.cur_pred f;
                 use_edge tv f;
                 use_edge pv f;
                 ts.map <- VarMap.add v f ts.map;
                 ts.shadow_phis <- VarSet.add v ts.shadow_phis
               end)
  in
  (* --------------------- initBlock (Fig. 14) ------------------------- *)
  let branches = ref [] in
  let init_block (b : block_state) (tgt : Ids.Block.t) (cond : Bl.cond) ~negated
      ~span =
    let ts = fresh_state b.cur_pred (* overwritten below *) in
    ts.map <- b.map;
    (match cond with
    | Bl.InstanceOf (x, cls) ->
        let f =
          mk ?span
            ~filter:(Flow.Instanceof { mask = Masks.sub ctx.masks cls; negated; cls })
            (Flow.filter_kind Flow.Type_check ~branch_then:(not negated))
        in
        pred_edge b.cur_pred f;
        use_edge (lookup b x) f;
        ts.map <- VarMap.add (Ids.Var.to_int x) f ts.map;
        ts.cur_pred <- f
    | Bl.Cmp (op0, l, r) ->
        let check =
          let object_side v = Ty.is_object (Bl.var_ty body v) in
          if object_side l || object_side r then Flow.Null_check else Flow.Prim_check
        in
        let op = (match op0 with `Eq -> Vstate.Eq | `Lt -> Vstate.Lt) in
        let op = if negated then Vstate.inv op else op in
        let lf = lookup b l and rf = lookup b r in
        let f_l =
          mk ?span
            ~filter:(Flow.Compare { op; other = rf })
            (Flow.filter_kind check ~branch_then:(not negated))
        in
        pred_edge b.cur_pred f_l;
        use_edge lf f_l;
        obs_edge rf f_l;
        let f_r =
          mk ?span
            ~filter:(Flow.Compare { op = Vstate.flip op; other = lf })
            (Flow.filter_kind check ~branch_then:(not negated))
        in
        pred_edge f_l f_r;
        use_edge rf f_r;
        obs_edge lf f_r;
        ts.map <- VarMap.add (Ids.Var.to_int l) f_l ts.map;
        ts.map <- VarMap.add (Ids.Var.to_int r) f_r ts.map;
        ts.cur_pred <- f_r);
    label_state tgt ts;
    ts.cur_pred
  in
  (* ------------------------ instructions (Fig. 12) ------------------- *)
  let source_kind (e : Bl.expr) =
    match e with
    | Bl.Const n ->
        if ctx.config.Config.primitives then Flow.source_const n else Flow.source_any
    | Bl.Null -> Flow.source_null
    | Bl.Arith _ | Bl.AnyInt -> Flow.source_any
    | Bl.New _ | Bl.NewArr _ -> assert false
  in
  let process_insn (b : block_state) ~span (i : Bl.insn) =
    match i with
    | Bl.Assign (v, (Bl.New cls | Bl.NewArr (cls, _))) ->
        (* an array allocation instantiates the array class; the length is
           a primitive the analysis does not track *)
        let f = mk ?span (Flow.Alloc cls) in
        pred_edge b.cur_pred f;
        set_def v f
    | Bl.Assign (v, Bl.Arith (op0, l, r))
      when ctx.config.Config.primitives
           && Pval.equal_mode ctx.config.Config.pval Pval.Product ->
        (* product lattice: arithmetic transfers intervals instead of
           topping out; the operand flows are observed so the transfer
           re-runs when either operand's state grows *)
        let op =
          match op0 with
          | Bl.Add -> Prim.Add
          | Bl.Sub -> Prim.Sub
          | Bl.Mul -> Prim.Mul
          | Bl.Div -> Prim.Div
          | Bl.Rem -> Prim.Rem
        in
        let lf = lookup b l and rf = lookup b r in
        let f =
          mk ?span
            ~filter:(Flow.Arith { op; l = lf; r = rf })
            Flow.source_empty
        in
        pred_edge b.cur_pred f;
        obs_edge lf f;
        obs_edge rf f;
        set_def v f
    | Bl.Assign (v, e) ->
        let f = mk ?span (source_kind e) in
        pred_edge b.cur_pred f;
        set_def v f
    | Bl.Load { dst; recv; field } ->
        let rf = lookup b recv in
        let f =
          mk ?span (Flow.Field_load { fa_field = field; fa_recv = rf; fa_linked = Ids.Field.Set.empty; fa_seen = Typeset.empty })
        in
        pred_edge b.cur_pred f;
        obs_edge rf f;
        set_def dst f
    | Bl.Store { recv; field; src } ->
        let rf = lookup b recv in
        let f =
          mk ?span (Flow.Field_store { fa_field = field; fa_recv = rf; fa_linked = Ids.Field.Set.empty; fa_seen = Typeset.empty })
        in
        pred_edge b.cur_pred f;
        use_edge (lookup b src) f;
        obs_edge rf f
    | Bl.LoadStatic { dst; field } ->
        let f = mk ?span (Flow.Static_load field) in
        pred_edge b.cur_pred f;
        use_edge (ctx.field_flow field) f;
        set_def dst f
    | Bl.StoreStatic { field; src } ->
        let f = mk ?span (Flow.Static_store field) in
        pred_edge b.cur_pred f;
        use_edge (lookup b src) f;
        use_edge f (ctx.field_flow field)
    | Bl.ArrLoad { dst; arr; idx = _; elem } ->
        (* an array read is a load of the element pseudo-field: one element
           flow per array type, linked through the receiver's value state *)
        let rf = lookup b arr in
        let f = mk ?span (Flow.Field_load { fa_field = elem; fa_recv = rf; fa_linked = Ids.Field.Set.empty; fa_seen = Typeset.empty }) in
        pred_edge b.cur_pred f;
        obs_edge rf f;
        set_def dst f
    | Bl.ArrStore { arr; idx = _; src; elem } ->
        let rf = lookup b arr in
        let f = mk ?span (Flow.Field_store { fa_field = elem; fa_recv = rf; fa_linked = Ids.Field.Set.empty; fa_seen = Typeset.empty }) in
        pred_edge b.cur_pred f;
        use_edge (lookup b src) f;
        obs_edge rf f
    | Bl.ArrLen { dst; arr = _ } ->
        (* array lengths are opaque primitives (Any) *)
        let f = mk ?span Flow.source_any in
        pred_edge b.cur_pred f;
        set_def dst f
    | Bl.Cast { dst; src; cls } ->
        (* checkcast: a filtering flow in value position that keeps
           subtypes of the cast type plus null *)
        let f =
          mk ?span
            ~filter:(Flow.Declared { mask_with_null = Masks.decl ctx.masks cls; cls })
            (Flow.Cast cls)
        in
        pred_edge b.cur_pred f;
        use_edge (lookup b src) f;
        set_def dst f
    | Bl.Invoke { dst; recv; target; args; virtual_ } ->
        let recv_f = Option.map (lookup b) recv in
        let args_f = List.map (lookup b) args in
        let f =
          mk ?span
            (Flow.Invoke
               {
                 inv_target = target;
                 inv_virtual = virtual_;
                 inv_recv = recv_f;
                 inv_args = args_f;
                 inv_linked = Ids.Meth.Set.empty;
                 inv_seen = Typeset.empty;
               })
        in
        pred_edge b.cur_pred f;
        (match recv_f with Some r -> obs_edge r f | None -> ());
        set_def dst f;
        (* the invocation becomes the predicate of the following
           statements: "Method Invocations as Predicates" (Section 3) *)
        b.cur_pred <- f
  in
  let process_term (b : block_state) (blk : Bl.block) =
    match blk.Bl.b_term with
    | None -> assert false
    | Some (Bl.Return v) ->
        (match v with
        | Some v -> use_edge (lookup b v) return_flow
        | None -> ());
        pred_edge b.cur_pred return_flow
    | Some (Bl.Throw v) ->
        (* exception values are not tracked interprocedurally (Section 5);
           the thrown object's own flows were created by earlier
           instructions, and control never reaches the return *)
        ignore (lookup b v)
    | Some (Bl.Jump t) -> propagate b blk t
    | Some (Bl.If { cond; then_; else_ }) ->
        let check =
          match cond with
          | Bl.InstanceOf _ -> Flow.Type_check
          | Bl.Cmp (_, l, r) ->
              if Ty.is_object (Bl.var_ty body l) || Ty.is_object (Bl.var_ty body r)
              then Flow.Null_check
              else Flow.Prim_check
        in
        let span = blk.Bl.b_term_span in
        let then_live = init_block b then_ cond ~negated:false ~span in
        let else_live = init_block b else_ cond ~negated:true ~span in
        branches :=
          {
            Graph.bs_kind = check;
            bs_then_live = then_live;
            bs_else_live = else_live;
            bs_span = span;
            bs_swapped = blk.Bl.b_term_swapped;
            bs_synthetic = blk.Bl.b_term_synthetic;
            bs_then_block = then_;
            bs_else_block = else_;
          }
          :: !branches
  in
  (* ------------------------------ driver ----------------------------- *)
  List.iter
    (fun (blk : Bl.block) ->
      let b = get_state blk.Bl.b_id in
      (* walk instructions and spans together, a missing span reading as
         [None] (see [Bl.b_spans]) *)
      let rec walk insns spans =
        match insns with
        | [] -> ()
        | i :: is ->
            let span, ss =
              match spans with s :: ss -> (s, ss) | [] -> (None, [])
            in
            process_insn b ~span i;
            walk is ss
      in
      walk blk.Bl.b_insns blk.Bl.b_spans;
      process_term b blk)
    (Bl.reverse_postorder body);
  {
    Graph.g_meth = meth;
    g_body = body;
    g_params = param_flows;
    g_return = return_flow;
    g_flows = Array.of_list (List.rev !flows);
    g_branches = List.rev !branches;
    g_invokes = List.rev !invokes;
    g_defs = def;
  }
