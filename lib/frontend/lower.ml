(** Lowering from the typed AST to the SSA base language of Appendix B.

    The interesting work is condition normalization and boolean lowering:

    - only [==], [<] and [instanceof] survive as branch conditions; [!=],
      [<=], [>], [>=] and [!] are expressed by swapping operands and/or
      branch targets (Appendix B.1);
    - [&&] / [||] short-circuit through intermediate merge blocks;
    - a boolean-typed value used as a condition becomes a comparison with
      the constant 0 (paper, Figure 7: [if (thread.isVirtual())] is encoded
      as [isVirtual() != 0]);
    - a boolean-producing expression used as a {e value} is materialized as
      the constants 1/0 through control flow (which is exactly the shape of
      the [isVirtual] PVPG on the right of Figure 7);
    - arithmetic keeps its operator in the IR (for the interpreter) but is
      abstracted to [Any] by the analysis.

    Every branch target of an [if] is a fresh label block that immediately
    jumps to a merge-block "landing pad"; statements are lowered into the
    pads.  This uniform shape satisfies the no-critical-edge constraint and
    preserves the filter-flow shadows of the branch condition (the label
    block's re-definitions propagate into its single-successor pad).

    Methods funnel all returns through a single merge block, giving the
    base language's single-[return] form. *)

open Skipflow_ir

type ctx = {
  b : Ssa_builder.t;
  prog : Program.t;
  meth : Program.meth;
  ret_block : Bl.block;
  mutable tmp : int;
}

let fresh_tmp ctx prefix =
  let n = ctx.tmp in
  ctx.tmp <- n + 1;
  Printf.sprintf "$%s%d" prefix n

(* Spans are made by the builder at emission time, so each case below
   re-sets the current position to its own expression right before
   emitting (lowering a sub-expression moves it). *)
let set_sp ctx (e : Tast.texpr) =
  Ssa_builder.set_pos ctx.b ~line:e.Tast.pos.Lexer.line ~col:e.Tast.pos.Lexer.col

let default_value ctx blk (ty : Ty.t) =
  match ty with
  | Ty.Int | Ty.Bool -> Ssa_builder.const ctx.b blk 0
  | Ty.Obj _ | Ty.Null -> Ssa_builder.null ctx.b blk
  | Ty.Void -> Ssa_builder.const ctx.b blk 0

(* Normalized comparison: base-language condition plus a "swap branch
   targets" flag. *)
let normalize_cmp (op : Ast.binop) va vb : Bl.cond * bool =
  match op with
  | Ast.Eq -> (Bl.Cmp (`Eq, va, vb), false)
  | Ast.Ne -> (Bl.Cmp (`Eq, va, vb), true)
  | Ast.Lt -> (Bl.Cmp (`Lt, va, vb), false)
  | Ast.Ge -> (Bl.Cmp (`Lt, va, vb), true)
  | Ast.Gt -> (Bl.Cmp (`Lt, vb, va), false)
  | Ast.Le -> (Bl.Cmp (`Lt, vb, va), true)
  | _ -> invalid_arg "normalize_cmp"

let rec lower_expr ctx (cur : Bl.block) (e : Tast.texpr) : Bl.block * Ids.Var.t =
  set_sp ctx e;
  match e.Tast.node with
  | Tast.TInt n -> (cur, Ssa_builder.const ctx.b cur n)
  | Tast.TBool bv -> (cur, Ssa_builder.const ctx.b cur (if bv then 1 else 0))
  | Tast.TNull -> (cur, Ssa_builder.null ctx.b cur)
  | Tast.TThis -> (cur, Ssa_builder.read_var ctx.b cur "this" ~ty:e.Tast.ty)
  | Tast.TLocal x -> (cur, Ssa_builder.read_var ctx.b cur x ~ty:e.Tast.ty)
  | Tast.TNew c -> (cur, Ssa_builder.new_ ctx.b cur c)
  | Tast.TFieldGet (recv, fld) ->
      let cur, r = lower_expr ctx cur recv in
      set_sp ctx e;
      (cur, Ssa_builder.load ctx.b cur ~ty:fld.Program.f_ty ~recv:r ~field:fld.Program.f_id)
  | Tast.TStaticGet fld ->
      (cur, Ssa_builder.load_static ctx.b cur ~ty:fld.Program.f_ty ~field:fld.Program.f_id)
  | Tast.TNewArr (acls, len) ->
      let cur, vlen = lower_expr ctx cur len in
      set_sp ctx e;
      (cur, Ssa_builder.new_arr ctx.b cur acls vlen)
  | Tast.TArrGet (a, i, elem) ->
      let cur, va = lower_expr ctx cur a in
      let cur, vi = lower_expr ctx cur i in
      set_sp ctx e;
      ( cur,
        Ssa_builder.arr_load ctx.b cur ~ty:elem.Program.f_ty ~arr:va ~idx:vi
          ~elem:elem.Program.f_id )
  | Tast.TArrLen a ->
      let cur, va = lower_expr ctx cur a in
      set_sp ctx e;
      (cur, Ssa_builder.arr_len ctx.b cur ~arr:va)
  | Tast.TCast (cls, inner) ->
      let cur, v = lower_expr ctx cur inner in
      set_sp ctx e;
      (cur, Ssa_builder.cast ctx.b cur ~cls ~src:v)
  | Tast.TArith (op, a, bb) ->
      let cur, va = lower_expr ctx cur a in
      let cur, vb = lower_expr ctx cur bb in
      set_sp ctx e;
      (cur, Ssa_builder.arith ctx.b cur op va vb)
  | Tast.TVirtualCall (recv, m, args) ->
      let cur, r = lower_expr ctx cur recv in
      let cur, vargs =
        List.fold_left
          (fun (cur, acc) a ->
            let cur, v = lower_expr ctx cur a in
            (cur, v :: acc))
          (cur, []) args
      in
      set_sp ctx e;
      ( cur,
        Ssa_builder.invoke ctx.b cur ~ty:m.Program.m_ret_ty ~recv:(Some r)
          ~target:m.Program.m_id ~args:(List.rev vargs) ~virtual_:true )
  | Tast.TStaticCall (m, args) ->
      let cur, vargs =
        List.fold_left
          (fun (cur, acc) a ->
            let cur, v = lower_expr ctx cur a in
            (cur, v :: acc))
          (cur, []) args
      in
      set_sp ctx e;
      ( cur,
        Ssa_builder.invoke ctx.b cur ~ty:m.Program.m_ret_ty ~recv:None
          ~target:m.Program.m_id ~args:(List.rev vargs) ~virtual_:false )
  | Tast.TCmp _ | Tast.TInstanceOf _ | Tast.TNot _ | Tast.TAnd _ | Tast.TOr _ ->
      (* boolean in value position: materialize 1/0 through control flow *)
      let then_pad = Ssa_builder.merge_block ctx.b in
      let else_pad = Ssa_builder.merge_block ctx.b in
      lower_cond ctx cur e then_pad else_pad;
      Ssa_builder.seal ctx.b then_pad;
      Ssa_builder.seal ctx.b else_pad;
      let tmp = fresh_tmp ctx "b" in
      let join = Ssa_builder.merge_block ctx.b in
      let v1 = Ssa_builder.const ctx.b then_pad 1 in
      Ssa_builder.write_var ctx.b then_pad tmp v1;
      Ssa_builder.terminate ctx.b then_pad (Bl.Jump join.Bl.b_id);
      let v0 = Ssa_builder.const ctx.b else_pad 0 in
      Ssa_builder.write_var ctx.b else_pad tmp v0;
      Ssa_builder.terminate ctx.b else_pad (Bl.Jump join.Bl.b_id);
      Ssa_builder.seal ctx.b join;
      (join, Ssa_builder.read_var ctx.b join tmp ~ty:Ty.Bool)

(** [lower_cond ctx cur e then_pad else_pad] lowers the boolean expression
    [e] as a branch: [cur] is terminated and every path ends with a jump to
    [then_pad] (condition true) or [else_pad] (condition false).  Both pads
    must be unsealed merge blocks; the caller seals them afterwards. *)
and lower_cond ctx (cur : Bl.block) (e : Tast.texpr) (then_pad : Bl.block)
    (else_pad : Bl.block) : unit =
  match e.Tast.node with
  | Tast.TNot inner -> lower_cond ctx cur inner else_pad then_pad
  | Tast.TAnd (a, bb) ->
      let mid = Ssa_builder.merge_block ctx.b in
      lower_cond ctx cur a mid else_pad;
      Ssa_builder.seal ctx.b mid;
      lower_cond ctx mid bb then_pad else_pad
  | Tast.TOr (a, bb) ->
      let mid = Ssa_builder.merge_block ctx.b in
      lower_cond ctx cur a then_pad mid;
      Ssa_builder.seal ctx.b mid;
      lower_cond ctx mid bb then_pad else_pad
  | Tast.TCmp (op, a, bb) ->
      let cur, va = lower_expr ctx cur a in
      let cur, vb = lower_expr ctx cur bb in
      let cond, swap = normalize_cmp op va vb in
      set_sp ctx e;
      branch ctx cur cond ~swap ~synthetic:false then_pad else_pad
  | Tast.TInstanceOf (inner, c) ->
      let cur, v = lower_expr ctx cur inner in
      set_sp ctx e;
      branch ctx cur (Bl.InstanceOf (v, c)) ~swap:false ~synthetic:false
        then_pad else_pad
  | _ ->
      (* a boolean-typed value: encode as '!= 0' (Figure 7).  A literal
         boolean here is a lowering artifact — {!Typecheck} wraps block
         statements as [if (true)] — so the branch is marked synthetic and
         dead-branch clients ignore it. *)
      let synthetic =
        match e.Tast.node with Tast.TBool _ -> true | _ -> false
      in
      let cur, v = lower_expr ctx cur e in
      let zero = Ssa_builder.const ctx.b cur 0 in
      set_sp ctx e;
      branch ctx cur (Bl.Cmp (`Eq, v, zero)) ~swap:true ~synthetic then_pad
        else_pad

and branch ctx cur cond ~swap ~synthetic then_pad else_pad =
  let lt = Ssa_builder.label_block ctx.b in
  let le = Ssa_builder.label_block ctx.b in
  Ssa_builder.terminate ctx.b cur
    (Bl.If { cond; then_ = lt.Bl.b_id; else_ = le.Bl.b_id });
  Ssa_builder.mark_branch ctx.b cur ~swapped:swap ~synthetic;
  let t_target, e_target = if swap then (else_pad, then_pad) else (then_pad, else_pad) in
  Ssa_builder.terminate ctx.b lt (Bl.Jump t_target.Bl.b_id);
  Ssa_builder.terminate ctx.b le (Bl.Jump e_target.Bl.b_id)

(* ------------------------------ statements ---------------------------- *)

(** Returns [None] when control cannot fall through (all paths returned). *)
let rec lower_stmt ctx (cur : Bl.block) (s : Tast.tstmt) : Bl.block option =
  match s with
      | Tast.TSDecl (x, ty, init) ->
          let cur, v =
            match init with
            | Some e -> lower_expr ctx cur e
            | None -> (cur, default_value ctx cur ty)
          in
          Ssa_builder.write_var ctx.b cur x v;
          Some cur
      | Tast.TSAssignLocal (x, e) ->
          let cur, v = lower_expr ctx cur e in
          Ssa_builder.write_var ctx.b cur x v;
          Some cur
      | Tast.TSAssignField (recv, fld, e) ->
          let cur, r = lower_expr ctx cur recv in
          let cur, v = lower_expr ctx cur e in
          set_sp ctx recv;
          Ssa_builder.store ctx.b cur ~recv:r ~field:fld.Program.f_id ~src:v;
          Some cur
      | Tast.TSAssignIndex (a, i, e, elem) ->
          let cur, va = lower_expr ctx cur a in
          let cur, vi = lower_expr ctx cur i in
          let cur, v = lower_expr ctx cur e in
          set_sp ctx a;
          Ssa_builder.arr_store ctx.b cur ~arr:va ~idx:vi ~src:v ~elem:elem.Program.f_id;
          Some cur
      | Tast.TSAssignStatic (fld, e) ->
          let cur, v = lower_expr ctx cur e in
          Ssa_builder.store_static ctx.b cur ~field:fld.Program.f_id ~src:v;
          Some cur
      | Tast.TSThrow e ->
          let cur, v = lower_expr ctx cur e in
          Ssa_builder.terminate ctx.b cur (Bl.Throw v);
          None
      | Tast.TSExpr e ->
          let cur, _ = lower_expr ctx cur e in
          Some cur
      | Tast.TSReturn e ->
          (match e with
          | Some e ->
              let cur, v = lower_expr ctx cur e in
              Ssa_builder.write_var ctx.b cur "$ret" v;
              Ssa_builder.terminate ctx.b cur (Bl.Jump ctx.ret_block.Bl.b_id)
          | None -> Ssa_builder.terminate ctx.b cur (Bl.Jump ctx.ret_block.Bl.b_id));
          None
      | Tast.TSIf (c, thn, els) ->
          let then_pad = Ssa_builder.merge_block ctx.b in
          let else_pad = Ssa_builder.merge_block ctx.b in
          lower_cond ctx cur c then_pad else_pad;
          Ssa_builder.seal ctx.b then_pad;
          Ssa_builder.seal ctx.b else_pad;
          let end_thn = lower_stmts ctx (Some then_pad) thn in
          let end_els = lower_stmts ctx (Some else_pad) els in
          (match (end_thn, end_els) with
          | None, None -> None
          | _ ->
              let join = Ssa_builder.merge_block ctx.b in
              let jump = function
                | Some blk -> Ssa_builder.terminate ctx.b blk (Bl.Jump join.Bl.b_id)
                | None -> ()
              in
              jump end_thn;
              jump end_els;
              Ssa_builder.seal ctx.b join;
              Some join)
      | Tast.TSWhile (c, body) ->
          let header = Ssa_builder.merge_block ctx.b in
          Ssa_builder.terminate ctx.b cur (Bl.Jump header.Bl.b_id);
          let body_pad = Ssa_builder.merge_block ctx.b in
          let exit_pad = Ssa_builder.merge_block ctx.b in
          lower_cond ctx header c body_pad exit_pad;
          Ssa_builder.seal ctx.b body_pad;
          Ssa_builder.seal ctx.b exit_pad;
          let end_body = lower_stmts ctx (Some body_pad) body in
          (match end_body with
          | Some blk -> Ssa_builder.terminate ctx.b blk (Bl.Jump header.Bl.b_id)
          | None -> ());
          Ssa_builder.seal ctx.b header;
          Some exit_pad

and lower_stmts ctx cur stmts =
  List.fold_left
    (fun cur s ->
      match cur with
      (* statements after a return are dead code: Java rejects them, we
         drop them (they cannot affect the analysis) *)
      | None -> None
      | Some cur -> lower_stmt ctx cur s)
    cur stmts

(* ------------------------------- methods ------------------------------ *)

let lower_meth (prog : Program.t) (tm : Tast.tmeth) : Bl.body =
  let m = tm.Tast.tm_meth in
  let cls_ty = Ty.Obj m.Program.m_class in
  let params =
    (if m.Program.m_static then [] else [ ("this", cls_ty) ])
    @ List.map (fun (name, ty) -> (name, ty)) tm.Tast.tm_params
  in
  let b = Ssa_builder.create ~params in
  let ret_block = Ssa_builder.merge_block b in
  let ctx = { b; prog; meth = m; ret_block; tmp = 0 } in
  let entry = Ssa_builder.entry_block b in
  (* Pre-initialize the return slot so that methods whose completion the
     simple typechecker analysis cannot rule out still produce valid SSA
     (the default value only flows if the fall-through edge is live). *)
  (if not (Ty.equal m.Program.m_ret_ty Ty.Void) then
     let v = default_value ctx entry m.Program.m_ret_ty in
     Ssa_builder.write_var b entry "$ret" v);
  let end_ = lower_stmts ctx (Some entry) tm.Tast.tm_body in
  (match end_ with
  | Some blk -> Ssa_builder.terminate b blk (Bl.Jump ret_block.Bl.b_id)
  | None -> ());
  Ssa_builder.seal b ret_block;
  (if ret_block.Bl.b_preds = [] then
     (* the method provably never returns (e.g. 'while (true)'):
        the return block is unreachable *)
     Ssa_builder.terminate b ret_block (Bl.Return None)
   else if Ty.equal m.Program.m_ret_ty Ty.Void then
     Ssa_builder.terminate b ret_block (Bl.Return None)
   else
     let v = Ssa_builder.read_var b ret_block "$ret" ~ty:m.Program.m_ret_ty in
     Ssa_builder.terminate b ret_block (Bl.Return (Some v)));
  Ssa_builder.finish b

(** Lower every method of a type-checked program and attach the bodies;
    each body is validated against the Appendix B structural invariants. *)
let lower_program (tp : Tast.tprogram) : Program.t =
  List.iter
    (fun tm ->
      let body = lower_meth tp.Tast.tp_prog tm in
      Validate.run body;
      Program.set_body tm.Tast.tm_meth body)
    tp.Tast.tp_meths;
  tp.Tast.tp_prog
