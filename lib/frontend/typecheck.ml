(** Type checker and resolver for MiniJava.

    Two phases:
    + declare every class (in inheritance order), field, and method into a
      fresh {!Skipflow_ir.Program}; check the hierarchy (no cycles, no
      duplicate members, override compatibility);
    + check every method body against the declared signatures, producing
      the typed AST of {!Tast}.

    Scoping is deliberately simple: one flat scope per method (parameters +
    locals), declaration before use, no shadowing.  Non-void methods must
    return on every path ([while (true)] loops count as non-completing,
    which is how "a method never returns" programs — the invoke-as-
    predicate use case of Section 5 — are written). *)

open Skipflow_ir

exception Error of string * Lexer.pos

let errorf pos fmt = Format.kasprintf (fun s -> raise (Error (s, pos))) fmt

type env = {
  prog : Program.t;
  cls : Program.cls;  (** current class *)
  meth : Program.meth;  (** current method *)
  locals : (string, Ty.t) Hashtbl.t;
  mutable scope : string list;  (** locals declared in the innermost block *)
}

let rec lower_ty prog pos : Ast.ty -> Ty.t = function
  | Ast.Tint -> Ty.Int
  | Ast.Tbool -> Ty.Bool
  | Ast.Tvoid -> Ty.Void
  | Ast.Tclass name -> (
      match Program.find_class prog name with
      | Some c -> Ty.Obj c.Program.c_id
      | None -> errorf pos "unknown class %s" name)
  | Ast.Tarr elem -> (
      (* register the array class (and, covariantly, its super array
         classes) for the element type *)
      match lower_ty prog pos elem with
      | Ty.Void -> errorf pos "array of void"
      | ety -> Ty.Obj (Program.array_class prog ety).Program.c_id)

let ty_name prog t = Ty.to_string ~class_name:(Program.class_name prog) t

(** Assignability: [sub] can be assigned to a location of type [sup]. *)
let assignable prog ~sub ~sup =
  match (sub, sup) with
  | Ty.Int, Ty.Int | Ty.Bool, Ty.Bool -> true
  | Ty.Null, Ty.Obj _ -> true
  | Ty.Obj a, Ty.Obj b -> Program.subtype prog ~sub:a ~sup:b
  | _ -> false

(* ------------------------- phase 1: declarations ----------------------- *)

let declare_classes prog (cds : Ast.class_decl list) =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (cd : Ast.class_decl) ->
      if Hashtbl.mem by_name cd.Ast.cd_name then
        errorf cd.Ast.cd_pos "class %s declared twice" cd.Ast.cd_name;
      Hashtbl.replace by_name cd.Ast.cd_name cd)
    cds;
  (* topological order along the inheritance relation, with cycle check *)
  let declared = Hashtbl.create 16 in
  let in_progress = Hashtbl.create 16 in
  let rec declare (cd : Ast.class_decl) =
    if not (Hashtbl.mem declared cd.Ast.cd_name) then begin
      if Hashtbl.mem in_progress cd.Ast.cd_name then
        errorf cd.Ast.cd_pos "inheritance cycle through class %s" cd.Ast.cd_name;
      Hashtbl.replace in_progress cd.Ast.cd_name ();
      let super =
        match cd.Ast.cd_super with
        | None -> None
        | Some sname -> (
            match Hashtbl.find_opt by_name sname with
            | Some scd ->
                declare scd;
                Some (Hashtbl.find declared sname : Program.cls).Program.c_id
            | None -> errorf cd.Ast.cd_pos "unknown superclass %s" sname)
      in
      let c =
        Program.declare_class prog ~name:cd.Ast.cd_name ?super
          ~abstract:cd.Ast.cd_abstract ()
      in
      Hashtbl.replace declared cd.Ast.cd_name c;
      Hashtbl.remove in_progress cd.Ast.cd_name
    end
  in
  List.iter declare cds;
  (* members; class types in signatures may refer to any class, so this is
     a separate pass after all classes exist *)
  List.iter
    (fun (cd : Ast.class_decl) ->
      let c = Hashtbl.find declared cd.Ast.cd_name in
      List.iter
        (fun (fd : Ast.field_decl) ->
          let ty = lower_ty prog fd.Ast.fd_pos fd.Ast.fd_ty in
          if Ty.equal ty Ty.Void then errorf fd.Ast.fd_pos "field of type void";
          ignore
            (Program.declare_field prog c ~name:fd.Ast.fd_name ~ty
               ~static:fd.Ast.fd_static ()))
        cd.Ast.cd_fields;
      List.iter
        (fun (md : Ast.meth_decl) ->
          let param_tys =
            List.map (fun (t, _) -> lower_ty prog md.Ast.md_pos t) md.Ast.md_params
          in
          List.iter
            (fun t ->
              if Ty.equal t Ty.Void then errorf md.Ast.md_pos "parameter of type void")
            param_tys;
          let ret_ty = lower_ty prog md.Ast.md_pos md.Ast.md_ret in
          let span =
            Span.make ~line:md.Ast.md_pos.Lexer.line ~col:md.Ast.md_pos.Lexer.col
          in
          ignore
            (Program.declare_meth prog c ~span ~name:md.Ast.md_name
               ~static:md.Ast.md_static ~param_tys ~ret_ty ()))
        cd.Ast.cd_meths)
    cds;
  (* override compatibility *)
  List.iter
    (fun (cd : Ast.class_decl) ->
      let c = Hashtbl.find declared cd.Ast.cd_name in
      match c.Program.c_super with
      | None -> ()
      | Some super ->
          List.iter
            (fun (m : Program.meth) ->
              match Program.resolve_by_name prog ~recv_cls:super ~name:m.Program.m_name with
              | Some inherited ->
                  if m.Program.m_static then
                    errorf cd.Ast.cd_pos
                      "static method %s.%s hides a virtual method" cd.Ast.cd_name
                      m.Program.m_name;
                  if
                    not
                      (List.length inherited.Program.m_param_tys
                       = List.length m.Program.m_param_tys
                      && List.for_all2 Ty.equal inherited.Program.m_param_tys
                           m.Program.m_param_tys
                      && Ty.equal inherited.Program.m_ret_ty m.Program.m_ret_ty)
                  then
                    errorf cd.Ast.cd_pos "override %s.%s changes the signature"
                      cd.Ast.cd_name m.Program.m_name
              | None -> ())
            (List.filter (fun m -> not m.Program.m_static) c.Program.c_methods))
    cds;
  declared

(* --------------------------- phase 2: bodies --------------------------- *)

let rec check_expr env (e : Ast.expr) : Tast.texpr =
  let pos = e.Ast.pos in
  let mk ty node = { Tast.ty; node; pos } in
  match e.Ast.e with
  | Ast.Int n -> mk Ty.Int (Tast.TInt n)
  | Ast.Bool b -> mk Ty.Bool (Tast.TBool b)
  | Ast.Null -> mk Ty.Null Tast.TNull
  | Ast.This ->
      if env.meth.Program.m_static then errorf pos "'this' in a static method";
      mk (Ty.Obj env.cls.Program.c_id) Tast.TThis
  | Ast.Ident name -> (
      match Hashtbl.find_opt env.locals name with
      | Some ty -> mk ty (Tast.TLocal name)
      | None -> errorf pos "unknown variable %s" name)
  | Ast.New cname -> (
      match Program.find_class env.prog cname with
      | Some c ->
          if c.Program.c_abstract then errorf pos "cannot instantiate abstract class %s" cname;
          mk (Ty.Obj c.Program.c_id) (Tast.TNew c.Program.c_id)
      | None -> errorf pos "unknown class %s" cname)
  | Ast.NewArr (elem, len) -> (
      let tlen = check_expr env len in
      if not (Ty.equal tlen.Tast.ty Ty.Int) then errorf pos "array length must be int";
      match lower_ty env.prog pos elem with
      | Ty.Void -> errorf pos "array of void"
      | ety ->
          let acls = Program.array_class env.prog ety in
          mk (Ty.Obj acls.Program.c_id) (Tast.TNewArr (acls.Program.c_id, tlen)))
  | Ast.Index (a, i) -> (
      let ta = check_expr env a in
      let ti = check_expr env i in
      if not (Ty.equal ti.Tast.ty Ty.Int) then errorf pos "array index must be int";
      match ta.Tast.ty with
      | Ty.Obj c when Program.is_array_class env.prog c ->
          let ety = Option.get (Program.array_elem_ty env.prog c) in
          let elem = Program.elem_field_of env.prog (Program.cls env.prog c) in
          mk ety (Tast.TArrGet (ta, ti, elem))
      | t -> errorf pos "indexing a non-array of type %s" (ty_name env.prog t))
  | Ast.Cast (ty, e) -> (
      let te = check_expr env e in
      (match te.Tast.ty with
      | Ty.Obj _ | Ty.Null -> ()
      | t -> errorf pos "cast of non-object type %s" (ty_name env.prog t));
      match lower_ty env.prog pos ty with
      | Ty.Obj c -> mk (Ty.Obj c) (Tast.TCast (c, te))
      | t -> errorf pos "cast to non-class type %s" (ty_name env.prog t))
  | Ast.FieldGet ({ Ast.e = Ast.Ident cname; _ }, fname)
    when (not (Hashtbl.mem env.locals cname))
         && Program.find_class env.prog cname <> None -> (
      (* static field read 'C.x' *)
      let c = Option.get (Program.find_class env.prog cname) in
      match
        List.find_opt
          (fun (f : Program.field) -> String.equal f.Program.f_name fname)
          c.Program.c_fields
      with
      | Some fld when fld.Program.f_static -> mk fld.Program.f_ty (Tast.TStaticGet fld)
      | Some _ -> errorf pos "field %s.%s is not static" cname fname
      | None -> errorf pos "class %s has no static field %s" cname fname)
  | Ast.FieldGet (recv, fname) -> (
      let trecv = check_expr env recv in
      match trecv.Tast.ty with
      | Ty.Obj c when Program.is_array_class env.prog c && String.equal fname "length" ->
          (* arrays expose only 'length' *)
          mk Ty.Int (Tast.TArrLen trecv)
      | Ty.Obj c -> (
          match Program.lookup_field_by_name env.prog ~recv_cls:c ~name:fname with
          | Some fld when not fld.Program.f_static ->
              mk fld.Program.f_ty (Tast.TFieldGet (trecv, fld))
          | Some _ -> errorf pos "static field %s accessed through an instance" fname
          | None ->
              errorf pos "class %s has no field %s" (Program.class_name env.prog c) fname)
      | t -> errorf pos "field access on non-object type %s" (ty_name env.prog t))
  | Ast.Call (recv, mname, args) -> check_call env pos recv mname args
  | Ast.Binop (op, a, b) -> (
      let ta = check_expr env a and tb = check_expr env b in
      let want ty (t : Tast.texpr) =
        if not (Ty.equal t.Tast.ty ty) then
          errorf pos "operand of type %s where %s was expected"
            (ty_name env.prog t.Tast.ty) (ty_name env.prog ty)
      in
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Rem ->
          want Ty.Int ta;
          want Ty.Int tb;
          let aop =
            match op with
            | Ast.Add -> Bl.Add
            | Ast.Sub -> Bl.Sub
            | Ast.Mul -> Bl.Mul
            | Ast.Div -> Bl.Div
            | _ -> Bl.Rem
          in
          mk Ty.Int (Tast.TArith (aop, ta, tb))
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
          want Ty.Int ta;
          want Ty.Int tb;
          mk Ty.Bool (Tast.TCmp (op, ta, tb))
      | Ast.Eq | Ast.Ne ->
          let ok =
            match (ta.Tast.ty, tb.Tast.ty) with
            | Ty.Int, Ty.Int | Ty.Bool, Ty.Bool -> true
            | (Ty.Obj _ | Ty.Null), (Ty.Obj _ | Ty.Null) -> true
            | _ -> false
          in
          if not ok then
            errorf pos "cannot compare %s with %s" (ty_name env.prog ta.Tast.ty)
              (ty_name env.prog tb.Tast.ty);
          mk Ty.Bool (Tast.TCmp (op, ta, tb))
      | Ast.And | Ast.Or ->
          want Ty.Bool ta;
          want Ty.Bool tb;
          mk Ty.Bool
            (if op = Ast.And then Tast.TAnd (ta, tb) else Tast.TOr (ta, tb)))
  | Ast.Not e ->
      let te = check_expr env e in
      if not (Ty.equal te.Tast.ty Ty.Bool) then errorf pos "'!' on a non-boolean";
      mk Ty.Bool (Tast.TNot te)
  | Ast.Neg e ->
      let te = check_expr env e in
      if not (Ty.equal te.Tast.ty Ty.Int) then errorf pos "unary '-' on a non-integer";
      mk Ty.Int
        (Tast.TArith (Bl.Sub, { Tast.ty = Ty.Int; node = Tast.TInt 0; pos }, te))
  | Ast.InstanceOf (e, cname) -> (
      let te = check_expr env e in
      (match te.Tast.ty with
      | Ty.Obj _ | Ty.Null -> ()
      | t -> errorf pos "instanceof on non-object type %s" (ty_name env.prog t));
      match Program.find_class env.prog cname with
      | Some c -> mk Ty.Bool (Tast.TInstanceOf (te, c.Program.c_id))
      | None -> errorf pos "unknown class %s" cname)

and check_call env pos recv mname args : Tast.texpr =
  let targs = List.map (check_expr env) args in
  let check_args (m : Program.meth) =
    if List.length m.Program.m_param_tys <> List.length targs then
      errorf pos "method %s expects %d arguments, got %d" m.Program.m_name
        (List.length m.Program.m_param_tys)
        (List.length targs);
    List.iter2
      (fun pty (a : Tast.texpr) ->
        if not (assignable env.prog ~sub:a.Tast.ty ~sup:pty) then
          errorf a.Tast.pos "argument of type %s where %s was expected"
            (ty_name env.prog a.Tast.ty) (ty_name env.prog pty))
      m.Program.m_param_tys targs
  in
  let virtual_call trecv c =
    match Program.resolve_by_name env.prog ~recv_cls:c ~name:mname with
    | Some m when not m.Program.m_static ->
        check_args m;
        { Tast.ty = m.Program.m_ret_ty; node = Tast.TVirtualCall (trecv, m, targs); pos }
    | Some _ -> errorf pos "%s is static; call it as Class.%s(...)" mname mname
    | None ->
        errorf pos "class %s has no method %s" (Program.class_name env.prog c) mname
  in
  match recv with
  | Some { Ast.e = Ast.Ident name; pos = rpos }
    when (not (Hashtbl.mem env.locals name)) && Program.find_class env.prog name <> None
    -> (
      (* static call 'ClassName.m(args)' *)
      let c = Option.get (Program.find_class env.prog name) in
      match Program.find_meth env.prog c mname with
      | Some m when m.Program.m_static ->
          check_args m;
          { Tast.ty = m.Program.m_ret_ty; node = Tast.TStaticCall (m, targs); pos }
      | Some _ -> errorf rpos "method %s.%s is not static" name mname
      | None -> errorf rpos "class %s has no method %s" name mname)
  | Some recv -> (
      let trecv = check_expr env recv in
      match trecv.Tast.ty with
      | Ty.Obj c -> virtual_call trecv c
      | Ty.Null -> errorf pos "method call on null"
      | t -> errorf pos "method call on non-object type %s" (ty_name env.prog t))
  | None ->
      (* bare call: implicit this (instance context) or static in the
         current class (static context) *)
      if env.meth.Program.m_static then begin
        match Program.find_meth env.prog env.cls mname with
        | Some m when m.Program.m_static ->
            check_args m;
            { Tast.ty = m.Program.m_ret_ty; node = Tast.TStaticCall (m, targs); pos }
        | Some _ | None ->
            errorf pos "no static method %s in class %s" mname env.cls.Program.c_name
      end
      else
        let this =
          { Tast.ty = Ty.Obj env.cls.Program.c_id; node = Tast.TThis; pos }
        in
        virtual_call this env.cls.Program.c_id

let rec check_stmt env (s : Ast.stmt) : Tast.tstmt =
  let pos = s.Ast.spos in
  match s.Ast.s with
  | Ast.LocalDecl (ty, name, init) ->
      let ty = lower_ty env.prog pos ty in
      if Ty.equal ty Ty.Void then errorf pos "variable of type void";
      if Hashtbl.mem env.locals name then errorf pos "variable %s declared twice" name;
      let tinit =
        Option.map
          (fun e ->
            let te = check_expr env e in
            if not (assignable env.prog ~sub:te.Tast.ty ~sup:ty) then
              errorf pos "cannot initialize %s with %s" (ty_name env.prog ty)
                (ty_name env.prog te.Tast.ty);
            te)
          init
      in
      Hashtbl.replace env.locals name ty;
      env.scope <- name :: env.scope;
      Tast.TSDecl (name, ty, tinit)
  | Ast.AssignLocal (name, e) -> (
      match Hashtbl.find_opt env.locals name with
      | None -> errorf pos "unknown variable %s" name
      | Some ty ->
          let te = check_expr env e in
          if not (assignable env.prog ~sub:te.Tast.ty ~sup:ty) then
            errorf pos "cannot assign %s to %s" (ty_name env.prog te.Tast.ty)
              (ty_name env.prog ty);
          Tast.TSAssignLocal (name, te))
  | Ast.AssignIndex (a, i, e) -> (
      let ta = check_expr env a in
      let ti = check_expr env i in
      if not (Ty.equal ti.Tast.ty Ty.Int) then errorf pos "array index must be int";
      match ta.Tast.ty with
      | Ty.Obj c when Program.is_array_class env.prog c ->
          let ety = Option.get (Program.array_elem_ty env.prog c) in
          let te = check_expr env e in
          if not (assignable env.prog ~sub:te.Tast.ty ~sup:ety) then
            errorf pos "cannot store %s into an array of %s"
              (ty_name env.prog te.Tast.ty) (ty_name env.prog ety);
          let elem = Program.elem_field_of env.prog (Program.cls env.prog c) in
          Tast.TSAssignIndex (ta, ti, te, elem)
      | t -> errorf pos "indexing a non-array of type %s" (ty_name env.prog t))
  | Ast.Throw e ->
      let te = check_expr env e in
      (match te.Tast.ty with
      | Ty.Obj _ -> ()
      | t -> errorf pos "throw of non-object type %s" (ty_name env.prog t));
      Tast.TSThrow te
  | Ast.AssignField ({ Ast.e = Ast.Ident cname; _ }, fname, e)
    when (not (Hashtbl.mem env.locals cname))
         && Program.find_class env.prog cname <> None -> (
      let c = Option.get (Program.find_class env.prog cname) in
      match
        List.find_opt
          (fun (f : Program.field) -> String.equal f.Program.f_name fname)
          c.Program.c_fields
      with
      | Some fld when fld.Program.f_static ->
          let te = check_expr env e in
          if not (assignable env.prog ~sub:te.Tast.ty ~sup:fld.Program.f_ty) then
            errorf pos "cannot assign %s to static field of type %s"
              (ty_name env.prog te.Tast.ty)
              (ty_name env.prog fld.Program.f_ty);
          Tast.TSAssignStatic (fld, te)
      | Some _ -> errorf pos "field %s.%s is not static" cname fname
      | None -> errorf pos "class %s has no static field %s" cname fname)
  | Ast.AssignField (recv, fname, e) -> (
      let trecv = check_expr env recv in
      match trecv.Tast.ty with
      | Ty.Obj c -> (
          match Program.lookup_field_by_name env.prog ~recv_cls:c ~name:fname with
          | Some fld ->
              let te = check_expr env e in
              if not (assignable env.prog ~sub:te.Tast.ty ~sup:fld.Program.f_ty) then
                errorf pos "cannot assign %s to field of type %s"
                  (ty_name env.prog te.Tast.ty)
                  (ty_name env.prog fld.Program.f_ty);
              Tast.TSAssignField (trecv, fld, te)
          | None ->
              errorf pos "class %s has no field %s" (Program.class_name env.prog c) fname)
      | t -> errorf pos "field store on non-object type %s" (ty_name env.prog t))
  | Ast.ExprStmt e -> Tast.TSExpr (check_expr env e)
  | Ast.If (c, thn, els) ->
      let tc = check_expr env c in
      if not (Ty.equal tc.Tast.ty Ty.Bool) then errorf pos "if condition must be boolean";
      Tast.TSIf (tc, check_scoped env thn, check_scoped env els)
  | Ast.While (c, body) ->
      let tc = check_expr env c in
      if not (Ty.equal tc.Tast.ty Ty.Bool) then errorf pos "while condition must be boolean";
      Tast.TSWhile (tc, check_scoped env body)
  | Ast.Return None ->
      if not (Ty.equal env.meth.Program.m_ret_ty Ty.Void) then
        errorf pos "missing return value";
      Tast.TSReturn None
  | Ast.Return (Some e) ->
      if Ty.equal env.meth.Program.m_ret_ty Ty.Void then
        errorf pos "void method cannot return a value";
      let te = check_expr env e in
      if not (assignable env.prog ~sub:te.Tast.ty ~sup:env.meth.Program.m_ret_ty) then
        errorf pos "return type mismatch: %s where %s was expected"
          (ty_name env.prog te.Tast.ty)
          (ty_name env.prog env.meth.Program.m_ret_ty);
      Tast.TSReturn (Some te)
  | Ast.Block body ->
      Tast.TSIf
        ( { Tast.ty = Ty.Bool; node = Tast.TBool true; pos },
          check_scoped env body,
          [] )

(** Check a nested statement list with lexical scoping: declarations inside
    the block do not leak out.  This matters for the SSA lowering — a
    variable declared in only one branch has no definition on the other
    path, so allowing it to escape would produce reads of undefined SSA
    values.  Shadowing is an error, so removing the block's own names when
    it ends restores the enclosing scope (a failed check abandons the
    whole method, so it needs no restoring). *)
and check_scoped env stmts =
  let enclosing = env.scope in
  env.scope <- [];
  let tstmts = List.map (check_stmt env) stmts in
  List.iter (Hashtbl.remove env.locals) env.scope;
  env.scope <- enclosing;
  tstmts

(** Does the statement list complete normally (JLS-style definite-return
    check, simplified)?  [while (true)] never completes. *)
let rec completes (stmts : Tast.tstmt list) =
  match stmts with
  | [] -> true
  | s :: rest -> (
      match s with
      | Tast.TSReturn _ | Tast.TSThrow _ -> false
      | Tast.TSIf ({ node = Tast.TBool true; _ }, thn, _) ->
          if completes thn then completes rest else false
      | Tast.TSIf (_, thn, els) ->
          if completes thn || completes els then completes rest else false
      | Tast.TSWhile ({ node = Tast.TBool true; _ }, _) -> false
      | _ -> completes rest)

let check_meth prog (cls : Program.cls) (m : Program.meth) (md : Ast.meth_decl) :
    Tast.tmeth =
  let locals = Hashtbl.create 16 in
  let params =
    List.map2
      (fun (_, name) ty ->
        if Hashtbl.mem locals name then
          errorf md.Ast.md_pos "parameter %s declared twice" name;
        Hashtbl.replace locals name ty;
        (name, ty))
      md.Ast.md_params m.Program.m_param_tys
  in
  let env = { prog; cls; meth = m; locals; scope = [] } in
  let body = List.map (check_stmt env) md.Ast.md_body in
  if (not (Ty.equal m.Program.m_ret_ty Ty.Void)) && completes body then
    errorf md.Ast.md_pos "method %s.%s does not return on all paths"
      cls.Program.c_name m.Program.m_name;
  { Tast.tm_meth = m; tm_params = params; tm_body = body }

(** Type-check with error recovery at method boundaries.  Phase 1
    (declarations) still fails fast — a broken hierarchy makes every
    downstream message unreliable — but phase 2 checks every method body
    even after some have failed, accumulating one diagnostic per broken
    method.  Returns [Ok] only when no diagnostics were produced. *)
let check_diags (cds : Ast.program) : (Tast.tprogram, Diag.t list) result =
  let prog = Program.create () in
  match declare_classes prog cds with
  | exception Error (msg, epos) ->
      Stdlib.Error [ Diag.error ~stage:Diag.Type epos "%s" msg ]
  | declared ->
      let diags = ref [] in
      let tmeths =
        List.concat_map
          (fun (cd : Ast.class_decl) ->
            let cls = Hashtbl.find declared cd.Ast.cd_name in
            List.filter_map
              (fun (md : Ast.meth_decl) ->
                let m = Option.get (Program.find_meth prog cls md.Ast.md_name) in
                match check_meth prog cls m md with
                | tm -> Some tm
                | exception Error (msg, epos) ->
                    diags := Diag.error ~stage:Diag.Type epos "%s" msg :: !diags;
                    None)
              cd.Ast.cd_meths)
          cds
      in
      if !diags = [] then Ok { Tast.tp_prog = prog; tp_meths = tmeths }
      else Stdlib.Error (List.rev !diags)
