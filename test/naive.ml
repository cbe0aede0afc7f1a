(* A naive solver of the Figure 15 inference rules (Appendix C): the
   oracle the engine's least fixed points are checked against.

   It starts from bottom and applies every rule to every flow, round
   after round, until a round changes nothing.  It has no worklist, no
   dirty bits, no deltas and no synchronous processing.  With the engine
   it shares only graph construction ([Build.run], whose emit schedules
   nothing here) and the lattice ([Vstate], [Flow.apply_filter]).
   Resolution, linking and propagation are its own, and so are its link
   sets: it never reads or writes a flow's [inv_linked], [inv_seen],
   [fa_linked], [fa_seen] or [work].  It models no budget and no
   saturation, so it checks only completed, unbudgeted runs of
   configurations without a saturation cutoff. *)

open Skipflow_ir
module C = Skipflow_core
module Flow = C.Flow
module Vstate = C.Vstate
module Typeset = C.Typeset
module Ints = Set.Make (Int)

type t = {
  prog : Program.t;
  config : C.Config.t;
  masks : C.Masks.t;
  pred_on : Flow.t;
  fields : Flow.t Ids.Field.Tbl.t;  (** the per-field flows *)
  mutable all_inst : (Ids.Class.t * Flow.t) list;
      (** the all-instantiated flows that feed root parameters *)
  graphs : C.Graph.method_graph Ids.Meth.Tbl.t;
  mutable order : C.Graph.method_graph list;  (** newest first *)
  mutable instantiated : Typeset.t;
  links : (int, Ints.t) Hashtbl.t;
      (** by flow id: an invoke's callee ids, a field access's field ids *)
  mutable changed : bool;  (** did the current round change anything? *)
}

let pval t = t.config.C.Config.pval

(* VS_in ⊒ v *)
let grow t (f : Flow.t) v =
  if not (Vstate.leq v f.Flow.raw) then begin
    f.Flow.raw <- Vstate.join ~pval:(pval t) f.Flow.raw v;
    t.changed <- true
  end

let enable t (f : Flow.t) =
  if not f.Flow.enabled then begin
    f.Flow.enabled <- true;
    t.changed <- true
  end

let always_on kind v =
  let f = Flow.make kind in
  f.Flow.enabled <- true;
  f.Flow.raw <- v;
  f.Flow.state <- v;
  f

(* a field holds its Java default value before any store *)
let field_flow t fid =
  match Ids.Field.Tbl.find_opt t.fields fid with
  | Some f -> f
  | None ->
      let default =
        match (Program.field t.prog fid).Program.f_ty with
        | Ty.Obj _ | Ty.Null -> Vstate.null
        | Ty.Int | Ty.Bool ->
            if t.config.C.Config.primitives then Vstate.const 0 else Vstate.any
        | Ty.Void -> Vstate.empty
      in
      let f = always_on (Flow.Field_state fid) default in
      Ids.Field.Tbl.replace t.fields fid f;
      f

let reach t (m : Program.meth) =
  match Ids.Meth.Tbl.find_opt t.graphs m.Program.m_id with
  | Some g -> g
  | None ->
      let counter = C.Trace.counter (C.Trace.create ()) "naive" in
      let ctx =
        {
          C.Build.prog = t.prog;
          config = t.config;
          masks = t.masks;
          pred_on = t.pred_on;
          emit = { C.Edges.input = (fun _ _ -> ()); enable = ignore; notify = ignore };
          field_flow = field_flow t;
          entered = (fun _ _ _ -> ());
          c_methods = counter;
          c_flows = counter;
          c_edges = counter;
        }
      in
      let g = C.Build.run ctx m in
      Ids.Meth.Tbl.replace t.graphs m.Program.m_id g;
      t.order <- g :: t.order;
      t.changed <- true;
      g

let links_of t (f : Flow.t) =
  Option.value ~default:Ints.empty (Hashtbl.find_opt t.links f.Flow.id)

(* add [target] to [f]'s link set, running [connect] the first time *)
let link t (f : Flow.t) target connect =
  let s = links_of t f in
  if not (Ints.mem target s) then begin
    Hashtbl.replace t.links f.Flow.id (Ints.add target s);
    t.changed <- true;
    connect ()
  end

let add_use (s : Flow.t) d = s.Flow.uses <- d :: s.Flow.uses

(* the value an enabled flow generates into its own VS_in *)
let generated t (f : Flow.t) =
  match f.Flow.kind with
  | Flow.Source v -> v
  | Flow.Alloc c -> Vstate.of_class c
  | Flow.Phi_pred -> Vstate.const 1
  | Flow.Return -> (
      match f.Flow.meth with
      | Some m when Ty.equal (Program.meth t.prog m).Program.m_ret_ty Ty.Void ->
          Vstate.const 0
      | _ -> Vstate.empty)
  | _ -> Vstate.empty

(* the non-null classes a receiver state dispatches on; [Any] stands for
   every instantiated type *)
let receiver_classes t (r : Flow.t) =
  let ts =
    match r.Flow.state with
    | Vstate.Types ts -> ts
    | Vstate.Any -> t.instantiated
    | Vstate.Empty | Vstate.Prim _ -> Typeset.empty
  in
  List.filter (fun c -> not (Program.is_null_class c)) (Typeset.classes ts)

(* Invoke: link every callee the receiver classes resolve to *)
let invoke t (f : Flow.t) (inv : Flow.invoke_site) =
  let callees =
    if inv.Flow.inv_virtual then
      List.filter_map
        (fun c -> Program.resolve t.prog ~recv_cls:c ~target:inv.Flow.inv_target)
        (receiver_classes t (Option.get inv.Flow.inv_recv))
    else [ Program.meth t.prog inv.Flow.inv_target ]
  in
  List.iter
    (fun (callee : Program.meth) ->
      link t f (Ids.Meth.to_int callee.Program.m_id) (fun () ->
          let g = reach t callee in
          let actuals =
            match inv.Flow.inv_recv with
            | Some r when not callee.Program.m_static -> r :: inv.Flow.inv_args
            | _ -> inv.Flow.inv_args
          in
          List.iter2 add_use actuals g.C.Graph.g_params;
          add_use g.C.Graph.g_return f))
    callees

(* Load / Store: link the field every receiver class looks up *)
let access t (f : Flow.t) (fa : Flow.field_access) =
  List.iter
    (fun c ->
      match Program.lookup_field t.prog ~recv_cls:c ~field:fa.Flow.fa_field with
      | None -> ()
      | Some fld ->
          link t f (Ids.Field.to_int fld.Program.f_id) (fun () ->
              let ff = field_flow t fld.Program.f_id in
              match f.Flow.kind with
              | Flow.Field_load _ -> add_use ff f
              | _ -> add_use f ff))
    (receiver_classes t fa.Flow.fa_recv)

(* every rule whose premise names [f] *)
let apply t (f : Flow.t) =
  if f.Flow.enabled then begin
    grow t f (generated t f);
    match f.Flow.kind with
    | Flow.Alloc c when not (Typeset.class_mem c t.instantiated) ->
        t.instantiated <- Typeset.class_add c t.instantiated;
        t.changed <- true
    | _ -> ()
  end;
  let out = Flow.apply_filter ~pval:(pval t) f f.Flow.raw in
  if not (Vstate.leq out f.Flow.state) then begin
    f.Flow.state <- Vstate.join ~pval:(pval t) f.Flow.state out;
    t.changed <- true
  end;
  if f.Flow.enabled then begin
    if not (Vstate.is_empty f.Flow.state) then begin
      List.iter (fun u -> grow t u f.Flow.state) f.Flow.uses;
      List.iter (enable t) f.Flow.pred_out
    end;
    match f.Flow.kind with
    | Flow.Invoke inv -> invoke t f inv
    | Flow.Field_load fa | Flow.Field_store fa -> access t f fa
    | _ -> ()
  end

(* a root's parameters, seeded as [Engine.add_root] seeds them *)
let add_root t (m : Program.meth) =
  let g = reach t m in
  if t.config.C.Config.seed_root_params then
    List.iter2
      (fun v (p : Flow.t) ->
        match Bl.var_ty g.C.Graph.g_body v with
        | Ty.Obj c ->
            let feed =
              match List.assoc_opt c t.all_inst with
              | Some f -> f
              | None ->
                  let f = always_on (Flow.All_instantiated c) Vstate.empty in
                  t.all_inst <- (c, f) :: t.all_inst;
                  f
            in
            add_use feed p;
            grow t p Vstate.null
        | Ty.Int | Ty.Bool -> grow t p Vstate.any
        | Ty.Null | Ty.Void -> ())
      g.C.Graph.g_body.Bl.params g.C.Graph.g_params

let round t =
  t.changed <- false;
  List.iter
    (fun (g : C.Graph.method_graph) ->
      Array.iter
        (fun f ->
          if not t.config.C.Config.predicates then enable t f;
          apply t f)
        g.C.Graph.g_flows)
    t.order;
  apply t t.pred_on;
  Ids.Field.Tbl.iter (fun _ f -> apply t f) t.fields;
  List.iter
    (fun (c, f) ->
      grow t f (Vstate.types (Typeset.inter t.instantiated (C.Masks.sub t.masks c)));
      apply t f)
    t.all_inst

(** Solve [prog] from [roots] to the least fixed point. *)
let solve config prog ~roots =
  let t =
    {
      prog;
      config;
      masks = C.Masks.compute prog;
      pred_on = always_on Flow.Pred_on (Vstate.const 1);
      fields = Ids.Field.Tbl.create 64;
      all_inst = [];
      graphs = Ids.Meth.Tbl.create 64;
      order = [];
      instantiated = Typeset.empty;
      links = Hashtbl.create 64;
      changed = false;
    }
  in
  List.iter (add_root t) roots;
  round t;
  while t.changed do
    round t
  done;
  t

(** [check engine naive]: [Ok ()] when both reach the same methods (by
    qualified name) and, in each method, the flows of equal creation
    index agree on kind, enabled bit, [state], [raw] and link set; else
    the first difference. *)
let check (e : C.Engine.t) t =
  let name (g : C.Graph.method_graph) =
    Program.qualified_name t.prog g.C.Graph.g_meth.Program.m_id
  in
  let names gs = List.sort String.compare (List.map name gs) in
  let ours = names t.order and theirs = names (C.Engine.graphs e) in
  (* ids in increasing order, as [Ints.elements] lists them *)
  let engine_links (f : Flow.t) =
    match f.Flow.kind with
    | Flow.Invoke inv -> List.map Ids.Meth.to_int (Ids.Meth.Set.elements inv.Flow.inv_linked)
    | Flow.Field_load fa | Flow.Field_store fa ->
        List.map Ids.Field.to_int (Ids.Field.Set.elements fa.Flow.fa_linked)
    | _ -> []
  in
  let describe (f : Flow.t) links =
    Format.asprintf "%s%s state %a raw %a links [%s]" (Flow.kind_name f)
      (if f.Flow.enabled then "[on]" else "[off]")
      Vstate.pp f.Flow.state Vstate.pp f.Flow.raw
      (String.concat " " (List.map string_of_int links))
  in
  if ours <> theirs then
    let only a b = String.concat " " (List.filter (fun m -> not (List.mem m b)) a) in
    Error
      (Printf.sprintf
         "reachable sets differ: only the engine reaches [%s], only the naive solver [%s]"
         (only theirs ours) (only ours theirs))
  else
    let mine = Hashtbl.create 64 in
    List.iter (fun g -> Hashtbl.replace mine (name g) g) t.order;
    let differences =
      List.concat_map
        (fun (ge : C.Graph.method_graph) ->
          let m = name ge in
          let fe = ge.C.Graph.g_flows and fn = (Hashtbl.find mine m).C.Graph.g_flows in
          if Array.length fe <> Array.length fn then
            [ Printf.sprintf "%s: %d vs %d flows" m (Array.length fe) (Array.length fn) ]
          else
            List.filter_map Fun.id
              (List.mapi
                 (fun i (x : Flow.t) ->
                   let y = fn.(i) in
                   let lx = engine_links x and ly = Ints.elements (links_of t y) in
                   if
                     Flow.kind_name x = Flow.kind_name y
                     && x.Flow.enabled = y.Flow.enabled
                     && Vstate.equal x.Flow.state y.Flow.state
                     && Vstate.equal x.Flow.raw y.Flow.raw
                     && lx = ly
                   then None
                   else
                     Some
                       (Printf.sprintf "%s: flow %d: engine %s; naive %s" m i
                          (describe x lx) (describe y ly)))
                 (Array.to_list fe)))
        (C.Engine.graphs e)
    in
    match differences with [] -> Ok () | d :: _ -> Error d
