(** The lint client layer: checks that consume the {e solved} PVPG — the
    fixed-point value states, enabled bits and link sets of an
    {!Skipflow_core.Engine} run — and emit {!Finding.t}s.  Every verdict
    is justified by the fixed point; no check looks at source syntax.

    This is the "Impact on Compiler Optimizations" story of the paper's
    Section 6 turned into a user-facing tool: where {!Skipflow_core.Report}
    aggregates counts for Table 1, the checks point at the offending source
    positions (threaded through lowering as {!Skipflow_ir.Span}s). *)

open Skipflow_ir
open Skipflow_core

(** Everything a check may consult.  [cha] is the coarsest baseline of the
    precision spectrum: a method CHA considers reachable is plausibly
    called from somewhere in the source, so "CHA-reachable but SkipFlow-
    dead" is interesting while "never mentioned at all" is not. *)
type ctx = {
  prog : Program.t;
  engine : Engine.t;  (** solved: {!Engine.run} has reached the fixed point *)
  cha : Skipflow_baselines.Cha.result;
  roots : Ids.Meth.Set.t;
}

let make_ctx ~(engine : Engine.t) ~(roots : Program.meth list) : ctx =
  let prog = Engine.prog_of engine in
  {
    prog;
    engine;
    cha = Skipflow_baselines.Cha.run prog ~roots;
    roots = Engine.roots engine;
  }

let qname ctx m = Program.qualified_name ctx.prog m

(* --------------------------- shared predicates ------------------------ *)

let live (f : Flow.t) = f.Flow.enabled && not (Vstate.is_empty f.Flow.state)

(** The fixed point proves the value is the [null] reference and nothing
    else: an enabled flow whose state is exactly the singleton null set. *)
let null_only (f : Flow.t) =
  f.Flow.enabled
  &&
  match f.Flow.state with
  | Vstate.Types ts -> Typeset.equal ts Typeset.null_bit
  | _ -> false

let has_non_null ts = not (Typeset.is_empty (Typeset.diff ts Typeset.null_bit))

(* ------------------------------- checks ------------------------------- *)

(** Reachable under CHA (so the source plausibly calls it) but its PVPG
    was never built: SkipFlow proved every call site that could reach it
    dead.  Roots are reachable by assumption and never reported. *)
let dead_method_findings ctx =
  let fs = ref [] in
  Program.iter_meths ctx.prog (fun (m : Program.meth) ->
      if
        m.Program.m_body <> None
        && Ids.Meth.Set.mem m.Program.m_id ctx.cha.Skipflow_baselines.Cha.reachable
        && (not (Ids.Meth.Set.mem m.Program.m_id ctx.roots))
        && not (Engine.is_reachable ctx.engine m.Program.m_id)
      then
        fs :=
          Finding.make ?span:m.Program.m_span ~check:"dead-method"
            ~severity:Finding.Warning ~meth:(qname ctx m.Program.m_id)
            (Printf.sprintf "method '%s' is never called"
               (qname ctx m.Program.m_id))
            ~hint:
              "reachable under class-hierarchy analysis but dead at the \
               SkipFlow fixed point"
          :: !fs);
  !fs

(** One-sided branch verdicts.  [bs_swapped] undoes condition
    normalization so the message speaks about the {e source} branches;
    synthetic branches (lowering artifacts around block statements and
    [while (true)]) are skipped. *)
let dead_branch_findings ctx =
  let fs = ref [] in
  List.iter
    (fun (g : Graph.method_graph) ->
      let meth = qname ctx g.Graph.g_meth.Program.m_id in
      List.iter
        (fun (bs : Graph.branch_site) ->
          if not bs.Graph.bs_synthetic then
            let add severity message hint =
              fs :=
                Finding.make ?span:bs.Graph.bs_span ~check:"dead-branch"
                  ~severity ~meth message ~hint
                :: !fs
            in
            let kind = Report.kind_name bs.Graph.bs_kind in
            match Report.branch_verdict bs with
            | Report.Both_live -> ()
            | Report.Neither ->
                add Finding.Note
                  "condition is never evaluated (it sits in dead code)"
                  (Printf.sprintf
                     "neither branch of this %s is enabled at the fixed point"
                     kind)
            | (Report.Then_only | Report.Else_only) as v ->
                (* [Then_only] = the IR else-successor is dead; with swapped
                   targets the IR then-successor is the source else-branch *)
                let cond_always_true =
                  (v = Report.Then_only) <> bs.Graph.bs_swapped
                in
                let dead = if cond_always_true then "else" else "then" in
                add Finding.Warning
                  (Printf.sprintf "condition is always %b: the %s branch is dead"
                     cond_always_true dead)
                  (Printf.sprintf
                     "the %s's filter flow for that branch has an empty value \
                      state at the fixed point"
                     kind))
        g.Graph.g_branches)
    (Engine.graphs ctx.engine);
  !fs

(** A reached checkcast whose filtered state keeps no object type: some
    non-null values arrive ([raw] has a non-null member) but none survives
    the declared-type mask, so the cast can only throw — or pass [null]
    through, when null reaches it too. *)
let impossible_cast_findings ctx =
  let fs = ref [] in
  List.iter
    (fun (g : Graph.method_graph) ->
      let meth = qname ctx g.Graph.g_meth.Program.m_id in
      Array.iter
        (fun (f : Flow.t) ->
          match f.Flow.kind with
          | Flow.Cast cls when f.Flow.enabled -> (
              match f.Flow.raw with
              | Vstate.Types ts_in
                when has_non_null ts_in
                     && not (has_non_null (Vstate.type_set f.Flow.state)) ->
                  fs :=
                    Finding.make ?span:f.Flow.span ~check:"impossible-cast"
                      ~severity:Finding.Warning ~meth
                      (Printf.sprintf
                         "impossible cast to '%s': no value reaching this \
                          cast is a subtype of it"
                         (Program.class_name ctx.prog cls))
                      ~hint:
                        (if Typeset.has_null ts_in then
                           "every non-null input throws ClassCastException; \
                            only null passes through"
                         else "every input throws ClassCastException")
                    :: !fs
              | _ -> ())
          | _ -> ())
        g.Graph.g_flows)
    (Engine.graphs ctx.engine);
  !fs

(** A reached field access, array access or virtual call whose receiver's
    fixed-point value state is exactly [{null}]: the dereference throws on
    every execution that reaches it. *)
let null_deref_findings ctx =
  let fs = ref [] in
  List.iter
    (fun (g : Graph.method_graph) ->
      let meth = qname ctx g.Graph.g_meth.Program.m_id in
      let add span what =
        fs :=
          Finding.make ?span ~check:"null-deref" ~severity:Finding.Error ~meth
            (Printf.sprintf "null dereference: the receiver of this %s is \
                             always null" what)
            ~hint:"the receiver's fixed-point value state is exactly {null}"
          :: !fs
      in
      let access_what (fa : Flow.field_access) verb =
        let fld = Program.field ctx.prog fa.Flow.fa_field in
        if fld.Program.f_name = Program.elem_field_name then "array " ^ verb
        else Printf.sprintf "%s of field '%s'" verb fld.Program.f_name
      in
      Array.iter
        (fun (f : Flow.t) ->
          if f.Flow.enabled then
            match f.Flow.kind with
            | Flow.Field_load fa when null_only fa.Flow.fa_recv ->
                add f.Flow.span (access_what fa "load")
            | Flow.Field_store fa when null_only fa.Flow.fa_recv ->
                add f.Flow.span (access_what fa "store")
            | Flow.Invoke inv -> (
                match inv.Flow.inv_recv with
                | Some r when inv.Flow.inv_virtual && null_only r ->
                    add f.Flow.span
                      (Printf.sprintf "call to '%s'"
                         (Program.meth_name ctx.prog inv.Flow.inv_target))
                | _ -> ())
            | _ -> ())
        g.Graph.g_flows)
    (Engine.graphs ctx.engine);
  !fs

(** A virtual call site the fixed point links to exactly one
    implementation, at a target CHA resolves to several: the precise
    type-set earned a devirtualization a syntactic tool could not. *)
let devirtualize_findings ctx =
  let fs = ref [] in
  List.iter
    (fun (g : Graph.method_graph) ->
      let meth = qname ctx g.Graph.g_meth.Program.m_id in
      List.iter
        (fun (f : Flow.t) ->
          match f.Flow.kind with
          | Flow.Invoke inv
            when inv.Flow.inv_virtual && f.Flow.enabled
                 && Ids.Meth.Set.cardinal inv.Flow.inv_linked = 1 ->
              let decl =
                (Program.meth ctx.prog inv.Flow.inv_target).Program.m_class
              in
              let cha_impls =
                List.sort_uniq Ids.Meth.compare
                  (List.filter_map
                     (fun c ->
                       Option.map
                         (fun (m : Program.meth) -> m.Program.m_id)
                         (Program.resolve ctx.prog ~recv_cls:c
                            ~target:inv.Flow.inv_target))
                     (Program.concrete_subtypes ctx.prog decl))
              in
              if List.length cha_impls > 1 then
                let target = Ids.Meth.Set.choose inv.Flow.inv_linked in
                fs :=
                  Finding.make ?span:f.Flow.span ~check:"devirtualize"
                    ~severity:Finding.Note ~meth
                    (Printf.sprintf
                       "devirtualizable call: always dispatches to '%s'"
                       (qname ctx target))
                    ~hint:
                      (Printf.sprintf
                         "the fixed point links one implementation where \
                          class-hierarchy analysis sees %d"
                         (List.length cha_impls))
                  :: !fs
          | _ -> ())
        g.Graph.g_invokes)
    (Engine.graphs ctx.engine);
  !fs

(* ------------------------------ registry ------------------------------ *)

type check = {
  id : string;
  doc : string;  (** one line for [--help] and the README table *)
  run : ctx -> Finding.t list;
}

let all : check list =
  [
    {
      id = "dead-method";
      doc = "method reachable under CHA but dead at the SkipFlow fixed point";
      run = dead_method_findings;
    };
    {
      id = "dead-branch";
      doc = "branch condition with a one-sided fixed-point verdict";
      run = dead_branch_findings;
    };
    {
      id = "impossible-cast";
      doc = "checkcast whose filtered type-set keeps no object type";
      run = impossible_cast_findings;
    };
    {
      id = "null-deref";
      doc = "field/array access or call on a receiver proved exactly null";
      run = null_deref_findings;
    };
    {
      id = "devirtualize";
      doc = "virtual call linked to a single implementation (CHA sees more)";
      run = devirtualize_findings;
    };
  ]

exception Unknown_check of string

let find id =
  match List.find_opt (fun c -> c.id = id) all with
  | Some c -> c
  | None -> raise (Unknown_check id)

(** Run the selected checks (default: all, in registry order) and return
    the findings in source order ({!Finding.compare}).  The engine is only
    read: nothing is counted into its trace. *)
let run ?only ctx : Finding.t list =
  let checks =
    match only with None -> all | Some ids -> List.map find ids
  in
  List.stable_sort Finding.compare (List.concat_map (fun c -> c.run ctx) checks)

(* ------------------- structured facts for the oracle ------------------ *)

(** IR blocks the fixed point proves dead: the dead successor of each
    one-sided branch site, both successors of a [Neither] site.  Synthetic
    branches are {e included} — their dead side must still never execute,
    the soundness obligation does not care who created the branch.  The
    fuzz harness checks these against interpreter traces. *)
let dead_blocks ctx : (Ids.Meth.t * Ids.Block.t) list =
  List.concat_map
    (fun (g : Graph.method_graph) ->
      let m = g.Graph.g_meth.Program.m_id in
      List.concat_map
        (fun (bs : Graph.branch_site) ->
          match Report.branch_verdict bs with
          | Report.Both_live -> []
          | Report.Then_only -> [ (m, bs.Graph.bs_else_block) ]
          | Report.Else_only -> [ (m, bs.Graph.bs_then_block) ]
          | Report.Neither ->
              [ (m, bs.Graph.bs_then_block); (m, bs.Graph.bs_else_block) ])
        g.Graph.g_branches)
    (Engine.graphs ctx.engine)

(** Methods the dead-method check reports (by id), for the same oracle. *)
let dead_methods ctx : Ids.Meth.t list =
  let out = ref [] in
  Program.iter_meths ctx.prog (fun (m : Program.meth) ->
      if
        m.Program.m_body <> None
        && Ids.Meth.Set.mem m.Program.m_id ctx.cha.Skipflow_baselines.Cha.reachable
        && (not (Ids.Meth.Set.mem m.Program.m_id ctx.roots))
        && not (Engine.is_reachable ctx.engine m.Program.m_id)
      then out := m.Program.m_id :: !out);
  !out
