(* Whole-pipeline property tests on randomly generated programs.

   These check the paper's meta-level claims:
   - soundness: the analysis over-approximates every concrete execution,
     both for reachability (executed methods ∈ ℝ) and for value states
     (every observed value is covered by its defining flow's fixed point);
   - the precision spectrum: reachable(SkipFlow) ⊆ reachable(PTA) ⊆
     reachable(RTA) ⊆ reachable(CHA) as *sets*;
   - ablation monotonicity: each SkipFlow ingredient only removes methods;
   - fixed-point determinism: the result does not depend on worklist order;
   - pipeline totality: generated programs always compile, validate, and
     analyze without exceptions. *)

open Skipflow_ir
module C = Skipflow_core
module W = Skipflow_workloads
module I = Skipflow_interp.Interp
module B = Skipflow_baselines

let cfg_of_seed seed =
  {
    W.Gen_random.seed;
    classes = 3 + (seed mod 7);
    meths_per_class = 1 + (seed mod 3);
    max_stmts = 4 + (seed mod 5);
  }

let compile_seed seed = W.Gen_random.compile (cfg_of_seed seed)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

let prop ?(count = 40) name f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb_seed f)

let meth_set_of_list l =
  List.fold_left
    (fun acc (m : Program.meth) -> Ids.Meth.Set.add m.Program.m_id acc)
    Ids.Meth.Set.empty l

let reachable_set r = meth_set_of_list (C.Engine.reachable_methods r.C.Analysis.engine)

(* ------------------------------ soundness ----------------------------- *)

let soundness_reachability seed =
  let prog, main = compile_seed seed in
  let trace, _halt = I.run ~fuel:30_000 prog main in
  let r = C.Analysis.run prog ~roots:[ main ] in
  Ids.Meth.Set.for_all
    (fun m -> C.Engine.is_reachable r.C.Analysis.engine m)
    trace.I.called

let value_covered (v : I.value) (state : C.Vstate.t) =
  match v with
  | I.VInt n -> C.Vstate.leq (C.Vstate.const n) state
  | I.VNull -> C.Vstate.leq C.Vstate.null state
  | I.VObj o -> C.Vstate.leq (C.Vstate.of_class o.I.o_cls) state
  | I.VArr a -> C.Vstate.leq (C.Vstate.of_class a.I.a_cls) state

let product_config = { C.Config.skipflow with C.Config.pval = C.Pval.Product }

let soundness_value_states_cfg config seed =
  let prog, main = compile_seed seed in
  let trace, _halt = I.run ~fuel:20_000 prog main in
  let r = C.Analysis.run ~config prog ~roots:[ main ] in
  List.for_all
    (fun (m, var, v) ->
      match C.Engine.graph_of r.C.Analysis.engine m with
      | None -> false (* executed method must be reachable *)
      | Some g ->
          let flow = g.C.Graph.g_defs.(Ids.Var.to_int var) in
          (* vars eliminated as trivial phis have no flow *)
          C.Flow.is_none flow
          || (flow.C.Flow.enabled && value_covered v flow.C.Flow.state))
    trace.I.defs

let soundness_value_states = soundness_value_states_cfg C.Config.skipflow
let soundness_value_states_product = soundness_value_states_cfg product_config

let soundness_instantiated seed =
  let prog, main = compile_seed seed in
  let trace, _halt = I.run ~fuel:20_000 prog main in
  let r = C.Analysis.run prog ~roots:[ main ] in
  let inst =
    List.fold_left
      (fun acc c -> Ids.Class.Set.add c acc)
      Ids.Class.Set.empty
      (C.Engine.instantiated_types r.C.Analysis.engine)
  in
  Ids.Class.Set.subset trace.I.created inst

(* -------------------------- precision spectrum ------------------------ *)

let spectrum seed =
  let prog, main = compile_seed seed in
  let sf = reachable_set (C.Analysis.run ~config:C.Config.skipflow prog ~roots:[ main ]) in
  let pta = reachable_set (C.Analysis.run ~config:C.Config.pta prog ~roots:[ main ]) in
  let rta = (B.Rta.run prog ~roots:[ main ]).B.Rta.reachable in
  let cha = (B.Cha.run prog ~roots:[ main ]).B.Cha.reachable in
  Ids.Meth.Set.subset sf pta
  && Ids.Meth.Set.subset pta rta
  && Ids.Meth.Set.subset rta cha

let ablation_monotone seed =
  let prog, main = compile_seed seed in
  let reach c = reachable_set (C.Analysis.run ~config:c prog ~roots:[ main ]) in
  let sf = reach C.Config.skipflow in
  let preds = reach C.Config.predicates_only in
  let prims = reach C.Config.primitives_only in
  let pta = reach C.Config.pta in
  Ids.Meth.Set.subset sf preds
  && Ids.Meth.Set.subset preds pta
  && Ids.Meth.Set.subset sf prims
  && Ids.Meth.Set.subset prims pta

(* the interval × constant product only ever narrows states relative to
   the flat constant domain, so its reachable set refines SkipFlow's *)
let product_refines_flat seed =
  let prog, main = compile_seed seed in
  let flat =
    reachable_set (C.Analysis.run ~config:C.Config.skipflow prog ~roots:[ main ])
  in
  let product =
    reachable_set (C.Analysis.run ~config:product_config prog ~roots:[ main ])
  in
  Ids.Meth.Set.subset product flat

let saturation_superset seed =
  let prog, main = compile_seed seed in
  let sf = reachable_set (C.Analysis.run ~config:C.Config.skipflow prog ~roots:[ main ]) in
  let sat =
    reachable_set
      (C.Analysis.run
         ~config:{ C.Config.skipflow with C.Config.saturation = Some 2 }
         prog ~roots:[ main ])
  in
  Ids.Meth.Set.subset sf sat

(* ------------------------------ determinism --------------------------- *)

let state_signature r =
  (* per-method, per-flow (kind, enabled, state) in construction order *)
  List.map
    (fun (g : C.Graph.method_graph) ->
      ( Program.qualified_name
          (C.Engine.prog_of r.C.Analysis.engine)
          g.C.Graph.g_meth.Program.m_id,
        List.map
          (fun (f : C.Flow.t) ->
            (C.Flow.kind_name f, f.C.Flow.enabled, Format.asprintf "%a" C.Vstate.pp f.C.Flow.state))
          (Array.to_list g.C.Graph.g_flows) ))
    (C.Engine.graphs r.C.Analysis.engine)
  |> List.sort compare

let order_independence_cfg config seed =
  let prog, main = compile_seed seed in
  let base = C.Analysis.run ~config prog ~roots:[ main ] in
  let sig0 = state_signature base in
  List.for_all
    (fun ord ->
      (* a fresh program instance per run: flows are not shared *)
      let prog2, main2 = compile_seed seed in
      ignore prog;
      let r = C.Analysis.run ~config ~random_order:ord prog2 ~roots:[ main2 ] in
      state_signature r = sig0)
    [ 3; 911 ]

let order_independence = order_independence_cfg C.Config.skipflow

(* widening by threshold snapping keeps the product domain's fixed point
   order-independent too — the paper's determinism claim must survive
   the interval extension *)
let order_independence_product = order_independence_cfg product_config

let interp_deterministic seed =
  let prog, main = compile_seed seed in
  let t1, h1 = I.run ~fuel:20_000 prog main in
  let t2, h2 = I.run ~fuel:20_000 prog main in
  h1 = h2 && t1.I.steps = t2.I.steps
  && Ids.Meth.Set.equal t1.I.called t2.I.called

(* --------------------------- benchmark workloads ----------------------- *)

let bench_params_of_seed seed =
  {
    W.Gen.seed;
    live_units = 4 + (seed mod 10);
    dead_units = 1 + (seed mod 4);
    unused_units = seed mod 3;
    unit_size = 3 + (seed mod 4);
    poly_families = 1 + (seed mod 2);
    poly_width = 2 + (seed mod 3);
    check_density = 0.4;
    cross_calls = 1 + (seed mod 2);
    (* no range guards here: these props pin the *flat* bench contracts
       (SkipFlow < PTA on every metric), and a range-guarded dead unit
       is live under flat by design *)
    range_guards = 0;
  }

let bench_skipflow_below_pta seed =
  let prog, main = W.Gen.compile (bench_params_of_seed seed) in
  let m c = (C.Analysis.run ~config:c prog ~roots:[ main ]).C.Analysis.metrics in
  let sf = m C.Config.skipflow and pta = m C.Config.pta in
  sf.C.Metrics.reachable_methods < pta.C.Metrics.reachable_methods
  && sf.C.Metrics.binary_size <= pta.C.Metrics.binary_size
  && sf.C.Metrics.type_checks <= pta.C.Metrics.type_checks
  && sf.C.Metrics.null_checks <= pta.C.Metrics.null_checks
  && sf.C.Metrics.prim_checks <= pta.C.Metrics.prim_checks
  && sf.C.Metrics.poly_calls <= pta.C.Metrics.poly_calls

let bench_soundness seed =
  (* guard patterns must never hide genuinely live code: under the
     *virtual-thread* style variations the interpreter can reach, every
     executed method is reachable.  Generated benchmarks hang (loops are
     unbounded for Never_returns hosts), so run on a short fuel. *)
  let prog, main = W.Gen.compile (bench_params_of_seed seed) in
  let trace, _halt = I.run ~fuel:15_000 ~record_defs:false prog main in
  let r = C.Analysis.run prog ~roots:[ main ] in
  Ids.Meth.Set.for_all (fun m -> C.Engine.is_reachable r.C.Analysis.engine m) trace.I.called

(* ------------------------------ worklist ------------------------------ *)

(* The dedup worklist against a [Queue] model.  Batches of up to 1,500
   pushes or pops move the ring's head and grow it past its initial
   1,024 slots while the queue has wrapped. *)
type wl_op = Push of int | Pop of int | Pop_all

let arb_wl_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (5, map (fun n -> Push n) (int_bound 1500));
        (4, map (fun n -> Pop n) (int_bound 1500));
        (1, return Pop_all);
      ]
  in
  let print = function
    | Push n -> Printf.sprintf "push %d" n
    | Pop n -> Printf.sprintf "pop %d" n
    | Pop_all -> "pop_all"
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print ops))
    (list_size (int_range 1 20) op)

let worklist_matches_queue ops =
  let wl = C.Worklist.create () and model = Queue.create () in
  let same flows =
    Array.length flows = Queue.length model
    && List.for_all2 ( == ) (Array.to_list flows) (List.of_seq (Queue.to_seq model))
  in
  let step = function
    | Push n ->
        for _ = 1 to n do
          let f = C.Flow.make C.Flow.Pred_on in
          C.Worklist.push wl f;
          Queue.add f model
        done;
        true
    | Pop n ->
        let in_order = ref true in
        for _ = 1 to min n (Queue.length model) do
          if C.Worklist.pop_exn wl != Queue.pop model then in_order := false
        done;
        !in_order
    | Pop_all ->
        let popped = same (C.Worklist.pop_all wl) in
        Queue.clear model;
        popped
  in
  List.for_all
    (fun op ->
      step op
      && C.Worklist.length wl = Queue.length model
      && same (C.Worklist.pending wl))
    ops
  && same (C.Worklist.pop_all wl)
  && C.Worklist.is_empty wl

let suite =
  ( "properties",
    [
      prop ~count:150 "soundness: executed methods reachable" soundness_reachability;
      prop ~count:100 "soundness: value states cover observed values" soundness_value_states;
      prop ~count:60 "soundness: product value states cover observed values"
        soundness_value_states_product;
      prop ~count:60 "precision: product ⊆ flat reachable" product_refines_flat;
      prop ~count:80 "soundness: instantiated types over-approximated" soundness_instantiated;
      prop ~count:100 "precision: SkipFlow ⊆ PTA ⊆ RTA ⊆ CHA" spectrum;
      prop ~count:60 "ablations monotone" ablation_monotone;
      prop ~count:25 "saturation yields superset" saturation_superset;
      prop ~count:20 "fixed point independent of worklist order" order_independence;
      prop ~count:15 "product fixed point independent of worklist order"
        order_independence_product;
      prop ~count:20 "interpreter deterministic" interp_deterministic;
      prop ~count:25 "benchmarks: SkipFlow dominates PTA on every metric"
        bench_skipflow_below_pta;
      prop ~count:25 "benchmarks: guarded code sound" bench_soundness;
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~name:"worklist pops in Queue order" ~count:200
           arb_wl_ops worklist_matches_queue);
    ] )
