(* Lowering tests: the produced SSA must validate, satisfy the structural
   constraints of Appendix B.1, and encode the paper's condition
   normalizations.  On a generated program the frontend's phases stay
   within fixed allocation bounds, and the IR they produce is pinned by
   the digest of its method fingerprints. *)

open Skipflow_ir
module F = Skipflow_frontend
module W = Skipflow_workloads

let body_of src ~cls ~meth =
  let prog = F.Frontend.compile src in
  let c = Option.get (Program.find_class prog cls) in
  let m = Option.get (Program.find_meth prog c meth) in
  (prog, Option.get m.Program.m_body)

let wrap body = Printf.sprintf "class C { var int f; var C link; %s }" body

let all_insns body =
  Array.to_list body.Bl.blocks |> List.concat_map (fun b -> b.Bl.b_insns)

let all_conds body =
  Array.to_list body.Bl.blocks
  |> List.filter_map (fun b ->
         match b.Bl.b_term with Some (Bl.If { cond; _ }) -> Some cond | _ -> None)

let test_validates src cls meth =
  let _, body = body_of src ~cls ~meth in
  Validate.run body

let test_simple_bodies () =
  test_validates (wrap "int m(int a) { return a * 2 + this.f; }") "C" "m";
  test_validates (wrap "void m(C o) { o.link = this; this.f = o.f; }") "C" "m";
  test_validates
    (wrap "int m(int a) { int s = 0; while (a > 0) { s = s + a; a = a - 1; } return s; }")
    "C" "m"

let test_condition_normalization () =
  (* every surface comparison must lower to == or < only *)
  List.iter
    (fun op ->
      let src = wrap (Printf.sprintf "int m(int a, int b) { if (a %s b) { return 1; } return 0; }" op) in
      let _, body = body_of src ~cls:"C" ~meth:"m" in
      List.iter
        (fun c ->
          match c with
          | Bl.Cmp ((`Eq | `Lt), _, _) -> ()
          | Bl.InstanceOf _ -> Alcotest.fail "unexpected instanceof")
        (all_conds body))
    [ "=="; "!="; "<"; "<="; ">"; ">=" ]

let test_gt_swaps_operands () =
  (* a > b must become b < a (same operand set, swapped) *)
  let _, body =
    body_of (wrap "int m(int a, int b) { if (a > b) { return 1; } return 0; }") ~cls:"C"
      ~meth:"m"
  in
  match all_conds body with
  | [ Bl.Cmp (`Lt, l, r) ] ->
      (* params are v0=this, v1=a, v2=b: the lowered condition is b < a *)
      Alcotest.(check int) "lhs is b" 2 (Ids.Var.to_int l);
      Alcotest.(check int) "rhs is a" 1 (Ids.Var.to_int r)
  | _ -> Alcotest.fail "expected exactly one Lt condition"

let test_boolean_value_materialized () =
  (* 'return a < b' must materialize constants 1/0 through a phi
     (the isVirtual shape of Figure 7) *)
  let _, body =
    body_of (wrap "boolean m(int a, int b) { return a < b; }") ~cls:"C" ~meth:"m"
  in
  let consts =
    List.filter_map
      (function Bl.Assign (_, Bl.Const n) -> Some n | _ -> None)
      (all_insns body)
  in
  Alcotest.(check bool) "has const 1" true (List.mem 1 consts);
  Alcotest.(check bool) "has const 0" true (List.mem 0 consts);
  let phis = Array.fold_left (fun a b -> a + List.length b.Bl.b_phis) 0 body.Bl.blocks in
  Alcotest.(check bool) "has a phi" true (phis >= 1)

let test_bool_condition_becomes_cmp_zero () =
  (* if (flag) lowers to a comparison against the constant 0 *)
  let _, body =
    body_of (wrap "int m(boolean flag) { if (flag) { return 1; } return 0; }") ~cls:"C"
      ~meth:"m"
  in
  match all_conds body with
  | [ Bl.Cmp (`Eq, _, z) ] ->
      let def =
        List.find_map
          (function Bl.Assign (v, Bl.Const n) when Ids.Var.equal v z -> Some n | _ -> None)
          (all_insns body)
      in
      Alcotest.(check (option int)) "compared against 0" (Some 0) def
  | _ -> Alcotest.fail "expected a single == condition"

let test_shortcircuit_structure () =
  (* 'a && b' must not evaluate b when a is false: b's evaluation block is
     distinct from the condition entry *)
  let _, body =
    body_of
      (wrap
         "int m(C o, int a) { if (o != null && o.f > a) { return 1; } return 0; }")
      ~cls:"C" ~meth:"m"
  in
  Validate.run body;
  (* two conditions: the null test and the comparison *)
  Alcotest.(check int) "two conditions" 2 (List.length (all_conds body));
  (* the field load of o.f must be in a block dominated by the null check *)
  let load_block =
    Array.to_list body.Bl.blocks
    |> List.find (fun b ->
           List.exists (function Bl.Load _ -> true | _ -> false) b.Bl.b_insns)
  in
  Alcotest.(check bool) "load not in entry" false
    (Ids.Block.equal load_block.Bl.b_id body.Bl.entry)

let test_single_return () =
  (* multiple surface returns funnel through one return terminator *)
  let _, body =
    body_of (wrap "int m(int a) { if (a > 0) { return 1; } return 2; }") ~cls:"C" ~meth:"m"
  in
  let returns =
    Array.to_list body.Bl.blocks
    |> List.filter (fun b -> match b.Bl.b_term with Some (Bl.Return _) -> true | _ -> false)
  in
  Alcotest.(check int) "one return block" 1 (List.length returns)

let test_never_returning_method () =
  let _, body = body_of (wrap "int m() { while (true) { } }") ~cls:"C" ~meth:"m" in
  Validate.run body

let test_dead_tail_dropped () =
  (* statements after return are silently dropped *)
  let _, body =
    body_of (wrap "int m() { return 1; }") ~cls:"C" ~meth:"m"
  in
  Validate.run body

let test_arith_kept_concrete () =
  let _, body = body_of (wrap "int m(int a) { return a / 2 % 3; }") ~cls:"C" ~meth:"m" in
  let ops =
    List.filter_map
      (function Bl.Assign (_, Bl.Arith (op, _, _)) -> Some op | _ -> None)
      (all_insns body)
  in
  Alcotest.(check bool) "div present" true (List.mem Bl.Div ops);
  Alcotest.(check bool) "rem present" true (List.mem Bl.Rem ops)

let test_generated_programs_validate () =
  (* every method body of generated benchmark programs passes validation
     (lower_program already validates; this re-checks explicitly) *)
  List.iter
    (fun seed ->
      let prog, _ = W.Gen.compile { W.Gen.default_params with W.Gen.seed; live_units = 8 } in
      Program.iter_meths prog (fun m ->
          match m.Program.m_body with
          | Some b -> Validate.run b
          | None -> Alcotest.fail "method without body"))
    [ 21; 22 ];
  List.iter
    (fun seed ->
      let prog, _ = W.Gen_random.compile { W.Gen_random.default_cfg with W.Gen_random.seed } in
      Program.iter_meths prog (fun m ->
          match m.Program.m_body with Some b -> Validate.run b | None -> ()))
    [ 31; 32; 33; 34; 35 ]

let test_no_critical_edges_shape () =
  (* if-successors are label blocks with one predecessor; jumps target
     merges — on a program with loops, branches and short-circuits *)
  let _, body =
    body_of
      (wrap
         "int m(int a, C o) { int s = 0; while (a > 0 && o != null) { if (a % 2 == 0) { s = s + 1; } else { s = s - 1; } a = a - 1; } return s; }")
      ~cls:"C" ~meth:"m"
  in
  Array.iter
    (fun blk ->
      match blk.Bl.b_term with
      | Some (Bl.If { then_; else_; _ }) ->
          List.iter
            (fun t ->
              let tb = Bl.block body t in
              Alcotest.(check bool) "if target is label" true (tb.Bl.b_kind = Bl.Label);
              Alcotest.(check int) "single pred" 1 (List.length tb.Bl.b_preds))
            [ then_; else_ ]
      | Some (Bl.Jump t) ->
          Alcotest.(check bool) "jump target is merge" true
            ((Bl.block body t).Bl.b_kind = Bl.Merge)
      | _ -> ())
    body.Bl.blocks

(* ----------------- allocation bounds and IR identity ------------------ *)

let gen_source bench =
  W.Gen.source (W.Suites.params_of ~scale:0.005 (Option.get (W.Suites.find bench)))

(* Minor-heap words per IR unit (an instruction, a phi or a terminator:
   one unit of [Bl.size]) that typechecking, lowering (validation
   included) and validating every body allocate on luindex at 0.005. *)
let words_per_unit =
  lazy
    (let ast, diags = F.Parser.parse_program_diags (gen_source "luindex") in
     if diags <> [] then Alcotest.fail "generated program does not parse";
     let w0 = Gc.minor_words () in
     let tp = Result.get_ok (F.Typecheck.check_diags ast) in
     let w1 = Gc.minor_words () in
     let prog = F.Lower.lower_program tp in
     let w2 = Gc.minor_words () in
     let bodies = ref [] in
     Program.iter_meths prog (fun m -> Option.iter (fun b -> bodies := b :: !bodies) m.Program.m_body);
     let units = float (List.fold_left (fun n b -> n + Bl.size b) 0 !bodies) in
     let w3 = Gc.minor_words () in
     List.iter Validate.run !bodies;
     let w4 = Gc.minor_words () in
     ((w1 -. w0) /. units, (w2 -. w1) /. units, (w4 -. w3) /. units))

let check_words phase bound words =
  if words > bound then
    Alcotest.failf "%s allocates %.1f words per IR unit (bound %.0f)" phase words bound

let test_lowering_words () =
  let _, lower, _ = Lazy.force words_per_unit in
  check_words "lowering" 80. lower

let test_validate_words () =
  let _, _, validate = Lazy.force words_per_unit in
  check_words "Validate" 12. validate

let test_typecheck_words () =
  let typecheck, _, _ = Lazy.force words_per_unit in
  check_words "typecheck" 24. typecheck

(* Every variable id, block id, phi, predecessor order and span of the
   lowered IR, as the serve daemon's method fingerprints see them. *)
let test_ir_identity () =
  List.iter
    (fun (bench, digest) ->
      let prog = F.Frontend.compile (gen_source bench) in
      let fingerprints = Skipflow_serve.Incremental.meth_fingerprints prog in
      Alcotest.(check string) (bench ^ " IR digest") digest
        (Digest.to_hex
           (Digest.string
              (String.concat "\n" (List.map (fun (n, h) -> n ^ " " ^ h) fingerprints)))))
    [ ("luindex", "39f1a2b77eadad0e143afda09e3cbc48");
      ("sunflow", "f8f88e414f64a66ac4e635b59db56f7d") ]

let suite =
  ( "lower",
    [
      Alcotest.test_case "simple bodies validate" `Quick test_simple_bodies;
      Alcotest.test_case "condition normalization" `Quick test_condition_normalization;
      Alcotest.test_case "> swaps operands" `Quick test_gt_swaps_operands;
      Alcotest.test_case "boolean value materialized" `Quick test_boolean_value_materialized;
      Alcotest.test_case "bool condition == 0" `Quick test_bool_condition_becomes_cmp_zero;
      Alcotest.test_case "short-circuit structure" `Quick test_shortcircuit_structure;
      Alcotest.test_case "single return" `Quick test_single_return;
      Alcotest.test_case "never-returning method" `Quick test_never_returning_method;
      Alcotest.test_case "dead tail dropped" `Quick test_dead_tail_dropped;
      Alcotest.test_case "arithmetic kept concrete" `Quick test_arith_kept_concrete;
      Alcotest.test_case "generated programs validate" `Quick test_generated_programs_validate;
      Alcotest.test_case "no critical edges" `Quick test_no_critical_edges_shape;
      Alcotest.test_case "lowering allocates at most 80 words per IR unit" `Quick
        test_lowering_words;
      Alcotest.test_case "Validate allocates at most 12 words per IR unit" `Quick
        test_validate_words;
      Alcotest.test_case "typecheck allocates at most 24 words per IR unit" `Quick
        test_typecheck_words;
      Alcotest.test_case "IR of generated programs is pinned" `Quick test_ir_identity;
    ] )
