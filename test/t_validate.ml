(* Tests for the IR validator and dominance computation: accepted bodies
   stay accepted, hand-broken bodies are rejected with the exact message
   of the check that catches them (one case per message), and dominance
   agrees with its definition on every body of a generated program. *)

open Skipflow_ir
module B = Ssa_builder
module W = Skipflow_workloads

(* A valid diamond body to mutate:
   b0 (entry, x = v0): if (v0 == v0) b1 else b2
   b1 (label): v1 = 1; jump b3
   b2 (label): v2 = 2; jump b3
   b3 (merge): v3 = phi(b1: v1, b2: v2); return v3 *)
let mk_body () =
  let b = B.create ~params:[ ("x", Ty.Int) ] in
  let e = B.entry_block b in
  let x = B.read_var b e "x" ~ty:Ty.Int in
  let l1 = B.label_block b and l2 = B.label_block b in
  let m = B.merge_block b in
  B.terminate b e (Bl.If { cond = Bl.Cmp (`Eq, x, x); then_ = l1.Bl.b_id; else_ = l2.Bl.b_id });
  B.write_var b l1 "y" (B.const b l1 1);
  B.terminate b l1 (Bl.Jump m.Bl.b_id);
  B.write_var b l2 "y" (B.const b l2 2);
  B.terminate b l2 (Bl.Jump m.Bl.b_id);
  B.seal b m;
  let y = B.read_var b m "y" ~ty:Ty.Int in
  B.terminate b m (Bl.Return (Some y));
  B.finish b

let blk n = Ids.Block.of_int n
let var n = Ids.Var.of_int n

let rejects msg body =
  match Validate.check body with
  | Ok () -> Alcotest.failf "expected rejection %S" msg
  | Error got -> Alcotest.(check string) "rejection message" msg got

(* the variable the first instruction of [blk] defines *)
let first_def (blk : Bl.block) =
  match blk.Bl.b_insns with
  | Bl.Assign (v, _) :: _ -> v
  | _ -> Alcotest.fail "expected an assignment"

let test_valid_accepted () =
  match Validate.check (mk_body ()) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "valid body rejected: %s" m

let test_double_definition () =
  let body = mk_body () in
  (* duplicate the first instruction of block l1 (defines the same var twice) *)
  let blk = body.Bl.blocks.(1) in
  blk.Bl.b_insns <- blk.Bl.b_insns @ blk.Bl.b_insns;
  rejects "variable v1 defined twice" body

let test_missing_terminator () =
  let body = mk_body () in
  body.Bl.blocks.(1).Bl.b_term <- None;
  rejects "block b1 has no terminator" body

let test_phi_arity () =
  let body = mk_body () in
  let m = body.Bl.blocks.(3) in
  (match m.Bl.b_phis with
  | phi :: _ -> phi.Bl.phi_args <- [ List.hd phi.Bl.phi_args ]
  | [] -> Alcotest.fail "expected a phi");
  rejects "phi v3 in b3 has 1 args for 2 predecessors" body

let test_phi_on_label_block () =
  let body = mk_body () in
  let l1 = body.Bl.blocks.(1) in
  l1.Bl.b_phis <- [ { Bl.phi_var = Ids.Var.of_int 0; phi_args = [] } ];
  rejects "non-merge block b1 contains phis" body

let test_use_before_def_in_block () =
  (* use a variable defined only in l1 (block 1) from the entry *)
  let body = mk_body () in
  let e = body.Bl.blocks.(0) in
  let defined_in_l1 = first_def body.Bl.blocks.(1) in
  e.Bl.b_insns <-
    e.Bl.b_insns @ [ Bl.Store { recv = defined_in_l1; field = Ids.Field.of_int 0; src = defined_in_l1 } ];
  rejects "use of v1 in b0 not dominated by its definition in b1" body

let test_use_before_def_same_block () =
  (* an instruction of l1 uses the variable a later instruction of l1
     defines *)
  let body = mk_body () in
  let l1 = body.Bl.blocks.(1) in
  let v = first_def l1 in
  l1.Bl.b_insns <- Bl.Store { recv = v; field = Ids.Field.of_int 0; src = v } :: l1.Bl.b_insns;
  rejects "use of v1 before its definition in b1" body

let test_jump_to_label_rejected () =
  let body = mk_body () in
  (* retarget the merge's predecessors: make l2 jump to l1 (a label) *)
  let l2 = body.Bl.blocks.(2) in
  l2.Bl.b_term <- Some (Bl.Jump body.Bl.blocks.(1).Bl.b_id);
  rejects "b2: jump target b1 is not a merge block" body

let test_pred_list_consistency () =
  let body = mk_body () in
  let m = body.Bl.blocks.(3) in
  m.Bl.b_preds <- [ List.hd m.Bl.b_preds ];
  rejects "edge b2 -> b3 missing from predecessor list" body

(* the remaining messages, in the order the checks run *)

let test_misindexed () =
  let body = mk_body () in
  let l1 = body.Bl.blocks.(1) in
  body.Bl.blocks.(1) <- body.Bl.blocks.(2);
  body.Bl.blocks.(2) <- l1;
  rejects "block array misindexed at 1" body

let test_if_target_not_label () =
  let body = mk_body () in
  body.Bl.blocks.(0).Bl.b_term <-
    Some (Bl.If { cond = Bl.Cmp (`Eq, var 0, var 0); then_ = blk 3; else_ = blk 2 });
  rejects "b0: if target b3 is not a label block" body

let test_label_needs_one_pred () =
  let body = mk_body () in
  body.Bl.blocks.(1).Bl.b_preds <- [];
  rejects "label block b1 must have exactly one predecessor" body

let test_entry_has_preds () =
  let body = mk_body () in
  body.Bl.blocks.(0).Bl.b_preds <- [ blk 3 ];
  rejects "entry block b0 has predecessors" body

let test_entry_kind_mismatch () =
  rejects "entry block kind mismatch" { (mk_body ()) with Bl.entry = blk 1 }

let test_pred_count_mismatch () =
  let body = mk_body () in
  body.Bl.blocks.(3).Bl.b_preds <- [ blk 1; blk 2; blk 1 ];
  rejects "predecessor list of b3 does not match incoming edges" body

let test_phi_arg_non_pred () =
  let body = mk_body () in
  (match body.Bl.blocks.(3).Bl.b_phis with
  | phi :: _ -> phi.Bl.phi_args <- [ (blk 1, var 1); (blk 0, var 2) ]
  | [] -> Alcotest.fail "expected a phi");
  rejects "phi v3 has an argument for non-predecessor b0" body

let test_var_out_of_range () =
  let body = mk_body () in
  let l1 = body.Bl.blocks.(1) in
  l1.Bl.b_insns <- l1.Bl.b_insns @ [ Bl.Assign (var 99, Bl.Const 0) ];
  rejects "variable v99 out of range" body

let test_undefined_use () =
  (* v4 is in range but defined nowhere *)
  let body = mk_body () in
  let body = { body with Bl.var_count = 5; var_tys = Array.make 5 Ty.Int } in
  body.Bl.blocks.(3).Bl.b_term <- Some (Bl.Return (Some (var 4)));
  rejects "use of undefined variable v4 in b3" body

let test_def_in_unreachable_block () =
  (* the entry returns a constant defined in a block nothing jumps to *)
  let b = B.create ~params:[] in
  let e = B.entry_block b in
  let u = B.merge_block b in
  B.seal b u;
  let c = B.const b u 7 in
  B.terminate b u (Bl.Return (Some c));
  B.terminate b e (Bl.Return (Some c));
  rejects "use of v0 defined in unreachable block" (B.finish b)

(* ------------------------------ dominance ----------------------------- *)

let test_dominance_diamond () =
  let body = mk_body () in
  let dom = Dominance.compute body in
  let b n = body.Bl.blocks.(n).Bl.b_id in
  Alcotest.(check bool) "entry dominates all" true
    (List.for_all (fun i -> Dominance.dominates dom ~dom:(b 0) ~sub:(b i)) [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "branch does not dominate merge" false
    (Dominance.dominates dom ~dom:(b 1) ~sub:(b 3));
  Alcotest.(check bool) "merge idom is entry" true
    (match Dominance.idom dom (b 3) with
    | Some x -> Ids.Block.equal x (b 0)
    | None -> false);
  Alcotest.(check bool) "entry has no idom" true (Dominance.idom dom (b 0) = None);
  Alcotest.(check bool) "all reachable" true
    (List.for_all (fun i -> Dominance.reachable dom (b i)) [ 0; 1; 2; 3 ])

(* [dom] dominates [sub] by definition: they are equal, or [sub] cannot
   be reached from the entry without passing through [dom]. *)
let dominates_by_search (body : Bl.body) dom sub =
  dom = sub
  ||
  let n = Array.length body.Bl.blocks in
  let seen = Array.make n false in
  let rec reach i =
    i <> dom && (not seen.(i))
    && begin
         seen.(i) <- true;
         i = sub
         ||
         match body.Bl.blocks.(i).Bl.b_term with
         | Some (Bl.Jump t) -> reach (Ids.Block.to_int t)
         | Some (Bl.If { then_; else_; _ }) ->
             reach (Ids.Block.to_int then_) || reach (Ids.Block.to_int else_)
         | Some (Bl.Return _ | Bl.Throw _) | None -> false
       end
  in
  not (reach (Ids.Block.to_int body.Bl.entry))

let test_dominance_matches_definition () =
  let prog, _ =
    W.Gen.compile (W.Suites.params_of ~scale:0.005 (Option.get (W.Suites.find "luindex")))
  in
  let pairs = ref 0 in
  Program.iter_meths prog (fun m ->
      match m.Program.m_body with
      | None -> ()
      | Some body ->
          let dom = Dominance.compute body in
          let reachable =
            List.filter
              (fun i -> Dominance.reachable dom (blk i))
              (List.init (Array.length body.Bl.blocks) Fun.id)
          in
          List.iter
            (fun d ->
              List.iter
                (fun s ->
                  incr pairs;
                  if
                    Dominance.dominates dom ~dom:(blk d) ~sub:(blk s)
                    <> dominates_by_search body d s
                  then
                    Alcotest.failf "%s: dominates b%d b%d disagrees with the definition"
                      (Program.qualified_name prog m.Program.m_id) d s)
                reachable)
            reachable);
  Alcotest.(check bool) "pairs were checked" true (!pairs > 10_000)

let suite =
  ( "validate",
    [
      Alcotest.test_case "valid body accepted" `Quick test_valid_accepted;
      Alcotest.test_case "double definition rejected" `Quick test_double_definition;
      Alcotest.test_case "missing terminator rejected" `Quick test_missing_terminator;
      Alcotest.test_case "phi arity mismatch rejected" `Quick test_phi_arity;
      Alcotest.test_case "phi on label block rejected" `Quick test_phi_on_label_block;
      Alcotest.test_case "undominated use rejected" `Quick test_use_before_def_in_block;
      Alcotest.test_case "same-block use before definition rejected" `Quick
        test_use_before_def_same_block;
      Alcotest.test_case "jump to label rejected" `Quick test_jump_to_label_rejected;
      Alcotest.test_case "pred list consistency" `Quick test_pred_list_consistency;
      Alcotest.test_case "misindexed block array rejected" `Quick test_misindexed;
      Alcotest.test_case "if to a non-label rejected" `Quick test_if_target_not_label;
      Alcotest.test_case "label without one predecessor rejected" `Quick
        test_label_needs_one_pred;
      Alcotest.test_case "entry with predecessors rejected" `Quick test_entry_has_preds;
      Alcotest.test_case "entry kind mismatch rejected" `Quick test_entry_kind_mismatch;
      Alcotest.test_case "predecessor count mismatch rejected" `Quick
        test_pred_count_mismatch;
      Alcotest.test_case "phi argument for a non-predecessor rejected" `Quick
        test_phi_arg_non_pred;
      Alcotest.test_case "variable out of range rejected" `Quick test_var_out_of_range;
      Alcotest.test_case "undefined use rejected" `Quick test_undefined_use;
      Alcotest.test_case "definition in an unreachable block rejected" `Quick
        test_def_in_unreachable_block;
      Alcotest.test_case "dominance on diamond" `Quick test_dominance_diamond;
      Alcotest.test_case "dominance matches its definition" `Quick
        test_dominance_matches_definition;
    ] )
