(** Structural validation of base-language method bodies.

    Checks the invariants assumed by the PVPG construction algorithm
    (Appendix B.1):

    - block-kind discipline: [jump] targets are merge blocks; [if] targets
      are label blocks with exactly one predecessor (hence no critical
      edges); the entry block has no predecessors;
    - phis only at merge blocks, with exactly one argument per predecessor,
      keyed by that predecessor;
    - SSA: every variable has a single defining occurrence, and every
      (reachable) use is dominated by its definition — phi uses are checked
      at the end of the corresponding predecessor block;
    - terminators present in every block; predecessor lists consistent with
      successor terminators.

    Validation failures raise {!Invalid} with a human-readable message; the
    test-suite asserts both acceptance of generated bodies and rejection of
    hand-broken ones. *)

open Ids

exception Invalid of string

let failf fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let run (body : Bl.body) =
  let n = Array.length body.blocks in
  Array.iteri
    (fun i blk ->
      if Block.to_int blk.Bl.b_id <> i then failf "block array misindexed at %d" i)
    body.blocks;
  (* terminators and kind discipline *)
  Array.iter
    (fun blk ->
      let bid = Block.to_int blk.Bl.b_id in
      (match blk.Bl.b_term with
      | None -> failf "block b%d has no terminator" bid
      | Some (Bl.Jump t) ->
          if (Bl.block body t).b_kind <> Bl.Merge then
            failf "b%d: jump target b%d is not a merge block" bid (Block.to_int t)
      | Some (Bl.If { then_; else_; _ }) ->
          List.iter
            (fun t ->
              let tb = Bl.block body t in
              if tb.b_kind <> Bl.Label then
                failf "b%d: if target b%d is not a label block" bid (Block.to_int t);
              if List.length tb.b_preds <> 1 then
                failf "label block b%d must have exactly one predecessor"
                  (Block.to_int t))
            [ then_; else_ ]
      | Some (Bl.Return _) | Some (Bl.Throw _) -> ());
      if blk.Bl.b_kind <> Bl.Merge && blk.Bl.b_phis <> [] then
        failf "non-merge block b%d contains phis" bid;
      if blk.Bl.b_kind = Bl.Entry && blk.Bl.b_preds <> [] then
        failf "entry block b%d has predecessors" bid)
    body.blocks;
  if (Bl.block body body.entry).b_kind <> Bl.Entry then failf "entry block kind mismatch";
  (* predecessor lists match successor edges *)
  let edge_count = Array.make n 0 in
  Array.iter
    (fun blk ->
      List.iter
        (fun s ->
          let sb = Bl.block body s in
          if not (List.exists (Block.equal blk.Bl.b_id) sb.Bl.b_preds) then
            failf "edge b%d -> b%d missing from predecessor list"
              (Block.to_int blk.Bl.b_id) (Block.to_int s);
          edge_count.(Block.to_int s) <- edge_count.(Block.to_int s) + 1)
        (Bl.successors blk))
    body.blocks;
  Array.iter
    (fun blk ->
      if List.length blk.Bl.b_preds <> edge_count.(Block.to_int blk.Bl.b_id) then
        failf "predecessor list of b%d does not match incoming edges"
          (Block.to_int blk.Bl.b_id))
    body.blocks;
  (* phi argument alignment *)
  Array.iter
    (fun blk ->
      List.iter
        (fun (phi : Bl.phi) ->
          if List.length phi.phi_args <> List.length blk.Bl.b_preds then
            failf "phi %a in b%d has %d args for %d predecessors" Var.pp
              phi.phi_var
              (Block.to_int blk.Bl.b_id)
              (List.length phi.phi_args)
              (List.length blk.Bl.b_preds);
          List.iter
            (fun (p, _) ->
              if not (List.exists (Block.equal p) blk.Bl.b_preds) then
                failf "phi %a has an argument for non-predecessor b%d" Var.pp
                  phi.phi_var (Block.to_int p))
            phi.phi_args)
        blk.Bl.b_phis)
    body.blocks;
  (* single static assignment; [def_index] is the defining instruction's
     index in its block, -1 for params and phis *)
  let def_block = Array.make body.var_count (-1) in
  let def_index = Array.make body.var_count (-1) in
  let define ?(index = -1) v (blk : Bl.block) =
    let vi = Var.to_int v in
    if vi < 0 || vi >= body.var_count then failf "variable %a out of range" Var.pp v;
    if def_block.(vi) >= 0 then failf "variable %a defined twice" Var.pp v;
    def_block.(vi) <- Block.to_int blk.b_id;
    def_index.(vi) <- index
  in
  List.iter (fun p -> define p (Bl.block body body.entry)) body.params;
  Array.iter
    (fun blk ->
      List.iter (fun (phi : Bl.phi) -> define phi.phi_var blk) blk.Bl.b_phis;
      List.iteri
        (fun index i -> List.iter (fun v -> define ~index v blk) (Bl.insn_defs i))
        blk.Bl.b_insns)
    body.blocks;
  (* defs dominate uses (reachable blocks only) *)
  let dom = Dominance.compute body in
  let check_use ~(at : Bl.block) ?(before : int option) v =
    let vi = Var.to_int v in
    if def_block.(vi) < 0 then
      failf "use of undefined variable %a in b%d" Var.pp v (Block.to_int at.Bl.b_id);
    if Dominance.reachable dom at.Bl.b_id then begin
      let db = Block.of_int def_block.(vi) in
      if not (Dominance.reachable dom db) then
        failf "use of %a defined in unreachable block" Var.pp v;
      if Block.equal db at.Bl.b_id then begin
        (* same-block use: definition must appear before [before] *)
        match before with
        | Some idx when def_index.(vi) >= idx ->
            failf "use of %a before its definition in b%d" Var.pp v
              (Block.to_int at.Bl.b_id)
        | _ -> ()
      end
      else if not (Dominance.dominates dom ~dom:db ~sub:at.Bl.b_id) then
        failf "use of %a in b%d not dominated by its definition in b%d" Var.pp v
          (Block.to_int at.Bl.b_id) (Block.to_int db)
    end
  in
  Array.iter
    (fun blk ->
      List.iteri
        (fun idx ins ->
          List.iter (fun v -> check_use ~at:blk ~before:idx v) (Bl.insn_uses ins))
        blk.Bl.b_insns;
      (match blk.Bl.b_term with
      | Some t ->
          let idx = List.length blk.Bl.b_insns in
          List.iter (fun v -> check_use ~at:blk ~before:idx v) (Bl.term_uses t)
      | None -> ());
      (* Phi argument uses are checked at the end of the predecessor block;
         a self-referential loop phi is legal. *)
      List.iter
        (fun (phi : Bl.phi) ->
          List.iter
            (fun (p, v) ->
              if Dominance.reachable dom p then check_use ~at:(Bl.block body p) v)
            phi.phi_args)
        blk.Bl.b_phis)
    body.blocks

(** [check body] is [run body] returning a [result] instead of raising. *)
let check body = match run body with () -> Ok () | exception Invalid m -> Error m
