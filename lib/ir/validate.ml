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
    hand-broken ones.  Every lowered method is validated, so the walks
    match on instructions and terminators directly: a body costs a few
    arrays, never a list or closure per instruction. *)

open Ids

exception Invalid of string

let failf fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let rec mem_block b = function
  | [] -> false
  | p :: ps -> Block.equal b p || mem_block b ps

(* ------------------------ block structure ------------------------ *)

let check_if_target body bid t =
  let tb = Bl.block body t in
  if tb.Bl.b_kind <> Bl.Label then
    failf "b%d: if target b%d is not a label block" bid (Block.to_int t);
  match tb.b_preds with
  | [ _ ] -> ()
  | _ -> failf "label block b%d must have exactly one predecessor" (Block.to_int t)

let check_block body (blk : Bl.block) =
  let bid = Block.to_int blk.b_id in
  (match blk.b_term with
  | None -> failf "block b%d has no terminator" bid
  | Some (Jump t) ->
      if (Bl.block body t).b_kind <> Bl.Merge then
        failf "b%d: jump target b%d is not a merge block" bid (Block.to_int t)
  | Some (If { then_; else_; _ }) ->
      check_if_target body bid then_;
      check_if_target body bid else_
  | Some (Return _ | Throw _) -> ());
  if blk.b_kind <> Bl.Merge && blk.b_phis <> [] then
    failf "non-merge block b%d contains phis" bid;
  if blk.b_kind = Bl.Entry && blk.b_preds <> [] then
    failf "entry block b%d has predecessors" bid

let check_edge body edge_count (blk : Bl.block) s =
  if not (mem_block blk.b_id (Bl.block body s).b_preds) then
    failf "edge b%d -> b%d missing from predecessor list" (Block.to_int blk.b_id)
      (Block.to_int s);
  edge_count.(Block.to_int s) <- edge_count.(Block.to_int s) + 1

let rec check_args (blk : Bl.block) (phi : Bl.phi) = function
  | [] -> ()
  | (p, _) :: args ->
      if not (mem_block p blk.b_preds) then
        failf "phi %a has an argument for non-predecessor b%d" Var.pp phi.phi_var
          (Block.to_int p);
      check_args blk phi args

let rec check_phis (blk : Bl.block) = function
  | [] -> ()
  | (phi : Bl.phi) :: phis ->
      if List.length phi.phi_args <> List.length blk.b_preds then
        failf "phi %a in b%d has %d args for %d predecessors" Var.pp phi.phi_var
          (Block.to_int blk.b_id) (List.length phi.phi_args)
          (List.length blk.b_preds);
      check_args blk phi phi.phi_args;
      check_phis blk phis

(* --------------------------- definitions -------------------------- *)

(* Where each variable is defined: its block index (-1 while undefined)
   and the defining instruction's index in that block (-1 for params and
   phis). *)
type defs = { def_block : int array; def_index : int array }

let define d bi index v =
  let vi = Var.to_int v in
  if vi < 0 || vi >= Array.length d.def_block then
    failf "variable %a out of range" Var.pp v;
  if d.def_block.(vi) >= 0 then failf "variable %a defined twice" Var.pp v;
  d.def_block.(vi) <- bi;
  d.def_index.(vi) <- index

let rec define_phis d bi = function
  | [] -> ()
  | (phi : Bl.phi) :: phis ->
      define d bi (-1) phi.phi_var;
      define_phis d bi phis

let rec define_insns d bi index = function
  | [] -> ()
  | (insn : Bl.insn) :: insns ->
      (match insn with
      | Assign (v, _)
      | Load { dst = v; _ }
      | LoadStatic { dst = v; _ }
      | ArrLoad { dst = v; _ }
      | ArrLen { dst = v; _ }
      | Cast { dst = v; _ }
      | Invoke { dst = v; _ } ->
          define d bi index v
      | Store _ | StoreStatic _ | ArrStore _ -> ());
      define_insns d bi (index + 1) insns

(* ------------------------------ uses ------------------------------ *)

(* A use of [v] at position [before] of block [at]: a same-block
   definition must come before it ([max_int] for a phi argument, which is
   checked at the end of its predecessor). *)
let use d dom (at : Block.t) before v =
  let vi = Var.to_int v in
  if d.def_block.(vi) < 0 then
    failf "use of undefined variable %a in b%d" Var.pp v (Block.to_int at);
  if Dominance.reachable dom at then begin
    let db = Block.of_int d.def_block.(vi) in
    if not (Dominance.reachable dom db) then
      failf "use of %a defined in unreachable block" Var.pp v;
    if Block.equal db at then begin
      if d.def_index.(vi) >= before then
        failf "use of %a before its definition in b%d" Var.pp v (Block.to_int at)
    end
    else if not (Dominance.dominates dom ~dom:db ~sub:at) then
      failf "use of %a in b%d not dominated by its definition in b%d" Var.pp v
        (Block.to_int at) (Block.to_int db)
  end

let rec use_all d dom at before = function
  | [] -> ()
  | v :: vs ->
      use d dom at before v;
      use_all d dom at before vs

(* the uses of each instruction in operand order; returns the
   instruction count *)
let rec use_insns d dom at index = function
  | [] -> index
  | (insn : Bl.insn) :: insns ->
      (match insn with
      | Assign (_, (Const _ | Null | New _ | AnyInt)) | LoadStatic _ -> ()
      | Assign (_, NewArr (_, v))
      | Load { recv = v; _ }
      | StoreStatic { src = v; _ }
      | ArrLen { arr = v; _ }
      | Cast { src = v; _ } ->
          use d dom at index v
      | Assign (_, Arith (_, a, b))
      | Store { recv = a; src = b; _ }
      | ArrLoad { arr = a; idx = b; _ } ->
          use d dom at index a;
          use d dom at index b
      | ArrStore { arr; idx; src; _ } ->
          use d dom at index arr;
          use d dom at index idx;
          use d dom at index src
      | Invoke { recv; args; _ } ->
          (match recv with Some r -> use d dom at index r | None -> ());
          use_all d dom at index args);
      use_insns d dom at (index + 1) insns

let use_term d dom at index : Bl.terminator option -> unit = function
  | Some (If { cond = Cmp (_, a, b); _ }) ->
      use d dom at index a;
      use d dom at index b
  | Some (If { cond = InstanceOf (v, _); _ } | Return (Some v) | Throw v) ->
      use d dom at index v
  | Some (Jump _ | Return None) | None -> ()

(* Phi argument uses are checked at the end of the predecessor block; a
   self-referential loop phi is legal. *)
let rec use_args d dom = function
  | [] -> ()
  | (p, v) :: args ->
      if Dominance.reachable dom p then use d dom p max_int v;
      use_args d dom args

let rec use_phis d dom = function
  | [] -> ()
  | (phi : Bl.phi) :: phis ->
      use_args d dom phi.phi_args;
      use_phis d dom phis

let run (body : Bl.body) =
  let n = Array.length body.blocks in
  for i = 0 to n - 1 do
    if Block.to_int body.blocks.(i).b_id <> i then failf "block array misindexed at %d" i
  done;
  (* terminators and kind discipline *)
  for i = 0 to n - 1 do
    check_block body body.blocks.(i)
  done;
  if (Bl.block body body.entry).b_kind <> Bl.Entry then failf "entry block kind mismatch";
  (* predecessor lists match successor edges *)
  let edge_count = Array.make n 0 in
  for i = 0 to n - 1 do
    let blk = body.blocks.(i) in
    match blk.b_term with
    | Some (Jump t) -> check_edge body edge_count blk t
    | Some (If { then_; else_; _ }) ->
        check_edge body edge_count blk then_;
        check_edge body edge_count blk else_
    | Some (Return _ | Throw _) | None -> ()
  done;
  for i = 0 to n - 1 do
    if List.length body.blocks.(i).b_preds <> edge_count.(i) then
      failf "predecessor list of b%d does not match incoming edges" i
  done;
  (* phi argument alignment *)
  for i = 0 to n - 1 do
    check_phis body.blocks.(i) body.blocks.(i).b_phis
  done;
  (* single static assignment *)
  let d =
    {
      def_block = Array.make body.var_count (-1);
      def_index = Array.make body.var_count (-1);
    }
  in
  List.iter (define d (Block.to_int body.entry) (-1)) body.params;
  for i = 0 to n - 1 do
    define_phis d i body.blocks.(i).b_phis;
    define_insns d i 0 body.blocks.(i).b_insns
  done;
  (* defs dominate uses (reachable blocks only) *)
  let dom = Dominance.compute body in
  for i = 0 to n - 1 do
    let blk = body.blocks.(i) in
    let index = use_insns d dom blk.b_id 0 blk.b_insns in
    use_term d dom blk.b_id index blk.b_term;
    use_phis d dom blk.b_phis
  done

(** [check body] is [run body] returning a [result] instead of raising. *)
let check body = match run body with () -> Ok () | exception Invalid m -> Error m
