(** On-the-fly SSA construction for base-language method bodies.

    The paper assumes its input "is a Java-like managed base language in
    static single assignment form" (Section 4); in GraalVM that form is
    provided by the compiler.  This module is the substrate that provides it
    here: a sealed-block SSA builder in the style of Braun et al. (CC'13).
    Frontend lowering and the workload generators construct method bodies
    through this API and obtain valid SSA with the block-shape constraints
    of Appendix B.1 (phis only in merge blocks, no critical edges).

    Protocol:
    - create the builder with the method's parameters;
    - create blocks with {!label_block} / {!merge_block}, emit instructions
      into them, and connect them with {!terminate};
    - read and write named source-level locals with {!read_var} /
      {!write_var}; phi instructions are introduced automatically at merge
      blocks when a local has several reaching definitions;
    - {!seal} every merge block once all of its predecessors are known
      (loop headers are sealed after the back edge is added);
    - {!finish} validates bookkeeping and returns the {!Bl.body}.

    Trivial phis (all operands equal, or equal up to a self-reference) are
    left in place: they are semantically identity joins, which the analysis
    treats as precision-neutral [phi] flows, and removing them would require
    use-list rewriting that the paper's algorithm does not depend on. *)

open Ids

(** A block's current definitions of named locals: a short list searched
    with [String.equal] (a block defines or caches few names), updated in
    place when a name is written again. *)
type defs = Nil | Def of { name : string; mutable var : Var.t; next : defs }

type block_state = {
  blk : Bl.block;
  mutable defs : defs;
  mutable sealed : bool;
  mutable incomplete : (string * Ty.t * Bl.phi) list;
}

type t = {
  block_gen : Block.Gen.t;
  var_gen : Var.Gen.t;
  mutable states : block_state array;
      (** indexed by block id; the first [Block.Gen.count block_gen] are
          live, the rest are filler *)
  entry : block_state;
  mutable params : Var.t list;
  mutable tys : Ty.t array;
      (** lowered type per variable id; the first [Var.Gen.count var_gen]
          are live *)
  mutable line : int;
  mutable col : int;
      (** source position of the construct being lowered; [line] is 0
          until the frontend sets one (generated bodies never do) *)
  mutable span : Span.t option;
      (** the span made at the last emission, shared with the next one at
          the same position *)
}

(* [grow a n filler] is [a] if it has room for index [n], else a copy of
   twice the length. *)
let grow a n filler =
  if n < Array.length a then a
  else begin
    let a' = Array.make (2 * Array.length a) filler in
    Array.blit a 0 a' 0 n;
    a'
  end

let fresh_var b ty =
  let v = Var.Gen.fresh b.var_gen in
  let i = Var.to_int v in
  b.tys <- grow b.tys i Ty.Int;
  b.tys.(i) <- Ty.lower ty;
  v

let new_block id kind : Bl.block =
  {
    b_id = id;
    b_kind = kind;
    b_phis = [];
    b_insns = [];
    b_term = None;
    b_preds = [];
    b_spans = [];
    b_term_span = None;
    b_term_swapped = false;
    b_term_synthetic = false;
  }

let mk_block b kind =
  let id = Block.Gen.fresh b.block_gen in
  let st = { blk = new_block id kind; defs = Nil; sealed = false; incomplete = [] } in
  let i = Block.to_int id in
  b.states <- grow b.states i b.entry;
  b.states.(i) <- st;
  st

let rec update name v = function
  | Nil -> false
  | Def d ->
      if String.equal d.name name then begin
        d.var <- v;
        true
      end
      else update name v d.next

let set_def st name v =
  if not (update name v st.defs) then st.defs <- Def { name; var = v; next = st.defs }

(** [create ~params] starts a new method body whose entry block defines one
    parameter variable per [(name, ty)] pair (the receiver, if any, must be
    included by the caller as the first parameter). *)
let create ~params =
  let block_gen = Block.Gen.create () in
  let entry =
    {
      blk = new_block (Block.Gen.fresh block_gen) Bl.Entry;
      defs = Nil;
      sealed = true;
      incomplete = [];
    }
  in
  let b =
    {
      block_gen;
      var_gen = Var.Gen.create ();
      states = Array.make 16 entry;
      entry;
      params = [];
      tys = Array.make 32 Ty.Int;
      line = 0;
      col = 0;
      span = None;
    }
  in
  b.params <-
    List.map
      (fun (name, ty) ->
        let v = fresh_var b ty in
        set_def entry name v;
        v)
      params;
  b

let entry_block b = b.entry.blk
let label_block b = (mk_block b Bl.Label).blk
let merge_block b = (mk_block b Bl.Merge).blk
let state b id = b.states.(Block.to_int id)

(** [set_pos b ~line ~col] makes [line:col] the span of every instruction
    and terminator emitted until the next call; the frontend sets it from
    the source position of the construct being lowered.  The span itself
    is made at emission, once per run of emissions at one position. *)
let set_pos b ~line ~col =
  b.line <- line;
  b.col <- col

let emission_span b =
  match b.span with
  | Some s as sp when s.Span.line = b.line && s.col = b.col -> sp
  | _ when b.line = 0 -> None
  | _ ->
      let sp = Some (Span.make ~line:b.line ~col:b.col) in
      b.span <- sp;
      sp

let add_insn b (blk : Bl.block) insn =
  assert (blk.b_term = None);
  blk.b_insns <- insn :: blk.b_insns;
  blk.b_spans <- emission_span b :: blk.b_spans

(* -------------------- variable reads/writes (Braun) ------------------- *)

let write_var b (blk : Bl.block) name v = set_def (state b blk.b_id) name v

(* A block's phis are kept newest first until {!finish}. *)
let new_phi b (st : block_state) ty =
  let v = fresh_var b ty in
  let phi : Bl.phi = { phi_var = v; phi_args = [] } in
  st.blk.b_phis <- phi :: st.blk.b_phis;
  phi

let rec all_args_are v = function
  | [] -> true
  | (_, w) :: rest -> Var.equal v w && all_args_are v rest

let rec read_var b (blk : Bl.block) name ~ty =
  let st = state b blk.b_id in
  read_def b st name ~ty st.defs

and read_def b st name ~ty = function
  | Def d -> if String.equal d.name name then d.var else read_def b st name ~ty d.next
  | Nil -> read_var_recursive b st name ~ty

and read_var_recursive b st name ~ty =
  if not st.sealed then begin
    (* Incomplete CFG (typically a loop header before its back edge):
       introduce an operandless phi, completed at seal time. *)
    assert (st.blk.b_kind = Bl.Merge);
    let phi = new_phi b st ty in
    st.incomplete <- (name, ty, phi) :: st.incomplete;
    set_def st name phi.phi_var;
    phi.phi_var
  end
  else
    match st.blk.b_preds with
    | [] ->
        invalid_arg
          (Printf.sprintf "Ssa_builder.read_var: %s undefined at entry" name)
    | [ p ] ->
        let v = read_var b (state b p).blk name ~ty in
        set_def st name v;
        v
    | preds ->
        assert (st.blk.b_kind = Bl.Merge);
        let phi = new_phi b st ty in
        (* Break cycles: record the phi as the definition before reading
           the predecessors. *)
        set_def st name phi.phi_var;
        add_phi_operands b phi name ~ty preds;
        (* Trivial-phi elimination, conservative variant: the phi was just
           created and handed out to nobody, so if all operands are one
           identical non-self variable we can drop it on the spot.  (Loop
           phis have a self-operand and are kept; Braun's full use-rewriting
           removal is not needed for correctness — a residual phi is an
           identity join.) *)
        (match phi.phi_args with
        | (_, first) :: rest
          when (not (Var.equal first phi.phi_var)) && all_args_are first rest ->
            (* reading [name] through the predecessors finds this phi
               when it comes back here, so it is still the newest *)
            (match st.blk.b_phis with
            | p :: older when p == phi -> st.blk.b_phis <- older
            | _ -> assert false);
            set_def st name first;
            first
        | _ -> phi.phi_var)

and add_phi_operands b (phi : Bl.phi) name ~ty preds =
  phi.phi_args <-
    List.map (fun p -> (p, read_var b (state b p).blk name ~ty)) preds

(** [seal b blk] declares that all predecessors of [blk] have been added;
    phis created while the block was open receive their operands now. *)
let seal b (blk : Bl.block) =
  let st = state b blk.b_id in
  if not st.sealed then begin
    st.sealed <- true;
    List.iter
      (fun (name, ty, phi) -> add_phi_operands b phi name ~ty st.blk.b_preds)
      (List.rev st.incomplete);
    st.incomplete <- []
  end

(* ------------------------------ terminators --------------------------- *)

let add_pred b (target : Block.t) (src : Block.t) =
  let tst = state b target in
  if tst.sealed && tst.blk.b_kind = Bl.Merge then
    invalid_arg "Ssa_builder: adding a predecessor to a sealed merge block";
  tst.blk.b_preds <- tst.blk.b_preds @ [ src ]

let add_if_target b t (src : Bl.block) =
  let tst = state b t in
  if tst.blk.b_kind <> Bl.Label then
    invalid_arg "Ssa_builder: if targets must be label blocks";
  add_pred b t src.b_id;
  (* A label block has exactly one predecessor; it is complete now. *)
  tst.sealed <- true

let terminate b (blk : Bl.block) (term : Bl.terminator) =
  if blk.b_term <> None then invalid_arg "Ssa_builder.terminate: already terminated";
  (match term with
  | Bl.Jump t ->
      if (state b t).blk.b_kind <> Bl.Merge then
        invalid_arg "Ssa_builder: jump target must be a merge block";
      add_pred b t blk.b_id
  | Bl.If { then_; else_; _ } ->
      add_if_target b then_ blk;
      add_if_target b else_ blk
  | Bl.Return _ | Bl.Throw _ -> ());
  blk.b_term <- Some term;
  blk.b_term_span <- emission_span b

(** [mark_branch b blk ~swapped ~synthetic] records how lowering produced
    [blk]'s [If] terminator: [swapped] when condition normalization
    exchanged the branch targets (so the IR then-successor is the source
    else-branch), [synthetic] when the condition was a literal boolean the
    frontend introduced (block wrappers, [while (true)] headers).  Clients
    that report dead branches need both to speak in source terms. *)
let mark_branch _b (blk : Bl.block) ~swapped ~synthetic =
  (match blk.b_term with
  | Some (Bl.If _) -> ()
  | _ -> invalid_arg "Ssa_builder.mark_branch: block has no If terminator");
  blk.b_term_swapped <- swapped;
  blk.b_term_synthetic <- synthetic

(* --------------------------- emit helpers ----------------------------- *)

let assign b blk ~ty e =
  let v = fresh_var b ty in
  add_insn b blk (Bl.Assign (v, e));
  v

let const b blk n = assign b blk ~ty:Ty.Int (Bl.Const n)
let null b blk = assign b blk ~ty:Ty.Null Bl.Null
let new_ b blk cls_id = assign b blk ~ty:(Ty.Obj cls_id) (Bl.New cls_id)

let arith b blk op x y = assign b blk ~ty:Ty.Int (Bl.Arith (op, x, y))
let new_arr b blk cls_id len = assign b blk ~ty:(Ty.Obj cls_id) (Bl.NewArr (cls_id, len))

let arr_load b blk ~ty ~arr ~idx ~elem =
  let v = fresh_var b ty in
  add_insn b blk (Bl.ArrLoad { dst = v; arr; idx; elem });
  v

let arr_store b blk ~arr ~idx ~src ~elem =
  add_insn b blk (Bl.ArrStore { arr; idx; src; elem })

let arr_len b blk ~arr =
  let v = fresh_var b Ty.Int in
  add_insn b blk (Bl.ArrLen { dst = v; arr });
  v

let cast b blk ~cls ~src =
  let v = fresh_var b (Ty.Obj cls) in
  add_insn b blk (Bl.Cast { dst = v; src; cls });
  v

let load_static b blk ~ty ~field =
  let v = fresh_var b ty in
  add_insn b blk (Bl.LoadStatic { dst = v; field });
  v

let store_static b blk ~field ~src = add_insn b blk (Bl.StoreStatic { field; src })

let load b blk ~ty ~recv ~field =
  let v = fresh_var b ty in
  add_insn b blk (Bl.Load { dst = v; recv; field });
  v

let store b blk ~recv ~field ~src = add_insn b blk (Bl.Store { recv; field; src })

let invoke b blk ~ty ~recv ~target ~args ~virtual_ =
  let v = fresh_var b ty in
  add_insn b blk (Bl.Invoke { dst = v; recv; target; args; virtual_ });
  v

(* ------------------------------ finish -------------------------------- *)

let finish b : Bl.body =
  let n = Block.Gen.count b.block_gen in
  let blocks = Array.make n b.entry.blk in
  for i = 0 to n - 1 do
    let st = b.states.(i) in
    if not st.sealed then
      invalid_arg
        (Printf.sprintf "Ssa_builder.finish: block %d is not sealed" i);
    if st.blk.b_term = None then
      invalid_arg
        (Printf.sprintf "Ssa_builder.finish: block %d has no terminator" i);
    st.blk.b_phis <- List.rev st.blk.b_phis;
    st.blk.b_insns <- List.rev st.blk.b_insns;
    st.blk.b_spans <- List.rev st.blk.b_spans;
    blocks.(i) <- st.blk
  done;
  {
    Bl.params = b.params;
    entry = b.entry.blk.b_id;
    blocks;
    var_count = Var.Gen.count b.var_gen;
    var_tys = Array.sub b.tys 0 (Var.Gen.count b.var_gen);
  }
