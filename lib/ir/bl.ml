(** The base language of the analysis (paper, Appendix B.1, Figure 10).

    A method body is a control-flow graph of basic blocks in SSA form.  The
    shape constraints of the paper are enforced by {!Validate}:

    - every block is an {e entry}, {e label}, or {e merge} block;
    - [jump] instructions only target merge blocks;
    - the two successors of an [if] are label blocks with that [if]'s block
      as their single predecessor (hence no critical edges);
    - phi instructions appear only at the head of merge blocks and have one
      argument per predecessor;
    - conditions are normalized to [v1 == v2], [v1 < v2], and
      [v instanceof T] — all other comparisons are expressed by swapping
      operands and/or branch targets (Appendix B.1).

    Unlike the paper's abstract [Any] instruction, we keep the concrete
    arithmetic operator in the IR so that the {e interpreter} substrate can
    execute programs; the analysis treats every [Arith] as an opaque source
    of the lattice value [Any], exactly as in the paper. *)

open Ids

(** Arithmetic operators.  Kept concrete for the interpreter; the analysis
    abstracts all of them to [Any] (paper, Section 3 "Abstractions for
    Primitive Values"). *)
type arith_op = Add | Sub | Mul | Div | Rem

(** Right-hand sides of [v <- e] assignments (the [Expr] rule of Figure 10). *)
type expr =
  | Const of int  (** primitive literal [n]; booleans are 0/1 *)
  | Null  (** the [null] literal *)
  | New of Class.t  (** object allocation [new T] *)
  | NewArr of Class.t * Var.t
      (** array allocation [new T\[n\]]; the class is the array class
          registered by the frontend, the variable is the length *)
  | Arith of arith_op * Var.t * Var.t
      (** arithmetic; analysed as the opaque [Any] source *)
  | AnyInt
      (** opaque integer input (models external/unanalysable values) *)

(** Normalized branching conditions (Appendix B.1): only [==], [<] and
    [instanceof] survive lowering.  Null checks are [Cmp (Eq, v, v_null)]
    where [v_null] is defined by [Assign (v_null, Null)]. *)
type cond =
  | Cmp of [ `Eq | `Lt ] * Var.t * Var.t
  | InstanceOf of Var.t * Class.t

type insn =
  | Assign of Var.t * expr  (** [v <- e] *)
  | Load of { dst : Var.t; recv : Var.t; field : Field.t }  (** [v <- r.x] *)
  | Store of { recv : Var.t; field : Field.t; src : Var.t }  (** [r.x <- v] *)
  | LoadStatic of { dst : Var.t; field : Field.t }  (** [v <- C.x] *)
  | StoreStatic of { field : Field.t; src : Var.t }  (** [C.x <- v] *)
  | ArrLoad of { dst : Var.t; arr : Var.t; idx : Var.t; elem : Field.t }
      (** [v <- a\[i\]]; [elem] is the element pseudo-field of the static
          array type — the analysis treats array reads as loads of that
          field (one element flow per array type), the interpreter indexes
          concretely *)
  | ArrStore of { arr : Var.t; idx : Var.t; src : Var.t; elem : Field.t }
      (** [a\[i\] <- v] *)
  | ArrLen of { dst : Var.t; arr : Var.t }
      (** [v <- a.length]; analysed as an opaque [Any] source *)
  | Cast of { dst : Var.t; src : Var.t; cls : Class.t }
      (** checkcast [v <- (C) src]: a filtering flow that keeps subtypes of
          [C] plus [null] (unlike [instanceof], a cast passes [null]) *)
  | Invoke of {
      dst : Var.t;
      recv : Var.t option;  (** [None] for static calls *)
      target : Meth.t;
          (** statically resolved target; virtual calls re-resolve per
              receiver type during the analysis *)
      args : Var.t list;  (** actual arguments, excluding the receiver *)
      virtual_ : bool;
    }  (** [v <- v0.m(v1, ..., vn)] *)

type terminator =
  | Jump of Block.t  (** [jump m]; the target must be a merge block *)
  | If of { cond : cond; then_ : Block.t; else_ : Block.t }
      (** both targets must be label blocks *)
  | Return of Var.t option  (** [return v]; [None] for void methods *)
  | Throw of Var.t
      (** [throw v]: abrupt termination.  Per Section 5, exception values
          are not tracked interprocedurally; a throw simply never reaches
          the method's return, which is what makes "a method that always
          throws" act as a dead-code predicate at its call sites *)

type block_kind =
  | Entry  (** the unique first block, beginning with [start(p0, ..., pn)] *)
  | Label  (** branch target; exactly one predecessor, ending with [if] *)
  | Merge  (** control-flow merge; the only legal target of [jump] *)

(** A phi instruction [v <- phi(v1, ..., vn)] at the head of a merge block.
    Arguments are keyed by predecessor block so the correspondence between
    incoming edges and operands is explicit. *)
type phi = { phi_var : Var.t; mutable phi_args : (Block.t * Var.t) list }

type block = {
  b_id : Block.t;
  b_kind : block_kind;
  mutable b_phis : phi list;
  mutable b_insns : insn list;
  mutable b_term : terminator option;
  mutable b_preds : Block.t list;
  mutable b_spans : Span.t option list;
      (** source span per instruction, parallel to [b_insns] (maintained by
          {!Ssa_builder.add_insn}).  Code that rewrites [b_insns] without
          it (some tests do, to build invalid bodies on purpose) leaves it
          desynchronized, so consumers read a missing entry as [None] and
          ignore extras. *)
  mutable b_term_span : Span.t option;  (** span of the terminator *)
  mutable b_term_swapped : bool;
      (** for [If] terminators: condition normalization swapped the branch
          targets, so the IR then-successor is the source else-branch *)
  mutable b_term_synthetic : bool;
      (** for [If] terminators: the branch was introduced by lowering a
          literal boolean condition (block statements are wrapped in
          [if (true)], [while (true)] headers); clients reporting dead
          branches skip these *)
}

(** A complete method body. *)
type body = {
  params : Var.t list;
      (** formal parameters as defined by [start(p0, ..., pn)]; for instance
          methods [p0] is the receiver [this] *)
  entry : Block.t;
  blocks : block array;  (** indexed by block id *)
  var_count : int;
  var_tys : Ty.t array;
      (** declared/inferred base-language type per variable, indexed by
          variable id; used for declared-type filtering of parameter flows
          and by the interpreter *)
}

let block body (id : Block.t) = body.blocks.(Block.to_int id)
let var_ty body (v : Var.t) = body.var_tys.(Var.to_int v)

(** [postorder body] is the indices of the blocks of [body] reachable from
    the entry, in depth-first postorder. *)
let postorder body =
  let n = Array.length body.blocks in
  let seen = Array.make n false and order = Array.make n 0 in
  (* successors in terminator order (jump target; then, else), then [i]
     at position [k] of [order]; returns the next free position *)
  let rec visit i k =
    if seen.(i) then k
    else begin
      seen.(i) <- true;
      let k =
        match body.blocks.(i).b_term with
        | Some (Jump t) -> visit (Block.to_int t) k
        | Some (If { then_; else_; _ }) ->
            let k = visit (Block.to_int then_) k in
            visit (Block.to_int else_) k
        | Some (Return _ | Throw _) | None -> k
      in
      order.(k) <- i;
      k + 1
    end
  in
  Array.sub order 0 (visit (Block.to_int body.entry) 0)

(** [reverse_postorder body] lists the blocks of [body] reachable from the
    entry in reverse postorder — the traversal order used when creating a
    PVPG (Appendix B.4). *)
let reverse_postorder body =
  Array.fold_left (fun rpo i -> body.blocks.(i) :: rpo) [] (postorder body)

(** Instruction count of a body (phis and terminators included); the
    "binary size" proxy sums this over reachable methods. *)
let size body =
  Array.fold_left
    (fun acc b ->
      acc + List.length b.b_phis + List.length b.b_insns
      + (match b.b_term with None -> 0 | Some _ -> 1))
    0 body.blocks
