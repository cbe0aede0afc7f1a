(** On-the-fly SSA construction for base-language method bodies, in the
    sealed-block style of Braun et al. (CC'13).  The paper assumes SSA
    input (Section 4); this is the substrate providing it.

    Protocol: create the builder with the method parameters; create blocks
    and emit instructions; read/write named source-level locals (phis are
    introduced automatically at merges); {!seal} merge blocks once all
    their predecessors exist (loop headers after the back edge);
    {!terminate} every block; {!finish}. *)

open Ids

type t

val create : params:(string * Ty.t) list -> t
(** Start a body whose entry defines one parameter per [(name, ty)]; for
    instance methods the receiver must be included first. *)

val entry_block : t -> Bl.block
val label_block : t -> Bl.block
val merge_block : t -> Bl.block

val add_insn : t -> Bl.block -> Bl.insn -> unit
val write_var : t -> Bl.block -> string -> Var.t -> unit

val set_pos : t -> line:int -> col:int -> unit
(** Source position ([line] >= 1) whose span is attached to subsequently
    emitted instructions and terminators (none until set; generated
    bodies never set it).  Consecutive emissions at one position share
    one span. *)

val mark_branch : t -> Bl.block -> swapped:bool -> synthetic:bool -> unit
(** Record condition-normalization facts about a block's [If] terminator:
    [swapped] — the IR then-successor is the source else-branch;
    [synthetic] — the condition was a lowering-introduced literal boolean.
    @raise Invalid_argument if the block's terminator is not an [If]. *)

val read_var : t -> Bl.block -> string -> ty:Ty.t -> Var.t
(** Current SSA value of a named local at this block, creating phis where
    definitions merge.  @raise Invalid_argument if undefined on some
    path. *)

val seal : t -> Bl.block -> unit
(** Declare all predecessors known; completes the block's pending phis. *)

val terminate : t -> Bl.block -> Bl.terminator -> unit
(** Sets the terminator and registers predecessor edges; enforces the
    jump-to-merge / if-to-label block discipline. *)

(** {2 Instruction helpers} (emit and return the defined variable) *)

val assign : t -> Bl.block -> ty:Ty.t -> Bl.expr -> Var.t
val const : t -> Bl.block -> int -> Var.t
val null : t -> Bl.block -> Var.t
val new_ : t -> Bl.block -> Class.t -> Var.t
val arith : t -> Bl.block -> Bl.arith_op -> Var.t -> Var.t -> Var.t
val new_arr : t -> Bl.block -> Class.t -> Var.t -> Var.t
val load : t -> Bl.block -> ty:Ty.t -> recv:Var.t -> field:Field.t -> Var.t
val store : t -> Bl.block -> recv:Var.t -> field:Field.t -> src:Var.t -> unit
val arr_load : t -> Bl.block -> ty:Ty.t -> arr:Var.t -> idx:Var.t -> elem:Field.t -> Var.t
val arr_store : t -> Bl.block -> arr:Var.t -> idx:Var.t -> src:Var.t -> elem:Field.t -> unit
val arr_len : t -> Bl.block -> arr:Var.t -> Var.t
val cast : t -> Bl.block -> cls:Class.t -> src:Var.t -> Var.t
val load_static : t -> Bl.block -> ty:Ty.t -> field:Field.t -> Var.t
val store_static : t -> Bl.block -> field:Field.t -> src:Var.t -> unit

val invoke :
  t ->
  Bl.block ->
  ty:Ty.t ->
  recv:Var.t option ->
  target:Meth.t ->
  args:Var.t list ->
  virtual_:bool ->
  Var.t

val finish : t -> Bl.body
(** @raise Invalid_argument if a block is unsealed or unterminated. *)
