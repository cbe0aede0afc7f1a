(** Dominator trees for base-language CFGs (Cooper–Harvey–Kennedy
    iterative algorithm).  Used by {!Validate} to check that SSA
    definitions dominate their uses. *)

type t

val compute : Bl.body -> t
val reachable : t -> Ids.Block.t -> bool

val dominates : t -> dom:Ids.Block.t -> sub:Ids.Block.t -> bool
(** Reflexive dominance, in constant time from the dominator tree's
    preorder numbering; both blocks must be reachable. *)

val idom : t -> Ids.Block.t -> Ids.Block.t option
(** Immediate dominator; [None] for the entry or unreachable blocks. *)
