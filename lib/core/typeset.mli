(** Compact immutable sets of class ids — the object part of the
    value-state lattice (the subset lattice [S = (2^T, ⊆)] of
    Appendix B.2), implemented as normalized bit vectors.

    The special [null] type participates as bit 0 (its reserved class id in
    {!Skipflow_ir.Program}). *)

type t

val empty : t
val is_empty : t -> bool
val singleton : int -> t
val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t
val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t
(** [diff a b] is [a \ b]. *)

val equal : t -> t -> bool
(** Set equality (representations are normalized, so this is structural). *)

val subset : t -> t -> bool
(** [subset a b] iff [a ⊆ b]. *)

val disjoint : t -> t -> bool
(** [disjoint a b] iff [a ∩ b = ∅].

    The binary operations ({!union}, {!inter}, {!diff}) return one of
    their arguments physically unchanged whenever it already is the
    result, so no-op joins and filters — the common case near the fixed
    point — allocate nothing. *)

val cardinal : t -> int
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list
(** Members in increasing order. *)

val of_list : int list -> t

val hash : t -> int
(** Allocation-free; consistent with {!equal} (normalized representation). *)

val pp : Format.formatter -> t -> unit

(** {2 Word-level primitives (exposed for the unit tests)} *)

val popcount_word : int -> int
(** Number of set bits in one machine word (parallel-bit SWAR counting on
    63-bit ints, naive shift loop otherwise). *)

val popcount_naive : int -> int
(** Reference implementation for differential testing. *)

(** {2 Typed wrappers over class ids} *)

val class_mem : Skipflow_ir.Ids.Class.t -> t -> bool
val class_add : Skipflow_ir.Ids.Class.t -> t -> t
val class_singleton : Skipflow_ir.Ids.Class.t -> t
val of_classes : Skipflow_ir.Ids.Class.t list -> t
val classes : t -> Skipflow_ir.Ids.Class.t list
val iter_classes : (Skipflow_ir.Ids.Class.t -> unit) -> t -> unit

val null_bit : t
(** The singleton set containing only the [null] member (bit 0). *)

val has_null : t -> bool
