(** Integer intervals with infinite bounds — the range half of the
    reduced-product primitive domain ({!Prim}).

    A value is either [Bot] (no integer) or a contiguous range
    [\[lo, hi\]] where a missing bound means −∞ / +∞.  The invariant
    [lo <= hi] holds for every constructed interval; {!of_bounds}
    normalizes a contradictory pair to [Bot].

    Arithmetic transfer matches the concrete interpreter semantics
    ({!Skipflow_interp}): native OCaml [+ - * / mod] on singletons
    (including 63-bit wraparound), division/remainder by a definite
    zero produces [Bot] because the concrete execution halts before a
    value flows.  Non-singleton results snap their bounds *outward* to
    a finite threshold ladder (the integers in [-64, 64] plus the
    powers of two), which keeps every ascending chain through the
    solver finite without an order-dependent widening delay — any
    drain order, and the naive solver the tests check the engine
    against, reach the same states flow by flow.  The classic
    {!widen} is still exported (and law-tested) for callers that
    iterate joins themselves. *)

type t = Bot | Itv of { lo : int option; hi : int option }

val bot : t
val top : t
val singleton : int -> t

(** [of_bounds lo hi] builds [\[lo, hi\]]; [None] is an infinite
    bound; a pair with [lo > hi] normalizes to [Bot]. *)
val of_bounds : int option -> int option -> t

val is_bot : t -> bool
val is_top : t -> bool
val mem : int -> t -> bool

(** [Some n] iff the interval is the singleton [{n}]. *)
val as_const : t -> int option

val equal : t -> t -> bool
val leq : t -> t -> bool
val join : t -> t -> t
val meet : t -> t -> t

(** Classic interval widening: a bound that grew since the previous
    iterate jumps straight to its infinity.  [widen old next] is an
    upper bound of both and stabilizes any ascending chain. *)
val widen : t -> t -> t

(** {1 Arithmetic transfer} — sound for the interpreter's semantics. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val rem : t -> t -> t

(** {1 Backward narrowing} — comparison support.

    [implied_lt r] is the set of integers that are [<] at least one
    element of [r] ("exists" semantics — exactly what a predicate
    filter on the left operand of [l < r] may keep).  Likewise for
    [le], [gt], [ge].  All return [Bot] on [Bot] input and [top] when
    the relevant bound of [r] is infinite. *)

val implied_lt : t -> t
val implied_le : t -> t
val implied_gt : t -> t
val implied_ge : t -> t

(** [remove n r]: best interval for [r \ {n}] — [Bot] when [r] is the
    singleton [{n}], an endpoint trim when [n] is an endpoint,
    otherwise [r] unchanged (interior holes are not representable). *)
val remove : int -> t -> t

val pp : Format.formatter -> t -> unit
