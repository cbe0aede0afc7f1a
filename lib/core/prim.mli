(** The reduced product of the flat constant lattice {!Pval} and the
    interval domain {!Interval} — the primitive component a [Vstate]
    carries when the analysis runs [--pval product] (and, degenerately,
    the singleton forms it carries under [--pval flat]).

    Every value of type {!t} is *reduced* (canonical):
    - if either component is bottom, both are ([{Bot; Bot}] = {!bot});
    - if the interval is a singleton [{n}], the constant is [Const n];
    - if the constant is [Const n], the interval is exactly [{n}].

    So a proper value is either [(Const n, {n})] or
    [(Top, non-singleton interval)].  {!reduce} is the only
    canonicalizing constructor; all operations route through it, which
    keeps {!equal} structural and {!leq} componentwise-sound. *)

type t = private { c : Pval.t; itv : Interval.t }

(** Arithmetic operators, mirroring the IR's [Bl.arith_op]. *)
type binop = Add | Sub | Mul | Div | Rem

(** Relations for backward narrowing (equality and disequality are
    handled by {!meet} and {!remove_const}). *)
type rel = Lt | Le | Gt | Ge

val bot : t
val top : t

val const : int -> t
(** The singleton [{n}], physically shared for {!interned} [n], so the
    constants a graph repeats cost no allocation. *)

val interned : int -> bool
(** The small constants (booleans, flags, counters: -128..1023) whose
    values are preallocated. *)

val interning : (int -> 'a) -> int -> 'a
(** [interning mk] behaves as [mk], but returns one preallocated
    [mk n] for every {!interned} [n]; [mk] must build an immutable
    value. *)

(** Canonicalize a component pair (see the module doc). *)
val reduce : Pval.t -> Interval.t -> t

(** [of_interval i] = [reduce Top i]. *)
val of_interval : Interval.t -> t

val is_bot : t -> bool
val is_top : t -> bool
val as_const : t -> int option
val mem : int -> t -> bool
val equal : t -> t -> bool
val leq : t -> t -> bool

val join : t -> t -> t
(** Least upper bound; returns one of its arguments physically when the
    join equals it, so callers can cheaply detect no-change. *)

val meet : t -> t -> t

val widen : t -> t -> t
(** [widen old next]: componentwise (flat join × interval widening),
    then reduced.  Stabilizes every ascending chain. *)

val arith : binop -> t -> t -> t
(** Forward transfer, matching the concrete interpreter: exact native
    arithmetic on constants, interval transfer otherwise; division or
    remainder by a definite zero is {!bot}. *)

val narrow : rel -> t -> t -> t
(** [narrow r l rv]: the part of [l] that can stand in relation [r]
    with at least one element of [rv] — the backward transfer a
    predicate filter applies to the left operand of [l r rv]. *)

val remove_const : t -> int -> t
(** Disequality narrowing: [remove_const v n] drops [n] from [v] when
    the representation allows (singleton kill or endpoint trim). *)

val pp : Format.formatter -> t -> unit
