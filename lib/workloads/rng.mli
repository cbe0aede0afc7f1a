(** Deterministic splittable PRNG (SplitMix64) — the workload generators
    must produce byte-identical programs for a given seed. *)

type t

val create : int -> t

val split : t -> t
(** An independent child generator: further draws from the parent do not
    perturb the child's stream. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]; [n] must be positive. *)

val bool : t -> bool

val chance : t -> float -> bool
(** True with the given probability. *)

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val pick_opt : t -> 'a list -> 'a option
(** Uniform element of the list, [None] when it is empty.  For non-empty
    lists this consumes exactly the same draw as {!pick}, so migrating a
    call site does not perturb the generated stream. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list.
    @raise Invalid_argument on an empty list — prefer {!pick_opt}. *)

val weighted : t -> (int * 'a) list -> 'a
(** Pick with probability proportional to the integer weights. *)
