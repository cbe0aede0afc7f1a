(** The deduplicated worklist backing {!Engine}: a ring buffer of the
    pending flows themselves.

    The engine stores the dirty kinds (pending / recompute / enable /
    notify) as bits on {!Flow.t} itself ([Flow.work]); this module only
    owns the queue order.  A push writes one ring slot and a pop reads
    one — no boxed task values, no hashing — and the ring's size follows
    the queue, not the process-wide flow-id counter. *)

type t

val create : unit -> t
(** An empty worklist.  Mints one {!Flow} id, for the filler value of
    the ring's empty slots. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> Flow.t -> unit
(** Schedule a flow.  The caller is responsible for not double-queuing
    (the engine's dirty bits make pushes idempotent at its layer). *)

val pop_exn : t -> Flow.t
(** Remove and return the oldest pending flow.  The caller must check
    {!is_empty} first (keeps the hot loop allocation-free).
    @raise Invalid_argument when empty. *)

val pending : t -> Flow.t array
(** The pending flows in queue order, without removing them (used to
    serialize an engine). *)

val pop_all : t -> Flow.t array
(** Empty the worklist and return the pending flows in queue order (the
    random-order drain's refill). *)
