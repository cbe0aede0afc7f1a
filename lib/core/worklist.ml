(** The deduplicated worklist backing {!Engine}: a ring buffer of the
    pending flows themselves.

    The engine stores the dirty kinds (pending / recompute / enable /
    notify) as bits on {!Flow.t} itself ([Flow.work]); this module only
    owns the queue order.  A push writes one ring slot and a pop reads
    one — no boxed task values, no hashing — and the ring's size follows
    the queue, not the process-wide flow-id counter. *)

type t = {
  mutable ring : Flow.t array;  (** pending flows, circular; capacity is a power of 2 *)
  mutable head : int;  (** index of the next flow to pop *)
  mutable size : int;
  filler : Flow.t;  (** the value in empty slots *)
}

let initial_capacity = 1024

let create () =
  let filler = Flow.make Flow.Pred_on in
  { ring = Array.make initial_capacity filler; head = 0; size = 0; filler }

let length t = t.size
let is_empty t = t.size = 0

let grow_ring t =
  let cap = Array.length t.ring in
  let a = Array.make (cap * 2) t.filler in
  for k = 0 to t.size - 1 do
    a.(k) <- t.ring.((t.head + k) land (cap - 1))
  done;
  t.ring <- a;
  t.head <- 0

let push t (f : Flow.t) =
  if t.size = Array.length t.ring then grow_ring t;
  t.ring.((t.head + t.size) land (Array.length t.ring - 1)) <- f;
  t.size <- t.size + 1

(** [pop_exn t] removes and returns the oldest pending flow.  The caller
    must check {!is_empty} first (keeps the hot loop allocation-free). *)
let pop_exn t =
  if t.size = 0 then invalid_arg "Worklist.pop_exn: empty";
  let f = t.ring.(t.head) in
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.size <- t.size - 1;
  f

(** [pending t] returns the pending flows in queue order without removing
    them ({!Engine.snapshot_bytes} serializing an engine). *)
let pending t =
  let cap = Array.length t.ring in
  Array.init t.size (fun k -> t.ring.((t.head + k) land (cap - 1)))

(** [pop_all t] empties the worklist and returns the pending flows in
    queue order (the random-order drain's refill). *)
let pop_all t =
  let a = pending t in
  t.head <- 0;
  t.size <- 0;
  a
