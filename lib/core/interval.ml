(* Integer intervals with infinite bounds (see the interface).  The
   encoding keeps one invariant: in [Itv { lo; hi }], whenever both
   bounds are finite, [lo <= hi].  [of_bounds] is the only normalizing
   constructor; everything else routes through it. *)

type t = Bot | Itv of { lo : int option; hi : int option }

let bot = Bot
let top = Itv { lo = None; hi = None }
(* both bounds share one [Some n] box *)
let singleton n =
  let b = Some n in
  Itv { lo = b; hi = b }

let of_bounds lo hi =
  match (lo, hi) with
  | Some l, Some h when l > h -> Bot
  | _ -> Itv { lo; hi }

let is_bot t = t = Bot
let is_top = function Itv { lo = None; hi = None } -> true | _ -> false

let mem n = function
  | Bot -> false
  | Itv { lo; hi } ->
      (match lo with None -> true | Some l -> l <= n)
      && (match hi with None -> true | Some h -> n <= h)

let as_const = function
  | Itv { lo = Some l; hi = Some h } when l = h -> Some l
  | _ -> None

let equal (a : t) (b : t) = a = b

(* Bound orderings: a lower bound of [None] is -inf, an upper bound of
   [None] is +inf.  The [lo_*] helpers compare lower bounds, [hi_*]
   upper bounds — they differ only in which side [None] dominates. *)
let lo_le a b =
  match (a, b) with
  | None, _ -> true
  | _, None -> false
  | Some x, Some y -> x <= y

let hi_le a b =
  match (a, b) with
  | _, None -> true
  | None, _ -> false
  | Some x, Some y -> x <= y

let lo_min a b = if lo_le a b then a else b
let lo_max a b = if lo_le a b then b else a
let hi_min a b = if hi_le a b then a else b
let hi_max a b = if hi_le a b then b else a

let leq a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Bot -> false
  | Itv a, Itv b -> lo_le b.lo a.lo && hi_le a.hi b.hi

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Itv ia, Itv ib ->
      if leq a b then b
      else if leq b a then a
      else Itv { lo = lo_min ia.lo ib.lo; hi = hi_max ia.hi ib.hi }

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv ia, Itv ib ->
      if leq a b then a
      else if leq b a then b
      else of_bounds (lo_max ia.lo ib.lo) (hi_min ia.hi ib.hi)

let widen a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Itv ia, Itv ib ->
      let lo = if lo_le ia.lo ib.lo then ia.lo else None in
      let hi = if hi_le ib.hi ia.hi then ia.hi else None in
      Itv { lo; hi }

(* ------------------------- threshold snapping -------------------------

   Non-singleton transfer results round their bounds outward to the
   ladder T = [-64, 64] ∪ {±2^k} ∪ {min_int, ±inf}.  T is finite and
   snapping is monotone, so the arith transfer stays monotone and every
   chain of joined transfer outputs climbs T at most ~130 times before
   hitting infinity — termination without per-flow widening state. *)

(* Smallest power of two >= x, for x > 64; [None] past the largest
   representable power. *)
let pow2_ceil x =
  let rec go p = if p >= x then Some p else if p > max_int / 2 then None else go (p * 2) in
  go 64

(* Largest power of two <= x, for x > 64. *)
let pow2_floor x =
  let rec go p = if p > max_int / 2 || p * 2 > x then p else go (p * 2) in
  go 64

let snap_up x =
  if x >= -64 && x <= 64 then Some x
  else if x > 64 then pow2_ceil x
  else if x = min_int then Some min_int
  else Some (-pow2_floor (-x))

let snap_down x =
  if x >= -64 && x <= 64 then Some x
  else if x > 64 then Some (pow2_floor x)
  else if x = min_int then Some min_int
  else match pow2_ceil (-x) with Some p -> Some (-p) | None -> None

let snap_lo = function None -> None | Some x -> snap_down x
let snap_hi = function None -> None | Some x -> snap_up x

(* ------------------------------ arithmetic --------------------------- *)

(* Bound arithmetic signals overflow instead of wrapping: a wrapped
   concrete result lands at the far end of the integer range, so a
   partially-overflowed interval would be unsound — the whole result
   degrades to [top]. *)
exception Overflow

let add_b x y =
  match (x, y) with
  | None, _ | _, None -> None
  | Some a, Some b ->
      let s = a + b in
      if (b > 0 && s < a) || (b < 0 && s > a) then raise Overflow else Some s

let sub_b x y =
  match (x, y) with
  | None, _ | _, None -> None
  | Some a, Some b ->
      let s = a - b in
      if (b > 0 && s > a) || (b < 0 && s < a) then raise Overflow else Some s

let add a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv ia, Itv ib -> (
      match (as_const a, as_const b) with
      | Some x, Some y -> singleton (x + y)
      | _ -> (
          try of_bounds (snap_lo (add_b ia.lo ib.lo)) (snap_hi (add_b ia.hi ib.hi))
          with Overflow -> top))

let sub a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv ia, Itv ib -> (
      match (as_const a, as_const b) with
      | Some x, Some y -> singleton (x - y)
      | _ -> (
          try of_bounds (snap_lo (sub_b ia.lo ib.hi)) (snap_hi (sub_b ia.hi ib.lo))
          with Overflow -> top))

let mul a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _ -> (
      match (as_const a, as_const b) with
      | Some x, Some y -> singleton (x * y)
      | _ -> (
          match (a, b) with
          | Itv { lo = Some la; hi = Some ha }, Itv { lo = Some lb; hi = Some hb }
            -> (
              let mul_chk x y =
                if (x = -1 && y = min_int) || (y = -1 && x = min_int) then
                  raise Overflow;
                let p = x * y in
                if x <> 0 && p / x <> y then raise Overflow;
                p
              in
              try
                let c1 = mul_chk la lb in
                let c2 = mul_chk la hb in
                let c3 = mul_chk ha lb in
                let c4 = mul_chk ha hb in
                let mn = min (min c1 c2) (min c3 c4) in
                let mx = max (max c1 c2) (max c3 c4) in
                of_bounds (snap_lo (Some mn)) (snap_hi (Some mx))
              with Overflow -> top)
          | _ -> top))

(* Division and remainder match the interpreter: definite zero divisor
   means every concrete run halts with [Div_by_zero] before a value
   flows, so the abstract result is [Bot].  A divisor that merely
   *contains* zero still has non-halting runs — those degrade to
   [top].  [min_int / -1] (and [mod]) is a hardware trap on most
   targets; degrade rather than evaluate it. *)
let div a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _ -> (
      match as_const b with
      | Some 0 -> Bot
      | Some d -> (
          match a with
          | Itv { lo = Some la; hi = Some ha } ->
              if d = -1 && la = min_int then top
              else
                let q1 = la / d and q2 = ha / d in
                if la = ha then singleton q1
                else of_bounds (snap_lo (Some (min q1 q2))) (snap_hi (Some (max q1 q2)))
          | _ -> top)
      | None -> top)

let rem a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _ -> (
      match as_const b with
      | Some 0 -> Bot
      | Some d ->
          if d = 1 || d = -1 then singleton 0
          else if d = min_int then top
          else (
            match as_const a with
            | Some x -> singleton (x mod d)
            | None ->
                let m = abs d - 1 in
                let nonneg =
                  match a with Itv { lo = Some l; _ } -> l >= 0 | _ -> false
                in
                of_bounds
                  (snap_lo (Some (if nonneg then 0 else -m)))
                  (snap_hi (Some m)))
      | None -> top)

(* --------------------------- backward narrowing ---------------------- *)

(* "Exists" semantics: the integers that can stand in the relation with
   at least one element of [r].  An infinite bound on the relevant side
   of [r] constrains nothing. *)

let implied_lt = function
  | Bot -> Bot
  | Itv { hi = None; _ } -> top
  | Itv { hi = Some h; _ } ->
      if h = min_int then Bot else Itv { lo = None; hi = Some (h - 1) }

let implied_le = function
  | Bot -> Bot
  | Itv { hi; _ } -> Itv { lo = None; hi }

let implied_gt = function
  | Bot -> Bot
  | Itv { lo = None; _ } -> top
  | Itv { lo = Some l; _ } ->
      if l = max_int then Bot else Itv { lo = Some (l + 1); hi = None }

let implied_ge = function
  | Bot -> Bot
  | Itv { lo; _ } -> Itv { lo; hi = None }

let remove n t =
  match t with
  | Bot -> Bot
  | Itv { lo; hi } -> (
      match as_const t with
      | Some c -> if c = n then Bot else t
      | None ->
          (* non-singleton: a trimmed endpoint cannot overflow because
             the other bound lies strictly beyond it *)
          let lo = if lo = Some n then Some (n + 1) else lo in
          let hi = if hi = Some n then Some (n - 1) else hi in
          of_bounds lo hi)

let pp ppf = function
  | Bot -> Format.pp_print_string ppf "[]"
  | Itv { lo; hi } ->
      let bound ppf inf = function
        | None -> Format.pp_print_string ppf inf
        | Some n -> Format.pp_print_int ppf n
      in
      Format.fprintf ppf "[%a,%a]"
        (fun ppf -> bound ppf "-inf")
        lo
        (fun ppf -> bound ppf "+inf")
        hi
