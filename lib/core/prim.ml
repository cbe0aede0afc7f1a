(* Reduced product constants × intervals (see the interface). *)

type t = { c : Pval.t; itv : Interval.t }
type binop = Add | Sub | Mul | Div | Rem
type rel = Lt | Le | Gt | Ge

let bot = { c = Pval.Bot; itv = Interval.bot }
let top = { c = Pval.Top; itv = Interval.top }
(* A PVPG holds one constant state per literal, and booleans, flags and
   small counters repeat across every method: values built from a
   constant in this range are preallocated once. *)
let interned_min = -128
let interned_max = 1023
let interned n = interned_min <= n && n <= interned_max

let interning mk =
  let table =
    Array.init (interned_max - interned_min + 1) (fun i -> mk (interned_min + i))
  in
  fun n -> if interned n then table.(n - interned_min) else mk n

let const = interning (fun n -> { c = Pval.Const n; itv = Interval.singleton n })

let reduce c itv =
  if Pval.is_bot c || Interval.is_bot itv then bot
  else
    match c with
    | Pval.Const n ->
        if Interval.mem n itv then const n else bot
    | Pval.Top -> (
        match Interval.as_const itv with
        | Some n -> const n
        | None -> { c = Pval.Top; itv })
    | Pval.Bot -> bot

let of_interval itv = reduce Pval.Top itv
let is_bot p = Pval.is_bot p.c
let is_top p = (match p.c with Pval.Top -> true | _ -> false) && Interval.is_top p.itv
let as_const p = match p.c with Pval.Const n -> Some n | _ -> None

let mem n p =
  (match p.c with
  | Pval.Bot -> false
  | Pval.Const m -> Int.equal m n
  | Pval.Top -> true)
  && Interval.mem n p.itv

let equal a b = Pval.equal a.c b.c && Interval.equal a.itv b.itv
let leq a b = Pval.leq a.c b.c && Interval.leq a.itv b.itv

let join a b =
  if leq a b then b
  else if leq b a then a
  else reduce (Pval.join a.c b.c) (Interval.join a.itv b.itv)

let meet a b =
  if leq a b then a
  else if leq b a then b
  else reduce (Pval.meet a.c b.c) (Interval.meet a.itv b.itv)

let widen a b = reduce (Pval.join a.c b.c) (Interval.widen a.itv b.itv)

let arith op a b =
  if is_bot a || is_bot b then bot
  else
    let f =
      match op with
      | Add -> Interval.add
      | Sub -> Interval.sub
      | Mul -> Interval.mul
      | Div -> Interval.div
      | Rem -> Interval.rem
    in
    of_interval (f a.itv b.itv)

let narrow r l rv =
  if is_bot l || is_bot rv then bot
  else
    let implied =
      match r with
      | Lt -> Interval.implied_lt rv.itv
      | Le -> Interval.implied_le rv.itv
      | Gt -> Interval.implied_gt rv.itv
      | Ge -> Interval.implied_ge rv.itv
    in
    meet l (of_interval implied)

let remove_const v n =
  match as_const v with
  | Some m -> if Int.equal m n then bot else v
  | None -> reduce v.c (Interval.remove n v.itv)

let pp ppf p =
  match as_const p with
  | Some n -> Format.pp_print_int ppf n
  | None ->
      if is_bot p then Format.pp_print_string ppf "Empty"
      else Interval.pp ppf p.itv
