(** Compact immutable sets of class ids, used as the object part of the
    value-state lattice (the subset lattice [S = (2^T, ⊆)] of Appendix B.2).

    Implemented as normalized immutable bit vectors: the representation has
    no trailing zero words, so structural equality coincides with set
    equality and hashing is cheap.  The special [null] type participates as
    bit 0 (its class id in {!Skipflow_ir.Program}). *)

type t = int array
(** word [i] holds members [64*i .. 64*i+62] (OCaml ints); normalized. *)

let bits_per_word = Sys.int_size

let empty : t = [||]

let is_empty (s : t) = Array.length s = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let singleton i =
  if i < 0 then invalid_arg "Typeset.singleton";
  let w = i / bits_per_word in
  let a = Array.make (w + 1) 0 in
  a.(w) <- 1 lsl (i mod bits_per_word);
  a

let mem i (s : t) =
  let w = i / bits_per_word in
  w < Array.length s && s.(w) land (1 lsl (i mod bits_per_word)) <> 0

let add i (s : t) =
  let w = i / bits_per_word in
  let len = max (Array.length s) (w + 1) in
  let a = Array.make len 0 in
  Array.blit s 0 a 0 (Array.length s);
  a.(w) <- a.(w) lor (1 lsl (i mod bits_per_word));
  a (* adding a bit never creates trailing zeros *)

let remove i (s : t) =
  let w = i / bits_per_word in
  if w >= Array.length s then s
  else begin
    let a = Array.copy s in
    a.(w) <- a.(w) land lnot (1 lsl (i mod bits_per_word));
    normalize a
  end

let equal (a : t) (b : t) =
  let la = Array.length a in
  la = Array.length b
  &&
  let rec go i = i >= la || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let subset (a : t) (b : t) =
  let la = Array.length a in
  la <= Array.length b
  &&
  let rec go i = i >= la || (a.(i) land lnot b.(i) = 0 && go (i + 1)) in
  go 0

let disjoint (a : t) (b : t) =
  let l = min (Array.length a) (Array.length b) in
  let rec go i = i >= l || (a.(i) land b.(i) = 0 && go (i + 1)) in
  go 0

(* The binary operations return one of their arguments (physically) when
   it already is the result.  Near the fixed point almost every join and
   filter is a no-op, so these subset pre-checks turn the inner loop of
   the engine allocation-free; callers can also use the physical identity
   to skip re-boxing (see {!Vstate}). *)

let union (a : t) (b : t) =
  if subset b a then a
  else if subset a b then b
  else begin
    let la = Array.length a and lb = Array.length b in
    let big, small = if la >= lb then (a, b) else (b, a) in
    let r = Array.copy big in
    Array.iteri (fun i w -> r.(i) <- r.(i) lor w) small;
    r
  end

let inter (a : t) (b : t) =
  if subset a b then a
  else if subset b a then b
  else begin
    let l = min (Array.length a) (Array.length b) in
    let r = Array.make l 0 in
    for i = 0 to l - 1 do
      r.(i) <- a.(i) land b.(i)
    done;
    normalize r
  end

let diff (a : t) (b : t) =
  if disjoint a b then a
  else begin
    let r = Array.copy a in
    let l = min (Array.length a) (Array.length b) in
    for i = 0 to l - 1 do
      r.(i) <- r.(i) land lnot b.(i)
    done;
    normalize r
  end

(* Parallel-bit (SWAR) popcount.  The repeating-mask constants cannot be
   written as literals on 63-bit OCaml ints (0x5555... overflows
   [max_int]), so build them by shifting; the resulting bit patterns are
   exactly the usual masks truncated to [Sys.int_size] bits, which is all
   the algorithm needs. *)
let rep16 x = (((((x lsl 16) lor x) lsl 16) lor x) lsl 16) lor x
let m55 = rep16 0x5555
let m33 = rep16 0x3333
let m0f = rep16 0x0f0f
let h01 = rep16 0x0101

let popcount_naive w =
  let rec go w acc = if w = 0 then acc else go (w lsr 1) (acc + (w land 1)) in
  go w 0

let popcount_word =
  if bits_per_word = 63 then fun w ->
    let w = w - ((w lsr 1) land m55) in
    let w = (w land m33) + ((w lsr 2) land m33) in
    let w = (w + (w lsr 4)) land m0f in
    (* the high byte of [w * h01] accumulates all byte sums; bytes 0..6
       are complete bytes of the 63-bit word, byte 7 is the single top
       bit, already included by the multiply *)
    (w * h01) lsr 56
  else popcount_naive

let cardinal (s : t) = Array.fold_left (fun acc w -> acc + popcount_word w) 0 s

(* Iterate set bits via lowest-set-bit extraction: [w land -w] isolates
   the lowest bit, whose index is the popcount of the bits below it. *)
let iter f (s : t) =
  for wi = 0 to Array.length s - 1 do
    let base = wi * bits_per_word in
    let w = ref s.(wi) in
    while !w <> 0 do
      let b = !w land - !w in
      f (base + popcount_word (b - 1));
      w := !w lxor b
    done
  done

let fold f (s : t) init =
  let acc = ref init in
  for wi = 0 to Array.length s - 1 do
    let base = wi * bits_per_word in
    let w = ref s.(wi) in
    while !w <> 0 do
      let b = !w land - !w in
      acc := f (base + popcount_word (b - 1)) !acc;
      w := !w lxor b
    done
  done;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])
let of_list l = List.fold_left (fun s i -> add i s) empty l

(* Allocation-free word mixing; normalization makes it equality-compatible. *)
let hash (s : t) =
  let h = ref 0 in
  for i = 0 to Array.length s - 1 do
    h := (!h * 31) + s.(i)
  done;
  !h land max_int

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    (elements s)

(* Typed wrappers over class ids. *)

let class_mem (c : Skipflow_ir.Ids.Class.t) s = mem (Skipflow_ir.Ids.Class.to_int c) s
let class_add c s = add (Skipflow_ir.Ids.Class.to_int c) s
let class_singleton c = singleton (Skipflow_ir.Ids.Class.to_int c)
let of_classes l = List.fold_left (fun s c -> class_add c s) empty l
let classes s = List.map Skipflow_ir.Ids.Class.of_int (elements s)
let iter_classes f s = iter (fun i -> f (Skipflow_ir.Ids.Class.of_int i)) s

(** The [null] member (bit 0, the reserved null class id). *)
let null_bit = singleton 0

let has_null s = mem 0 s
