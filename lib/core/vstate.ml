(** Value states: the combined lattice [𝕃] of Appendix B.2 (Figure 11).

    A value state is either empty (⊥), a single primitive constant, a
    non-empty set of types (with [null] as a special type member), or the
    global top [Any].  Primitive constants are conceptually 1-element sets,
    so all value states can be treated uniformly as sets; [{Any}] is the top
    element sitting above both all primitive constants and all type sets.

    This module also implements the [Compare] auxiliary function of
    Appendix C, used by the filtering flows created for branch conditions,
    and the [instanceof] / declared-type filters.  All operations are
    monotone in every argument, which (with the finite height of [𝕃])
    guarantees termination of the fixed-point computation. *)

type t =
  | Empty
  | Prim of Prim.t
      (** primitive content; invariant: the payload is proper — never
          {!Prim.bot} (that is [Empty]) and never {!Prim.top} (that is
          [Any]).  Under [--pval flat] every payload is a singleton
          constant, reproducing the paper's [Const of int] exactly. *)
  | Types of Typeset.t  (** invariant: the set is non-empty *)
  | Any  (** ⊤ = [{Any}] *)

let empty = Empty
let any = Any

(* Always the fully-reduced singleton, independent of the pval mode, so
   [leq (const n) s] is the membership test under either lattice.  The
   boxes of {!Prim.interned} constants are preallocated and shared. *)
let const = Prim.interning (fun n -> Prim (Prim.const n))
let null = Types Typeset.null_bit

(* Re-establish the properness invariant after a [Prim] operation. *)
let of_prim p =
  if Prim.is_bot p then Empty else if Prim.is_top p then Any else Prim p

let types ts = if Typeset.is_empty ts then Empty else Types ts
let of_class c = Types (Typeset.class_singleton c)
let is_empty = function Empty -> true | Prim _ | Types _ | Any -> false

let equal a b =
  match (a, b) with
  | Empty, Empty | Any, Any -> true
  | Prim x, Prim y -> Prim.equal x y
  | Types x, Types y -> Typeset.equal x y
  | (Empty | Prim _ | Types _ | Any), _ -> false

(* The primitive join is the one mode-dependent lattice point: flat
   tops out on distinct constants (paper, Figure 6); product joins in
   the reduced domain.  On singleton payloads both agree, so flat runs
   are bit-for-bit the pre-product behaviour. *)
let join_prim ~pval a b x y =
  match (pval : Pval.mode) with
  | Flat -> if Prim.equal x y then a else Any
  | Product ->
      let j = Prim.join x y in
      if j == x then a
      else if j == y then b
      else if Prim.is_top j then Any
      else Prim j

let join ~pval a b =
  match (a, b) with
  | Empty, x | x, Empty -> x
  | Any, _ | _, Any -> Any
  | Prim x, Prim y -> join_prim ~pval a b x y
  | Types x, Types y ->
      (* [Typeset.union] returns an argument physically when it already is
         the result; reuse the existing box then (the engine joins are
         mostly no-ops near the fixed point) *)
      let u = Typeset.union x y in
      if u == x then a else if u == y then b else Types u
  | Prim _, Types _ | Types _, Prim _ ->
      (* Mixing primitives and objects cannot happen in a well-typed
         program; the lattice join is the common top. *)
      Any

let leq a b =
  match (a, b) with
  | Empty, _ -> true
  | _, Any -> true
  | Prim x, Prim y -> Prim.leq x y
  | Types x, Types y -> Typeset.subset x y
  | (Prim _ | Types _ | Any), _ -> false

let type_set = function
  | Types ts -> ts
  | Empty | Prim _ | Any -> Typeset.empty

let pp ppf = function
  | Empty -> Format.pp_print_string ppf "{}"
  | Prim p -> (
      match Prim.as_const p with
      | Some n -> Format.fprintf ppf "{%d}" n
      | None -> Format.fprintf ppf "{%a}" Prim.pp p)
  | Types ts -> Typeset.pp ppf ts
  | Any -> Format.pp_print_string ppf "{Any}"

let pp_named ~class_name ppf = function
  | Types ts ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (fun ppf i ->
             Format.pp_print_string ppf (class_name (Skipflow_ir.Ids.Class.of_int i))))
        (Typeset.elements ts)
  | v -> pp ppf v

(* ------------------------------------------------------------------ *)
(* Filters                                                             *)
(* ------------------------------------------------------------------ *)

(** [filter_instanceof ~mask ~negated v] is the [TypeCheck] rule of
    Appendix C.  [mask] must be the set of subtypes of the checked class
    (excluding [null]).  The positive check keeps subtypes only ([null]
    fails [instanceof]); the negated check keeps everything else including
    [null].  Primitive states pass unchanged (an [instanceof] on a
    primitive is ill-typed; passing it through is sound). *)
let filter_instanceof ~(mask : Typeset.t) ~negated v =
  match v with
  | Types ts ->
      let ts' = if negated then Typeset.diff ts mask else Typeset.inter ts mask in
      if ts' == ts then v else types ts'
  | Empty -> Empty
  | Prim _ | Any -> v

(** [filter_declared ~mask_with_null v] restricts an object state to the
    subtypes of a declared type (plus [null]); used by formal-parameter
    flows.  Primitive states pass unchanged. *)
let filter_declared ~(mask_with_null : Typeset.t) v =
  match v with
  | Types ts ->
      let ts' = Typeset.inter ts mask_with_null in
      if ts' == ts then v else types ts'
  | Empty -> Empty
  | Prim _ | Any -> v

(** Comparison operators appearing in filtering flows.  Branch conditions
    are normalized to [==] and [<] (Appendix B.1); the negated ([inv]) and
    mirrored ([flip]) variants below arise during PVPG construction. *)
type cmp_op = Eq | Ne | Lt | Ge | Gt | Le

(** [inv op] is the operator for the [else] branch (logical negation). *)
let inv = function Eq -> Ne | Ne -> Eq | Lt -> Ge | Ge -> Lt | Gt -> Le | Le -> Gt

(** [flip op] mirrors the operands: filtering [y] with respect to [x < y]
    uses [flip (<) = (>)], i.e. keeps values of [y] greater than [x]
    (Appendix B.4). *)
let flip = function Eq -> Eq | Ne -> Ne | Lt -> Gt | Gt -> Lt | Le -> Ge | Ge -> Le

let pp_cmp_op ppf op =
  Format.pp_print_string ppf
    (match op with Eq -> "==" | Ne -> "!=" | Lt -> "<" | Ge -> ">=" | Gt -> ">" | Le -> "<=")

let int_cmp op x y =
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Ge -> x >= y
  | Gt -> x > y
  | Le -> x <= y

let rel_of = function
  | Lt -> Prim.Lt
  | Le -> Prim.Le
  | Gt -> Prim.Gt
  | Ge -> Prim.Ge
  | Eq | Ne -> assert false

(** [compare_filter ~pval op vl vr] is the [Compare] function of Appendix
    C: the content of [vl] filtered with respect to [op] and [vr].

    - either operand empty → empty (both operands are needed);
    - [==] with [Any] on either side → the lower of the two states;
    - [==] otherwise → intersection: type-set intersection on objects,
      {!Prim.meet} on primitives (on flat singletons that is exactly
      keep-or-empty; null checks keep [{null}]);
    - [!=] → difference where representable: a singleton right operand
      kills / endpoint-trims the left ([Any] passes [vl] through);
    - relational operators are defined on primitives only: two constants
      keep [vl] iff the relation holds; ranges narrow via {!Prim.narrow}.
      [Any] on the left narrows to the implied range only under
      [--pval product] — the single mode-gated case, which is why flat
      runs reproduce the paper's all-or-nothing filtering bit for bit.

    Ill-typed mixtures (a constant compared with a type set) conservatively
    return [vl]. *)
let compare_filter ~pval op vl vr =
  if is_empty vl || is_empty vr then Empty
  else
    match op with
    | Eq -> (
        match (vl, vr) with
        | Any, v | v, Any -> v
        | Prim x, Prim y ->
            let m = Prim.meet x y in
            if m == x then vl else if m == y then vr else of_prim m
        | Types x, Types y ->
            let i = Typeset.inter x y in
            if i == x then vl else if i == y then vr else types i
        | _ -> vl)
    | Ne -> (
        match (vl, vr) with
        | Any, _ -> Any
        | _, Any -> vl
        | Prim x, Prim y -> (
            match Prim.as_const y with
            | Some n ->
                let r = Prim.remove_const x n in
                if r == x then vl else of_prim r
            | None -> vl)
        | Types x, Types y ->
            (* The paper defines '≠' as plain set difference.  On type sets
               that is only sound when the right operand denotes a single
               runtime *value*: two distinct objects of the same type are
               still '≠'.  The only type that is a singleton value is
               [null], which is also the case that matters in practice
               (null checks), so we apply the difference exactly then and
               pass the state through otherwise.  The test-suite checks
               this against the concrete interpreter. *)
            if Typeset.equal y Typeset.null_bit then
              let d = Typeset.diff x y in
              if d == x then vl else types d
            else vl
        | _ -> vl)
    | Lt | Ge | Gt | Le -> (
        match (vl, vr) with
        | Prim x, Prim y -> (
            match (Prim.as_const x, Prim.as_const y) with
            | Some a, Some b -> if int_cmp op a b then vl else Empty
            | _ ->
                (* a non-singleton payload only exists under product *)
                let r = Prim.narrow (rel_of op) x y in
                if r == x then vl else of_prim r)
        | Any, Prim y when Pval.equal_mode pval Pval.Product ->
            of_prim (Prim.narrow (rel_of op) Prim.top y)
        | Any, _ | _, Any -> vl
        | _ -> vl)

(** Forward arithmetic transfer for the product lattice's [Arith] flows:
    interval transfer on primitive operands ({!Prim.arith}), [Empty] when
    either operand has no value yet, conservative [Any] otherwise.  Only
    built under [--pval product]. *)
let arith op a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Prim x, Prim y -> of_prim (Prim.arith op x y)
  | (Prim _ | Types _ | Any), _ -> Any
