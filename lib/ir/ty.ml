(** Static types of the base language and of the MiniJava surface language.

    The analysis itself (per the paper, Section 5 "Boolean Values") does not
    distinguish booleans from integers: booleans are lowered to the integers
    0/1 before the analysis runs.  [Bool] therefore only appears in surface
    programs; lowering replaces it with [Int].  [Null] is the type of the
    [null] literal during type checking and never appears as a declared
    type. *)

type t =
  | Int  (** primitive integer (also carries lowered booleans) *)
  | Bool  (** surface-only boolean; lowered to {!Int} *)
  | Void  (** method return type only *)
  | Null  (** type of the [null] literal; subtype of every object type *)
  | Obj of Ids.Class.t  (** reference to an instance of a class *)

let equal a b =
  match (a, b) with
  | Int, Int | Bool, Bool | Void, Void | Null, Null -> true
  | Obj c1, Obj c2 -> Ids.Class.equal c1 c2
  | (Int | Bool | Void | Null | Obj _), _ -> false

let is_object = function Obj _ | Null -> true | Int | Bool | Void -> false

(** [lower t] is the base-language type corresponding to surface type [t]:
    booleans become integers, everything else is unchanged. *)
let lower = function Bool -> Int | (Int | Void | Null | Obj _) as t -> t

let pp ~class_name ppf = function
  | Int -> Format.pp_print_string ppf "int"
  | Bool -> Format.pp_print_string ppf "boolean"
  | Void -> Format.pp_print_string ppf "void"
  | Null -> Format.pp_print_string ppf "null"
  | Obj c -> Format.pp_print_string ppf (class_name c)

let to_string ~class_name t = Format.asprintf "%a" (pp ~class_name) t
