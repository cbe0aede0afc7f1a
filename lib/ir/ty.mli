(** Static types of the base language and the MiniJava surface language.
    [Bool] is surface-only (booleans lower to 0/1 integers per the paper's
    Section 5); [Null] is the type of the [null] literal. *)

type t =
  | Int
  | Bool  (** surface-only; lowered to {!Int} *)
  | Void
  | Null  (** type of the [null] literal; assignable to every object type *)
  | Obj of Ids.Class.t

val equal : t -> t -> bool
val is_object : t -> bool

val lower : t -> t
(** Base-language type of a surface type: [Bool] becomes [Int]. *)

val pp : class_name:(Ids.Class.t -> string) -> Format.formatter -> t -> unit
val to_string : class_name:(Ids.Class.t -> string) -> t -> string
