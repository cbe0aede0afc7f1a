(** The whole-program model: classes, fields, methods, and the class-
    hierarchy queries the analysis needs — O(1) subtyping via DFS
    intervals, JVM-style virtual-method resolution ([Resolve] of
    Appendix C), and field lookup ([LookUp]).

    A program is built incrementally by a frontend or generator, then
    frozen on first query; declaring new entities invalidates the frozen
    caches.  The distinguished [null] "type" always has class id 0 and
    participates in value states but not in the hierarchy. *)

open Ids

type field = {
  f_id : Field.t;
  f_name : string;
  f_class : Class.t;  (** declaring class *)
  f_ty : Ty.t;
  f_static : bool;
}

type meth = {
  m_id : Meth.t;
  m_name : string;
  m_class : Class.t;  (** declaring class *)
  m_static : bool;
  m_param_tys : Ty.t list;  (** declared parameter types, receiver excluded *)
  m_ret_ty : Ty.t;
  mutable m_body : Bl.body option;
  m_span : Span.t option;  (** source position of the declaration *)
}

type cls = {
  c_id : Class.t;
  c_name : string;
  c_super : Class.t option;
  c_abstract : bool;
  mutable c_fields : field list;  (** declared fields, declaration order *)
  mutable c_methods : meth list;  (** declared methods, declaration order *)
}

type frozen
type t

val create : unit -> t
(** A fresh program containing only the reserved [null] class (id 0). *)

val null_class : Class.t
val is_null_class : Class.t -> bool

exception Duplicate of string

(** {2 Declarations} *)

val declare_class : t -> name:string -> ?super:Class.t -> ?abstract:bool -> unit -> cls
(** @raise Duplicate if the name is taken. *)

val declare_field : t -> cls -> name:string -> ty:Ty.t -> ?static:bool -> unit -> field
val declare_meth :
  t ->
  cls ->
  ?span:Span.t ->
  name:string ->
  static:bool ->
  param_tys:Ty.t list ->
  ret_ty:Ty.t ->
  unit ->
  meth

val set_body : meth -> Bl.body -> unit

(** {2 Array classes} *)

val elem_field_name : string
(** The name of the element pseudo-field every array class declares. *)

val array_class : t -> Ty.t -> cls
(** The class modelling arrays of the given element type (["T[]"]),
    created on first use with covariant placement in the hierarchy and its
    own [$elem] field — one element flow per array type.  Must be called
    before {!freeze} (the frontend registers every mentioned array type). *)

val array_elem_ty : t -> Class.t -> Ty.t option
(** Element type of an array class; [None] for ordinary classes. *)

val is_array_class : t -> Class.t -> bool
val elem_field_of : t -> cls -> field

(** {2 Queries} (freeze the program on first use) *)

val freeze : t -> frozen
val num_classes : t -> int
val num_meths : t -> int
val cls : t -> Class.t -> cls
val meth : t -> Meth.t -> meth
val field : t -> Field.t -> field
val find_class : t -> string -> cls option
val find_meth : t -> cls -> string -> meth option
val class_name : t -> Class.t -> string
val meth_name : t -> Meth.t -> string

val qualified_name : t -> Meth.t -> string
(** ["Class.method"], as used in reports and tests. *)

val qualified_field_name : t -> Field.t -> string

val subtype : t -> sub:Class.t -> sup:Class.t -> bool
(** Reflexive subtyping between proper classes.  [null] is handled by
    callers: assignable to any object type, fails [instanceof]. *)

val all_subtypes : t -> Class.t -> Class.t list
(** Including the class itself, DFS order. *)

val concrete_subtypes : t -> Class.t -> Class.t list
(** The instantiable ones only. *)

val resolve : t -> recv_cls:Class.t -> target:Meth.t -> meth option
(** [Resolve(t, m)] of Appendix C: the implementation selected for a
    receiver of dynamic type [recv_cls].  [None] for the null class or
    when no implementation exists. *)

val resolve_by_name : t -> recv_cls:Class.t -> name:string -> meth option
val lookup_field : t -> recv_cls:Class.t -> field:Field.t -> field option
(** [LookUp(t, x)] of Appendix C. *)

val lookup_field_by_name : t -> recv_cls:Class.t -> name:string -> field option
val iter_classes : t -> (cls -> unit) -> unit
val iter_meths : t -> (meth -> unit) -> unit

val pp_ty : t -> Format.formatter -> Ty.t -> unit
