(** The whole-program model: classes, fields, methods, and the class
    hierarchy queries the analysis needs ([subtype], virtual-method
    [resolve], field [lookup] — the partial functions [Resolve] and [LookUp]
    of Appendix C).

    A program is built incrementally (by the frontend or by workload
    generators) and then {!freeze}n, which assigns DFS pre/post intervals
    for O(1) subtype tests and precomputes per-class virtual-method and
    field tables.

    The distinguished class [null] always has id 0 (paper, Section 3: "Null
    references are handled as a special type that can be part of any value
    state").  It takes part in value states but not in the hierarchy. *)

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

module StrTbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type frozen = {
  z_classes : cls array;  (** indexed by class id *)
  z_meths : meth array;  (** indexed by method id *)
  z_fields : field array;  (** indexed by field id *)
  z_pre : int array;  (** DFS preorder number per class *)
  z_post : int array;  (** DFS postorder bound per class *)
  z_children : Class.t list array;
  z_vtable : meth StrTbl.t array;
      (** per class: method name -> most specific implementation *)
  z_ftable : field StrTbl.t array;
      (** per class: field name -> declared field (possibly inherited) *)
}

type t = {
  mutable p_classes : cls list;  (** reverse declaration order *)
  mutable p_meths : meth list;
  mutable p_fields : field list;
  class_gen : Class.Gen.t;
  meth_gen : Meth.Gen.t;
  field_gen : Field.Gen.t;
  by_name : cls StrTbl.t;
  arr_elem : Ty.t Class.Tbl.t;
      (** array classes registered by {!array_class}, mapped to their
          element type *)
  mutable frozen : frozen option;
}

let null_class_name = "null"

let create () =
  let p =
    {
      p_classes = [];
      p_meths = [];
      p_fields = [];
      class_gen = Class.Gen.create ();
      meth_gen = Meth.Gen.create ();
      field_gen = Field.Gen.create ();
      by_name = StrTbl.create 64;
      arr_elem = Class.Tbl.create 16;
      frozen = None;
    }
  in
  (* Reserve id 0 for the special null "type". *)
  let null_cls =
    {
      c_id = Class.Gen.fresh p.class_gen;
      c_name = null_class_name;
      c_super = None;
      c_abstract = true;
      c_fields = [];
      c_methods = [];
    }
  in
  assert (Class.to_int null_cls.c_id = 0);
  p.p_classes <- [ null_cls ];
  StrTbl.replace p.by_name null_cls.c_name null_cls;
  p

let null_class : Class.t = Class.of_int 0
let is_null_class c = Class.to_int c = 0

exception Duplicate of string

let invalidate p = p.frozen <- None

(** [declare_class p ~name ~super ~abstract] adds a fresh class.
    @raise Duplicate if [name] is already declared. *)
let declare_class p ~name ?super ?(abstract = false) () =
  if StrTbl.mem p.by_name name then
    raise (Duplicate (Printf.sprintf "class %s declared twice" name));
  invalidate p;
  let c =
    {
      c_id = Class.Gen.fresh p.class_gen;
      c_name = name;
      c_super = super;
      c_abstract = abstract;
      c_fields = [];
      c_methods = [];
    }
  in
  p.p_classes <- c :: p.p_classes;
  StrTbl.replace p.by_name name c;
  c

let declare_field p (c : cls) ~name ~ty ?(static = false) () =
  if List.exists (fun f -> String.equal f.f_name name) c.c_fields then
    raise (Duplicate (Printf.sprintf "field %s.%s declared twice" c.c_name name));
  invalidate p;
  let f =
    {
      f_id = Field.Gen.fresh p.field_gen;
      f_name = name;
      f_class = c.c_id;
      f_ty = ty;
      f_static = static;
    }
  in
  c.c_fields <- c.c_fields @ [ f ];
  p.p_fields <- f :: p.p_fields;
  f

let declare_meth p (c : cls) ?span ~name ~static ~param_tys ~ret_ty () =
  if List.exists (fun m -> String.equal m.m_name name) c.c_methods then
    raise (Duplicate (Printf.sprintf "method %s.%s declared twice" c.c_name name));
  invalidate p;
  let m =
    {
      m_id = Meth.Gen.fresh p.meth_gen;
      m_name = name;
      m_class = c.c_id;
      m_static = static;
      m_param_tys = param_tys;
      m_ret_ty = ret_ty;
      m_body = None;
      m_span = span;
    }
  in
  c.c_methods <- c.c_methods @ [ m ];
  p.p_meths <- m :: p.p_meths;
  m

let set_body (m : meth) body = m.m_body <- Some body

(* ------------------------------------------------------------------ *)
(* Array classes                                                       *)
(* ------------------------------------------------------------------ *)

let elem_field_name = "$elem"

let ty_base_name = function
  | Ty.Int -> "int"
  | Ty.Bool -> "boolean"
  | Ty.Void -> "void"
  | Ty.Null -> "null"
  | Ty.Obj _ -> assert false (* resolved by the caller, needs the name *)

(** [array_class p elem_ty] returns (creating on first use) the class that
    models arrays with element type [elem_ty].

    Array types are ordinary classes named ["T[]"], arranged covariantly:
    [Foo\[\]] extends [Bar\[\]] whenever [Foo] extends [Bar], which mirrors
    Java's array subtyping onto the single-inheritance machinery.  Every
    array class {e declares its own} element pseudo-field [$elem] (of the
    element type), so [LookUp] resolves an array access on a receiver set
    [{Foo\[\]}] to [Foo\[\]]'s own element flow even through a [Bar\[\]]
    reference — one element flow per array type, the abstraction GraalVM's
    typeflow analysis uses.

    Array classes must be registered before {!freeze} (the frontend creates
    them for every array type the program mentions). *)
let rec array_class p (elem_ty : Ty.t) : cls =
  let name =
    (match elem_ty with
    | Ty.Obj c -> (
        match List.find_opt (fun cl -> Class.equal cl.c_id c) p.p_classes with
        | Some cl -> cl.c_name
        | None -> invalid_arg "Program.array_class: unknown element class")
    | t -> ty_base_name t)
    ^ "[]"
  in
  match StrTbl.find_opt p.by_name name with
  | Some c -> c
  | None ->
      let super =
        match elem_ty with
        | Ty.Obj c -> (
            let ecls = List.find (fun cl -> Class.equal cl.c_id c) p.p_classes in
            match ecls.c_super with
            | Some s -> Some (array_class p (Ty.Obj s)).c_id
            | None -> None)
        | _ -> None
      in
      let c = declare_class p ~name ?super () in
      ignore (declare_field p c ~name:elem_field_name ~ty:elem_ty ());
      Class.Tbl.replace p.arr_elem c.c_id elem_ty;
      c

(** Element type of an array class, [None] for ordinary classes. *)
let array_elem_ty p (c : Class.t) = Class.Tbl.find_opt p.arr_elem c

let is_array_class p (c : Class.t) = Class.Tbl.mem p.arr_elem c

(** The [$elem] pseudo-field declared by an array class. *)
let elem_field_of _p (c : cls) =
  List.find (fun f -> String.equal f.f_name elem_field_name) c.c_fields

(* ------------------------------------------------------------------ *)
(* Freezing and hierarchy queries                                      *)
(* ------------------------------------------------------------------ *)

let freeze p =
  match p.frozen with
  | Some z -> z
  | None ->
      let classes = Array.of_list (List.rev p.p_classes) in
      let n = Array.length classes in
      Array.iteri (fun i c -> assert (Class.to_int c.c_id = i)) classes;
      let meths = Array.of_list (List.rev p.p_meths) in
      Array.iteri (fun i m -> assert (Meth.to_int m.m_id = i)) meths;
      let fields = Array.of_list (List.rev p.p_fields) in
      Array.iteri (fun i f -> assert (Field.to_int f.f_id = i)) fields;
      let children = Array.make n [] in
      Array.iter
        (fun c ->
          match c.c_super with
          | Some s ->
              let si = Class.to_int s in
              children.(si) <- c.c_id :: children.(si)
          | None -> ())
        classes;
      (* keep children in declaration order for determinism *)
      Array.iteri (fun i l -> children.(i) <- List.rev l) children;
      let pre = Array.make n 0 and post = Array.make n 0 in
      let counter = ref 0 in
      let rec dfs (c : Class.t) =
        let i = Class.to_int c in
        incr counter;
        pre.(i) <- !counter;
        List.iter dfs children.(i);
        post.(i) <- !counter
      in
      Array.iter (fun c -> if c.c_super = None then dfs c.c_id) classes;
      let vtable = Array.make n (StrTbl.create 0) in
      let ftable = Array.make n (StrTbl.create 0) in
      let rec fill (c : Class.t) ~(vt : meth StrTbl.t) ~(ft : field StrTbl.t) =
        let i = Class.to_int c in
        let cls = classes.(i) in
        let vt = StrTbl.copy vt and ft = StrTbl.copy ft in
        List.iter (fun m -> if not m.m_static then StrTbl.replace vt m.m_name m) cls.c_methods;
        List.iter (fun f -> StrTbl.replace ft f.f_name f) cls.c_fields;
        vtable.(i) <- vt;
        ftable.(i) <- ft;
        List.iter (fun ch -> fill ch ~vt ~ft) children.(i)
      in
      Array.iter
        (fun c ->
          if c.c_super = None then
            fill c.c_id ~vt:(StrTbl.create 8) ~ft:(StrTbl.create 8))
        classes;
      let z =
        {
          z_classes = classes;
          z_meths = meths;
          z_fields = fields;
          z_pre = pre;
          z_post = post;
          z_children = children;
          z_vtable = vtable;
          z_ftable = ftable;
        }
      in
      p.frozen <- Some z;
      z

let num_classes p = Class.Gen.count p.class_gen
let num_meths p = Meth.Gen.count p.meth_gen
let cls p (c : Class.t) = (freeze p).z_classes.(Class.to_int c)
let meth p (m : Meth.t) = (freeze p).z_meths.(Meth.to_int m)
let field p (f : Field.t) = (freeze p).z_fields.(Field.to_int f)
let find_class p name = StrTbl.find_opt p.by_name name

let find_meth _p (c : cls) name =
  List.find_opt (fun m -> String.equal m.m_name name) c.c_methods

let class_name p c = (cls p c).c_name
let meth_name p m = (meth p m).m_name

(** Qualified ["Class.method"] name, used in reports and tests. *)
let qualified_name p (m : Meth.t) =
  let mi = meth p m in
  class_name p mi.m_class ^ "." ^ mi.m_name

let qualified_field_name p (f : Field.t) =
  let fi = field p f in
  class_name p fi.f_class ^ "." ^ fi.f_name

(** [subtype p ~sub ~sup] tests [sub <: sup] between proper classes
    (reflexive).  The null class is handled by callers explicitly: it is
    assignable to any object type but fails [instanceof]. *)
let subtype p ~sub ~sup =
  let z = freeze p in
  let a = Class.to_int sub and b = Class.to_int sup in
  z.z_pre.(b) <= z.z_pre.(a) && z.z_post.(a) <= z.z_post.(b)

(** All subtypes of [c] (including [c] itself), in DFS order. *)
let all_subtypes p (c : Class.t) =
  let z = freeze p in
  let rec go c acc =
    let acc = c :: acc in
    List.fold_left (fun acc ch -> go ch acc) acc z.z_children.(Class.to_int c)
  in
  List.rev (go c [])

(** Non-abstract subtypes of [c] (including [c] itself when concrete):
    the set of types that can actually be instantiated with declared type
    [c]. *)
let concrete_subtypes p (c : Class.t) =
  List.filter (fun c -> not (cls p c).c_abstract) (all_subtypes p c)

(** [resolve p ~recv_cls ~target] is [Resolve(t, m)] of Appendix C: the
    implementation of [target] selected for a receiver of dynamic type
    [recv_cls], found by walking the class hierarchy upwards from
    [recv_cls].  Returns [None] for the null class or when no
    implementation exists (ill-typed call or abstract method with no
    override on this path). *)
let resolve p ~(recv_cls : Class.t) ~(target : Meth.t) =
  if is_null_class recv_cls then None
  else
    let z = freeze p in
    let name = (meth p target).m_name in
    StrTbl.find_opt z.z_vtable.(Class.to_int recv_cls) name

(** [resolve_by_name p ~recv_cls ~name] finds the most specific
    implementation of the virtual method [name] visible from [recv_cls]
    (used by the type checker, which has a name rather than a method id). *)
let resolve_by_name p ~(recv_cls : Class.t) ~name =
  if is_null_class recv_cls then None
  else StrTbl.find_opt (freeze p).z_vtable.(Class.to_int recv_cls) name

(** [lookup_field_by_name p ~recv_cls ~name] finds the declared field
    reached by name from [recv_cls], walking up the hierarchy. *)
let lookup_field_by_name p ~(recv_cls : Class.t) ~name =
  if is_null_class recv_cls then None
  else StrTbl.find_opt (freeze p).z_ftable.(Class.to_int recv_cls) name

(** [lookup_field p ~recv_cls ~field] is [LookUp(t, x)] of Appendix C:
    the declared field reached by name [x] from class [recv_cls].  With
    single inheritance and no shadowing this is the field's declaration
    itself whenever [recv_cls <: field.f_class]. *)
let lookup_field p ~(recv_cls : Class.t) ~(field : Field.t) =
  if is_null_class recv_cls then None
  else
    let z = freeze p in
    let name = (freeze p).z_fields.(Field.to_int field).f_name in
    StrTbl.find_opt z.z_ftable.(Class.to_int recv_cls) name

let iter_classes p f = Array.iter f (freeze p).z_classes
let iter_meths p f = Array.iter f (freeze p).z_meths

let pp_ty p ppf t = Ty.pp ~class_name:(class_name p) ppf t
