(** Incremental re-analysis: classify each mutation into the cheapest
    strategy whose result is provably the from-scratch fixed point, and
    fall back to a full solve whenever the incremental state is suspect.
    See the interface for the correctness argument per strategy. *)

open Skipflow_ir
module C = Skipflow_core
module Api = Skipflow_api

type state = {
  source : string;
  roots : string list;
  engine : C.Engine.t;
  snapshot : string;
  metrics : C.Metrics.t;
  reachable : string list;
  meth_hashes : (string * string) list;
  hier_hash : string;
  generation : int;
}

type strategy =
  | Resident
  | Memo
  | Reuse
  | Redrain of int
  | Full of string

let strategy_name = function
  | Resident -> "resident"
  | Memo -> "memo"
  | Reuse -> "reuse"
  | Redrain _ -> "redrain"
  | Full _ -> "full"

let strategy_reason = function Full reason -> Some reason | _ -> None

(* ---------------------------- fingerprints ---------------------------- *)

(* Both fingerprints digest a binary walk over the IR, appended to one
   buffer.  Ints are LEB128 varints ([lsr] shifts zeros in, so a negative
   constant ends after nine bytes); strings and lists carry their length
   and variants a tag, so distinct IR never writes equal bytes.
   Cross-references — classes, methods, fields — are written by name and
   locals and blocks by their per-body ids, so a method's bytes are
   stable across recompiles of an edited source. *)
let rec add_int b n =
  if n land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    Buffer.add_char b (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_int b (n lsr 7)
  end

let add_bool b x = add_int b (Bool.to_int x)
let add_str b s = add_int b (String.length s); Buffer.add_string b s
let add_list b f l = add_int b (List.length l); List.iter f l
let add_opt b f = function None -> add_int b 0 | Some x -> add_int b 1; f x
let add_class prog b c = add_str b (Program.class_name prog c)

(* a method or field as [Class.name] *)
let add_member prog b c name = add_class prog b c; add_str b name

let add_ty prog b : Ty.t -> unit = function
  | Int -> add_int b 0
  | Bool -> add_int b 1
  | Void -> add_int b 2
  | Null -> add_int b 3
  | Obj c -> add_int b 4; add_class prog b c

let add_span b = add_opt b (fun (s : Span.t) -> add_int b s.line; add_int b s.col)

let add_body prog b (body : Bl.body) =
  let num = add_int b and cls = add_class prog b in
  let var v = num (Ids.Var.to_int v) and blk l = num (Ids.Block.to_int l) in
  let meth m =
    let mi = Program.meth prog m in
    add_member prog b mi.m_class mi.m_name
  in
  let field f =
    let fi = Program.field prog f in
    add_member prog b fi.f_class fi.f_name
  in
  let expr : Bl.expr -> unit = function
    | Const n -> num 0; num n
    | Null -> num 1
    | New c -> num 2; cls c
    | NewArr (c, n) -> num 3; cls c; var n
    | Arith (op, x, y) ->
        num 4;
        num (match op with Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Rem -> 4);
        var x; var y
    | AnyInt -> num 5
  in
  let insn : Bl.insn -> unit = function
    | Assign (v, e) -> num 0; var v; expr e
    | Load { dst; recv; field = f } -> num 1; var dst; var recv; field f
    | Store { recv; field = f; src } -> num 2; var recv; field f; var src
    | LoadStatic { dst; field = f } -> num 3; var dst; field f
    | StoreStatic { field = f; src } -> num 4; field f; var src
    | ArrLoad { dst; arr; idx; elem } -> num 5; var dst; var arr; var idx; field elem
    | ArrStore { arr; idx; src; elem } -> num 6; var arr; var idx; var src; field elem
    | ArrLen { dst; arr } -> num 7; var dst; var arr
    | Cast { dst; src; cls = c } -> num 8; var dst; var src; cls c
    | Invoke { dst; recv; target; args; virtual_ } ->
        num 9; var dst; add_opt b var recv; meth target; add_list b var args;
        add_bool b virtual_
  in
  let term : Bl.terminator -> unit = function
    | Jump l -> num 0; blk l
    | If { cond; then_; else_ } ->
        (match cond with
        | Cmp (op, x, y) -> num (match op with `Eq -> 1 | `Lt -> 2); var x; var y
        | InstanceOf (v, c) -> num 3; var v; cls c);
        blk then_; blk else_
    | Return v -> num 4; add_opt b var v
    | Throw v -> num 5; var v
  in
  let block (k : Bl.block) =
    blk k.b_id;
    num (match k.b_kind with Entry -> 0 | Label -> 1 | Merge -> 2);
    add_list b blk k.b_preds;
    add_list b
      (fun (p : Bl.phi) ->
        var p.phi_var;
        add_list b (fun (l, v) -> blk l; var v) p.phi_args)
      k.b_phis;
    add_list b insn k.b_insns;
    add_list b (add_span b) k.b_spans;
    add_opt b term k.b_term;
    add_span b k.b_term_span;
    add_bool b k.b_term_swapped;
    add_bool b k.b_term_synthetic
  in
  add_list b var body.params;
  blk body.entry;
  num body.var_count;
  num (Array.length body.var_tys);
  Array.iter (add_ty prog b) body.var_tys;
  num (Array.length body.blocks);
  Array.iter block body.blocks

let meth_fingerprints (prog : Program.t) =
  let b = Buffer.create 4096 in
  let acc = ref [] in
  Program.iter_meths prog (fun (m : Program.meth) ->
      Buffer.clear b;
      add_member prog b m.m_class m.m_name;
      add_bool b m.m_static;
      add_list b (add_ty prog b) m.m_param_tys;
      add_ty prog b m.m_ret_ty;
      add_span b m.m_span;
      add_opt b (add_body prog b) m.m_body;
      let digest = Digest.to_hex (Digest.string (Buffer.contents b)) in
      acc := (Program.qualified_name prog m.m_id, digest) :: !acc);
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let hierarchy_fingerprint (prog : Program.t) =
  let b = Buffer.create 1024 in
  (* declaration order, deliberately: equal fingerprints then guarantee
     equal id assignment between the two compiles, which the reuse path
     relies on when it rebinds the resident engine to a newer program *)
  Program.iter_classes prog (fun (c : Program.cls) ->
      add_str b c.c_name;
      add_opt b (add_class prog b) c.c_super;
      add_bool b c.c_abstract;
      add_list b
        (fun (f : Program.field) ->
          add_str b f.f_name; add_ty prog b f.f_ty; add_bool b f.f_static)
        c.c_fields;
      add_list b
        (fun (m : Program.meth) ->
          add_str b m.m_name;
          add_bool b m.m_static;
          add_list b (add_ty prog b) m.m_param_tys;
          add_ty prog b m.m_ret_ty;
          add_bool b (Option.is_some m.m_body))
        c.c_methods);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The names in [fresh] whose hash differs from, or is missing in,
   [old], in one merge: both lists are sorted by name. *)
let rec changed_names fresh old =
  match (fresh, old) with
  | [], _ -> []
  | (n, _) :: rest, [] -> n :: changed_names rest []
  | (n, h) :: rest, (n', h') :: old_rest ->
      let c = String.compare n n' in
      if c > 0 then changed_names fresh old_rest
      else if c < 0 then n :: changed_names rest old
      else if String.equal h h' then changed_names rest old_rest
      else n :: changed_names rest old_rest

let reachable_names engine =
  let prog = C.Engine.prog_of engine in
  List.map
    (fun (m : Program.meth) -> Program.qualified_name prog m.Program.m_id)
    (C.Engine.reachable_methods engine)

(* ------------------------------ the memo ------------------------------ *)

module Memo = struct
  type t = {
    cap : int;
    mutable items : (string * string) list;
    mutable kept : (string * state) option;
        (* the state the last commit replaced, with its frozen image *)
  }

  let create cap = { cap; items = []; kept = None }
  let entries m = m.items

  (* no LRU refresh: lookups must be side-effect free so that a request
     that ultimately fails leaves the memo byte-identical — journal
     replay skips failed requests, and any memo drift would change
     strategy decisions between an interrupted and a straight session.
     The kept state is no such drift: it is never persisted and decides
     nothing, it only stands in for a thaw of the very same bytes. *)
  let peek m key = List.assoc_opt key m.items

  let add m (key, v) =
    m.items <-
      List.filteri (fun i _ -> i < m.cap) ((key, v) :: List.remove_assoc key m.items)

  let keep m frozen st = m.kept <- Some (frozen, st)

  (* The kept state when the looked-up [entry] is physically its image.
     It is released either way, so no compile, solve or thaw after a
     lookup runs beside it. *)
  let take m entry =
    let kept = m.kept in
    m.kept <- None;
    match (kept, entry) with
    | Some (frozen, st), Some bytes when frozen == bytes -> Some st
    | _ -> None

  (* the memory ceiling's first relief valve: memo entries are pure
     caches, dropping them costs recomputation, never correctness *)
  let clear m =
    m.items <- [];
    m.kept <- None
end

let memo_key ~config ~roots ~source =
  let scope = "serve;roots=" ^ String.concat "," roots in
  C.Cache.key ~config ~scope ~source

(* ----------------------------- persistence ---------------------------- *)

type frozen = {
  fr_source : string;
  fr_roots : string list;
  fr_snapshot : string;
  fr_meth_hashes : (string * string) list;
  fr_hier_hash : string;
}

(* The generation is deliberately not frozen: it orders commits, it is
   not content.  Equal states then freeze to equal bytes, so the serve
   daemon's content-addressed store keeps one blob for them. *)
let freeze st =
  Marshal.to_string
    {
      fr_source = st.source;
      fr_roots = st.roots;
      fr_snapshot = st.snapshot;
      fr_meth_hashes = st.meth_hashes;
      fr_hier_hash = st.hier_hash;
    }
    []

let thaw bytes =
  match (Marshal.from_string bytes 0 : frozen) with
  | exception _ -> Error "cannot decode serve state payload"
  | fr -> (
      match C.Engine.of_snapshot_bytes fr.fr_snapshot with
      | Error message -> Error message
      | Ok engine ->
          Ok
            {
              source = fr.fr_source;
              roots = fr.fr_roots;
              engine;
              snapshot = fr.fr_snapshot;
              metrics = C.Metrics.compute engine;
              reachable = reachable_names engine;
              meth_hashes = fr.fr_meth_hashes;
              hier_hash = fr.fr_hier_hash;
              generation = 0;
            })

(* ----------------------------- operations ----------------------------- *)

type outcome = {
  o_state : state;
  o_strategy : strategy;
  o_verified : bool;
  o_frozen : string Lazy.t;
  o_memo_adds : (string * string) list;
      (* memo writes to apply if (and only if) the caller commits *)
}

let unchanged st =
  {
    o_state = st;
    o_strategy = Resident;
    o_verified = false;
    o_frozen = lazy (freeze st);
    o_memo_adds = [];
  }

(* A new candidate: its own memo entry goes last, and its bytes double as
   the candidate's frozen image, so nothing is marshalled twice. *)
let candidate ?(before = []) ~strategy ~verified ~key st frozen =
  {
    o_state = st;
    o_strategy = strategy;
    o_verified = verified;
    o_frozen = Lazy.from_val frozen;
    o_memo_adds = before @ [ (key, frozen) ];
  }

(* A request's budget: a deadline is a wall-clock cap that pauses the
   solve, so the request rolls back; without one nothing caps it. *)
let request_budget = function
  | None -> C.Budget.unlimited
  | Some ms ->
      C.Budget.make ~max_seconds:(float_of_int ms /. 1000.) ~on_trip:`Pause ()

(* A solve's outcome as the request's: only a deadline pauses. *)
let completed ~deadline_ms outcome =
  match (outcome, deadline_ms) with
  | C.Engine.Completed, _ -> Ok ()
  | C.Engine.Paused _, Some deadline_ms ->
      Error (Protocol.Deadline_exceeded { deadline_ms })
  | C.Engine.Paused _, None ->
      (* unreachable: without a deadline no budget can trip *)
      Error (Protocol.Api_error (Api.Internal_error "paused without deadline"))

let certify engine = C.Verify.run engine = []

let thaw_certified bytes =
  match thaw bytes with
  | Error msg -> Error ("undecodable (" ^ msg ^ ")")
  | Ok st when certify st.engine -> Ok st
  | Ok _ -> Error "failed verification"

(* The memo entry under [key] as the next state: a hit only once it
   thaws and certifies; an entry that does not is suspect.  When the
   entry is the image of the state the last commit replaced, that state
   stands in for the thaw, and only the certifier runs. *)
let memo_lookup ?before ~memo ~key st =
  let entry = Memo.peek memo key in
  let kept = Memo.take memo entry in
  match entry with
  | None -> `Miss
  | Some bytes -> (
      let restored =
        match kept with
        | Some kst when certify kst.engine -> Ok kst
        | Some _ -> Error "failed verification"
        | None -> thaw_certified bytes
      in
      match restored with
      | Error _ -> `Suspect
      | Ok mst ->
          (* re-adding the hit refreshes its LRU position *)
          `Hit
            (candidate ?before ~strategy:Memo ~verified:true ~key
               { mst with generation = st.generation + 1 }
               bytes))

(* The post-compile half of a full solve: [prog] was compiled from
   [source] under [trace], which the solve's phases then join.  A caller
   that has fingerprinted [prog] already passes [meth_hashes]. *)
let solve_program ?meth_hashes ~reason ~config ~deadline_ms ~generation
    ~trace ~source ~roots prog =
  let budget = request_budget deadline_ms in
  match
    Api.protect (fun () ->
        Result.bind (Api.resolve_roots prog roots) (fun root_meths ->
            Api.analyze_program ~config ~budget ~trace prog ~roots:root_meths))
  with
  | Error e -> Error (Protocol.Api_error e)
  | Ok s ->
      Result.map
        (fun () ->
          let st =
            {
              source;
              roots;
              engine = s.Api.engine;
              snapshot = C.Engine.snapshot_bytes s.Api.engine;
              metrics = s.Api.metrics;
              reachable = s.Api.reachable;
              meth_hashes =
                (match meth_hashes with Some h -> h | None -> meth_fingerprints prog);
              hier_hash = hierarchy_fingerprint prog;
              generation = generation + 1;
            }
          in
          candidate ~strategy:(Full reason) ~verified:false
            ~key:(memo_key ~config ~roots ~source)
            st (freeze st))
        (completed ~deadline_ms s.Api.outcome)

let solve_full ?(reason = "cold start") ~config ~deadline_ms ~generation
    ~source ~roots () =
  let trace = C.Trace.create () in
  match Api.compile ~trace (`Text source) with
  | Error e -> Error (Protocol.Api_error e)
  | Ok (prog, _) ->
      solve_program ~reason ~config ~deadline_ms ~generation ~trace
        ~source ~roots prog

(* The one way back from the resident image, for reuse and redrain
   alike: thaw [st.snapshot] (bound to [prog] when given), add the
   [added] roots, drain to the fixed point, certify, and make [st] the
   candidate with the drained engine.  The thaw shares nothing with the
   resident engine, so a deadline trip rolls back by keeping the
   resident state.  With no roots added there is no work to pop, so no
   deadline can trip. *)
let redrain ~deadline_ms ~fallback ~strategy ~key ?before ?prog ~added st =
  match C.Engine.of_snapshot_bytes ?prog st.snapshot with
  | Error _ -> fallback "resident image does not fit"
  | Ok engine -> (
      let thawed = C.Engine.prog_of engine in
      List.iter
        (fun (m : Program.meth) ->
          C.Engine.add_root engine (Program.meth thawed m.Program.m_id))
        added;
      let r = C.Analysis.rerun ~budget:(request_budget deadline_ms) engine in
      match completed ~deadline_ms r.C.Analysis.outcome with
      | Error _ as e -> e
      | Ok () when not (certify engine) ->
          fallback "re-drained image failed verification"
      | Ok () ->
          let st' =
            {
              st with
              engine;
              snapshot = C.Engine.snapshot_bytes engine;
              metrics = r.C.Analysis.metrics;
              reachable = reachable_names engine;
              generation = st.generation + 1;
            }
          in
          Ok (candidate ?before ~strategy ~verified:true ~key st' (freeze st')))

let edit ~config ~deadline_ms ~memo st ~source =
  if String.equal source st.source then Ok (unchanged st)
  else begin
    let key = memo_key ~config ~roots:st.roots ~source in
    (* on commit, memoize the pre-edit state too, so reverting this edit
       is a hit.  Every commit memoizes its own state, so the memo entry
       under the resident's key, when present, is already its freeze. *)
    let pre_add =
      let k = memo_key ~config ~roots:st.roots ~source:st.source in
      (k, match Memo.peek memo k with Some b -> b | None -> freeze st)
    in
    match memo_lookup ~before:[ pre_add ] ~memo ~key st with
    | `Hit o -> Ok o
    | (`Miss | `Suspect) as lookup -> (
        let trace = C.Trace.create () in
        match Api.compile ~trace (`Text source) with
        | Error e -> Error (Protocol.Api_error e)
        | Ok (prog, _) -> (
            let hashes = meth_fingerprints prog in
            (* the source is compiled and fingerprinted already: a
               fallback solves [prog] *)
            let full reason =
              Result.map
                (fun o -> { o with o_memo_adds = pre_add :: o.o_memo_adds })
                (solve_program ~meth_hashes:hashes ~reason ~config
                   ~deadline_ms ~generation:st.generation ~trace ~source
                   ~roots:st.roots prog)
            in
            if lookup = `Suspect then
              full "memo entry failed restoration or verification"
            else if not (String.equal (hierarchy_fingerprint prog) st.hier_hash)
            then full "class hierarchy changed"
            else
              (* equal hierarchy fingerprints imply the same method-name
                 set, so the diff is exactly the hash mismatches *)
              match
                List.filter
                  (fun n -> List.mem n st.reachable)
                  (changed_names hashes st.meth_hashes)
              with
              | [] ->
                  (* every edited body is outside the reachable set: the
                     fixed point is generated only from reachable bodies
                     plus the (unchanged) hierarchy, so the resident
                     image already holds the new program's fixed point.
                     Bound to [prog], it answers later redrains and
                     lints from the edited program. *)
                  redrain ~deadline_ms ~fallback:full ~strategy:Reuse
                    ~key ~before:[ pre_add ] ~prog ~added:[]
                    { st with source; meth_hashes = hashes }
              | name :: _ as touched ->
                  full
                    (Printf.sprintf "%d reachable method(s) changed (%s)"
                       (List.length touched) name)))
  end

let analyze_roots ~config ~deadline_ms ~memo st ~roots =
  match Api.resolve_roots (C.Engine.prog_of st.engine) roots with
  | Error e -> Error (Protocol.Api_error e)
  | Ok meths -> (
      let requested =
        Ids.Meth.Set.of_list (List.map (fun m -> m.Program.m_id) meths)
      in
      let current = C.Engine.roots st.engine in
      if Ids.Meth.Set.equal requested current then Ok (unchanged st)
      else
        let key = memo_key ~config ~roots ~source:st.source in
        match memo_lookup ~memo ~key st with
        | `Hit o -> Ok o
        | `Miss | `Suspect ->
            let full reason =
              solve_full ~reason ~config ~deadline_ms ~generation:st.generation
                ~source:st.source ~roots ()
            in
            if not (Ids.Meth.Set.subset current requested) then
              (* the root set shrank: retraction, which a monotone engine
                 cannot replay — full solve *)
              full "root set shrank or was replaced"
            else
              let added =
                List.filter
                  (fun (m : Program.meth) ->
                    not (Ids.Meth.Set.mem m.Program.m_id current))
                  meths
              in
              redrain ~deadline_ms ~fallback:full
                ~strategy:(Redrain (List.length added)) ~key ~added
                { st with roots })

(* ------------------------ equality certification ---------------------- *)

let same_fixed_point a b =
  let sorted e = List.sort String.compare (reachable_names e) in
  let sa = sorted a and sb = sorted b in
  if sa <> sb then
    Error
      (Printf.sprintf "reachable sets differ (%d vs %d methods)"
         (List.length sa) (List.length sb))
  else begin
    let prog_b = C.Engine.prog_of b in
    let by_name = Hashtbl.create 64 in
    List.iter
      (fun (g : C.Graph.method_graph) ->
        Hashtbl.replace by_name
          (Program.qualified_name prog_b g.C.Graph.g_meth.Program.m_id)
          g)
      (C.Engine.graphs b);
    let prog_a = C.Engine.prog_of a in
    let err = ref None in
    let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
    List.iter
      (fun (ga : C.Graph.method_graph) ->
        let name =
          Program.qualified_name prog_a ga.C.Graph.g_meth.Program.m_id
        in
        match Hashtbl.find_opt by_name name with
        | None -> fail "%s: no counterpart graph" name
        | Some gb ->
            let fa = ga.C.Graph.g_flows and fb = gb.C.Graph.g_flows in
            if Array.length fa <> Array.length fb then
              fail "%s: %d vs %d flows" name (Array.length fa) (Array.length fb)
            else
              Array.iteri
                (fun i (x : C.Flow.t) ->
                  let y = fb.(i) in
                  if C.Flow.kind_name x <> C.Flow.kind_name y then
                    fail "%s: flow %d kind %s vs %s" name i
                      (C.Flow.kind_name x) (C.Flow.kind_name y)
                  else if x.C.Flow.enabled <> y.C.Flow.enabled then
                    fail "%s: flow %d enabled bit differs" name i
                  else if not (C.Vstate.equal x.C.Flow.state y.C.Flow.state)
                  then fail "%s: flow %d value state differs" name i
                  else if not (C.Vstate.equal x.C.Flow.raw y.C.Flow.raw) then
                    fail "%s: flow %d raw state differs" name i)
                fa)
      (C.Engine.graphs a);
    match !err with None -> Ok () | Some m -> Error m
  end
