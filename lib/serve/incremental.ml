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

let meth_fingerprints (prog : Program.t) =
  let acc = ref [] in
  Program.iter_meths prog (fun (m : Program.meth) ->
      let qname = Program.qualified_name prog m.Program.m_id in
      (* [Ir_pp] prints cross-references (classes, methods, fields) by
         name and locals by per-body ids, so the rendering — unlike the
         raw IR with its global tables — is stable across recompiles of
         an edited source.  The signature is appended because the body
         printer does not show declared types. *)
      let rendering =
        Format.asprintf "%a|%a->%a" (Ir_pp.pp_meth prog) m
          (Format.pp_print_list (Program.pp_ty prog))
          m.Program.m_param_tys (Program.pp_ty prog) m.Program.m_ret_ty
      in
      acc := (qname, Digest.to_hex (Digest.string rendering)) :: !acc);
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let hierarchy_fingerprint (prog : Program.t) =
  let b = Buffer.create 1024 in
  let ty t = Buffer.add_string b (Ty.to_string ~class_name:(Program.class_name prog) t) in
  (* declaration order, deliberately: equal fingerprints then guarantee
     equal id assignment between the two compiles, which the reuse path
     relies on when it keeps the resident engine for a newer source *)
  Program.iter_classes prog (fun (c : Program.cls) ->
      Buffer.add_string b c.Program.c_name;
      Buffer.add_char b '<';
      Buffer.add_string b
        (match c.Program.c_super with
        | Some s -> Program.class_name prog s
        | None -> "-");
      Buffer.add_string b (if c.Program.c_abstract then "!a" else "");
      List.iter
        (fun (f : Program.field) ->
          Buffer.add_char b ';';
          Buffer.add_string b f.Program.f_name;
          Buffer.add_char b ':';
          ty f.Program.f_ty;
          if f.Program.f_static then Buffer.add_string b "!s")
        c.Program.c_fields;
      List.iter
        (fun (m : Program.meth) ->
          Buffer.add_char b '|';
          Buffer.add_string b m.Program.m_name;
          if m.Program.m_static then Buffer.add_string b "!s";
          Buffer.add_char b '(';
          List.iter
            (fun t ->
              ty t;
              Buffer.add_char b ',')
            m.Program.m_param_tys;
          Buffer.add_char b ')';
          ty m.Program.m_ret_ty;
          Buffer.add_string b
            (match m.Program.m_body with Some _ -> "" | None -> "!n"))
        c.Program.c_methods;
      Buffer.add_char b '\n');
  Digest.to_hex (Digest.string (Buffer.contents b))

let reachable_names engine =
  let prog = C.Engine.prog_of engine in
  List.map
    (fun (m : Program.meth) -> Program.qualified_name prog m.Program.m_id)
    (C.Engine.reachable_methods engine)

(* ------------------------------ the memo ------------------------------ *)

module Memo = struct
  type t = { cap : int; mutable items : (string * string) list }

  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: take (n - 1) rest

  let create cap = { cap; items = [] }
  let entries m = m.items

  (* no LRU refresh: lookups must be side-effect free so that a request
     that ultimately fails leaves the memo byte-identical — journal
     replay skips failed requests, and any memo drift would change
     strategy decisions between an interrupted and a straight session *)
  let peek m key = List.assoc_opt key m.items

  let add m (key, v) =
    m.items <- take m.cap ((key, v) :: List.remove_assoc key m.items)

  (* the memory ceiling's first relief valve: memo entries are pure
     caches, dropping them costs recomputation, never correctness *)
  let clear m = m.items <- []
end

(* [mode=dedup] stays in the scope as a literal: state directories
   written by builds whose daemon could pick an engine carry such keys *)
let memo_key ~config ~roots ~source =
  let scope = "serve;mode=dedup;roots=" ^ String.concat "," roots in
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
      match
        C.Engine.of_snapshot_bytes ~budget:C.Budget.unlimited fr.fr_snapshot
      with
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

let deadline_budget deadline_ms =
  C.Budget.make ~max_seconds:(float_of_int deadline_ms /. 1000.) ()

let with_deadline config = function
  | None -> (config, `Degrade)
  | Some ms -> ({ config with C.Config.budget = deadline_budget ms }, `Pause)

let certify engine = C.Verify.run engine = []

(* The post-compile half of a full solve: [prog] was compiled from
   [source] under [trace], which the solve's phases then join.  A caller
   that has fingerprinted [prog] already passes [meth_hashes]. *)
let solve_program ?meth_hashes ~reason ~config ~deadline_ms ~generation
    ~trace ~source ~roots prog =
  let config', on_budget = with_deadline config deadline_ms in
  match
    Api.protect (fun () ->
        match Api.resolve_roots prog roots with
        | Error e -> Error e
        | Ok root_meths ->
            Api.analyze_program ~config:config' ~on_budget ~trace prog
              ~roots:root_meths)
  with
  | Error e -> Error (Protocol.Api_error e)
  | Ok s -> (
      match (s.Api.outcome, deadline_ms) with
      | C.Engine.Paused _, Some deadline_ms ->
          Error (Protocol.Deadline_exceeded { deadline_ms })
      | C.Engine.Paused _, None ->
          (* unreachable: without a deadline the engine degrades *)
          Error (Protocol.Api_error (Api.Internal_error "paused without deadline"))
      | C.Engine.Completed, _ ->
          let st =
            {
              source;
              roots;
              engine = s.Api.engine;
              snapshot = C.Engine.snapshot_bytes s.Api.engine;
              metrics = s.Api.metrics;
              reachable = s.Api.reachable;
              meth_hashes =
                (match meth_hashes with
                | Some h -> h
                | None -> meth_fingerprints prog);
              hier_hash = hierarchy_fingerprint prog;
              generation = generation + 1;
            }
          in
          Ok
            (candidate ~strategy:(Full reason) ~verified:false
               ~key:(memo_key ~config ~roots ~source)
               st (freeze st)))

let solve_full ?(reason = "cold start") ~config ~deadline_ms ~generation
    ~source ~roots () =
  let trace = C.Trace.create () in
  match Api.compile ~trace (`Text source) with
  | Error e -> Error (Protocol.Api_error e)
  | Ok (prog, _) ->
      solve_program ~reason ~config ~deadline_ms ~generation ~trace
        ~source ~roots prog

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
    let with_pre_add = function
      | Error _ as e -> e
      | Ok o -> Ok { o with o_memo_adds = pre_add :: o.o_memo_adds }
    in
    let full reason =
      with_pre_add
        (solve_full ~reason ~config ~deadline_ms
           ~generation:st.generation ~source ~roots:st.roots ())
    in
    match Memo.peek memo key with
    | Some bytes -> (
        match thaw bytes with
        | Ok mst when certify mst.engine ->
            (* re-adding the hit refreshes its LRU position *)
            Ok
              (candidate ~before:[ pre_add ] ~strategy:Memo ~verified:true ~key
                 { mst with generation = st.generation + 1 }
                 bytes)
        | Ok _ | Error _ ->
            (* suspect memo entry: drop to a full solve *)
            full "memo entry failed restoration or verification")
    | None -> (
        let trace = C.Trace.create () in
        match Api.compile ~trace (`Text source) with
        | Error e -> Error (Protocol.Api_error e)
        | Ok (prog, _) ->
            let hier = hierarchy_fingerprint prog in
            let hashes = meth_fingerprints prog in
            (* the source is compiled and fingerprinted already: a
               fallback solves [prog] *)
            let full reason =
              with_pre_add
                (solve_program ~meth_hashes:hashes ~reason ~config
                   ~deadline_ms ~generation:st.generation ~trace ~source
                   ~roots:st.roots prog)
            in
            if not (String.equal hier st.hier_hash) then
              full "class hierarchy changed"
            else begin
              (* equal hierarchy fingerprints imply the same method-name
                 set, so the diff is exactly the hash mismatches *)
              let changed =
                List.filter
                  (fun (n, h) ->
                    match List.assoc_opt n st.meth_hashes with
                    | Some h' -> not (String.equal h h')
                    | None -> true)
                  hashes
              in
              let touched_reachable =
                List.filter (fun (n, _) -> List.mem n st.reachable) changed
              in
              match touched_reachable with
              | [] ->
                  (* every edited body is outside the reachable set: the
                     fixed point is generated only from reachable bodies
                     plus the (unchanged) hierarchy, so the resident
                     engine already holds the new program's fixed point *)
                  if certify st.engine then begin
                    let st' =
                      {
                        st with
                        source;
                        meth_hashes = hashes;
                        generation = st.generation + 1;
                      }
                    in
                    Ok
                      (candidate ~before:[ pre_add ] ~strategy:Reuse
                         ~verified:true ~key st' (freeze st'))
                  end
                  else full "resident engine failed verification"
              | (name, _) :: _ ->
                  full
                    (Printf.sprintf "%d reachable method(s) changed (%s)"
                       (List.length touched_reachable) name)
            end)
  end

let analyze_roots ~config ~deadline_ms ~memo st ~roots =
  let prog = C.Engine.prog_of st.engine in
  match Api.resolve_roots prog roots with
  | Error e -> Error (Protocol.Api_error e)
  | Ok meths -> (
      let requested =
        Ids.Meth.Set.of_list (List.map (fun m -> m.Program.m_id) meths)
      in
      let current = C.Engine.roots st.engine in
      (* not computed on the resident path: it digests the whole source *)
      let key = lazy (memo_key ~config ~roots ~source:st.source) in
      let memo_hit () =
        let key = Lazy.force key in
        match Memo.peek memo key with
        | None -> None
        | Some bytes -> (
            match thaw bytes with
            | Ok mst when certify mst.engine ->
                Some
                  (candidate ~strategy:Memo ~verified:true ~key
                     { mst with generation = st.generation + 1 }
                     bytes)
            | Ok _ | Error _ -> None)
      in
      if Ids.Meth.Set.equal requested current then Ok (unchanged st)
      else
        match memo_hit () with
        | Some o -> Ok o
        | None ->
      if not (Ids.Meth.Set.subset current requested) then
        (* the root set shrank: retraction, which a monotone engine
           cannot replay — full solve *)
        solve_full ~reason:"root set shrank or was replaced" ~config
          ~deadline_ms ~generation:st.generation ~source:st.source ~roots ()
      else begin
        let added =
          List.filter
            (fun (m : Program.meth) ->
              not (Ids.Meth.Set.mem m.Program.m_id current))
            meths
        in
        let budget, on_budget =
          match deadline_ms with
          | None -> (config.C.Config.budget, `Degrade)
          | Some ms -> (deadline_budget ms, `Pause)
        in
        (* mutate a clone: a deadline trip (or any failure) rolls back by
           keeping the resident state untouched *)
        let clone = C.Engine.clone ~budget st.engine in
        List.iter (fun m -> C.Engine.add_root clone m) added;
        let r = C.Analysis.rerun ~on_budget clone in
        match (r.C.Analysis.outcome, deadline_ms) with
        | C.Engine.Paused _, Some deadline_ms ->
            Error (Protocol.Deadline_exceeded { deadline_ms })
        | C.Engine.Paused _, None ->
            Error
              (Protocol.Api_error (Api.Internal_error "paused without deadline"))
        | C.Engine.Completed, _ ->
            if certify r.C.Analysis.engine then begin
              let st' =
                {
                  st with
                  roots;
                  engine = r.C.Analysis.engine;
                  snapshot = C.Engine.snapshot_bytes r.C.Analysis.engine;
                  metrics = r.C.Analysis.metrics;
                  reachable = reachable_names r.C.Analysis.engine;
                  generation = st.generation + 1;
                }
              in
              Ok
                (candidate ~strategy:(Redrain (List.length added))
                   ~verified:true ~key:(Lazy.force key) st' (freeze st'))
            end
            else
              solve_full ~reason:"re-drained engine failed verification"
                ~config ~deadline_ms ~generation:st.generation
                ~source:st.source ~roots ()
      end)

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
            if List.length fa <> List.length fb then
              fail "%s: %d vs %d flows" name (List.length fa) (List.length fb)
            else
              List.iteri
                (fun i ((x : C.Flow.t), (y : C.Flow.t)) ->
                  if C.Flow.kind_name x <> C.Flow.kind_name y then
                    fail "%s: flow %d kind %s vs %s" name i
                      (C.Flow.kind_name x) (C.Flow.kind_name y)
                  else if x.C.Flow.enabled <> y.C.Flow.enabled then
                    fail "%s: flow %d enabled bit differs" name i
                  else if not (C.Vstate.equal x.C.Flow.state y.C.Flow.state)
                  then fail "%s: flow %d value state differs" name i
                  else if not (C.Vstate.equal x.C.Flow.raw y.C.Flow.raw) then
                    fail "%s: flow %d raw state differs" name i)
                (List.combine fa fb))
      (C.Engine.graphs a);
    match !err with None -> Ok () | Some m -> Error m
  end
