(* The serve daemon: protocol parsing, the full error matrix (every
   facade error variant and every serve-specific error, each with its
   stable kind and exit code), incremental-vs-fresh flow-by-flow equality
   over an edit corpus that exercises every strategy, deadline rollback,
   memory-ceiling shedding, and kill-9/warm-restart response
   byte-equality. *)

module C = Skipflow_core
module K = Skipflow_checks
module Api = Skipflow_api
module P = Skipflow_serve.Protocol
module I = Skipflow_serve.Incremental
module Sv = Skipflow_serve.Server

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_state_dir f =
  let dir = Filename.temp_dir "skipflow-serve" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let req fields = K.Json.to_compact_string (K.Json.Obj fields)

let edit_req ?deadline_ms id source =
  req
    ([ ("op", K.Json.Str "edit"); ("id", K.Json.Int id) ]
    @ (match deadline_ms with
      | Some d -> [ ("deadline_ms", K.Json.Int d) ]
      | None -> [])
    @ [ ("source", K.Json.Str source) ])

let op_req ?(extra = []) id op =
  req ([ ("op", K.Json.Str op); ("id", K.Json.Int id) ] @ extra)

(* a response is exactly one line of parseable JSON *)
let one_response = function
  | [ line ] -> K.Json.of_string (String.trim line)
  | other -> Alcotest.failf "expected one response line, got %d" (List.length other)

let bool_member name j =
  match K.Json.member name j with
  | Some (K.Json.Bool b) -> b
  | _ -> Alcotest.failf "missing bool %S" name

let str_member name j =
  match K.Json.member name j with
  | Some (K.Json.Str s) -> s
  | _ -> Alcotest.failf "missing string %S" name

let int_member name j =
  match K.Json.member name j with
  | Some (K.Json.Int n) -> n
  | _ -> Alcotest.failf "missing int %S" name

let error_of j =
  match K.Json.member "error" j with
  | Some e -> e
  | None -> Alcotest.failf "response has no error object"

(* --------------------------- protocol parsing -------------------------- *)

let test_parse_requests () =
  (match P.parse_request {|{"op":"analyze","id":7,"deadline_ms":250}|} with
  | Ok { P.req_id = Some 7; req_deadline_ms = Some 250; req = P.Analyze { roots = None } } -> ()
  | _ -> Alcotest.fail "analyze envelope mis-parsed");
  (match P.parse_request {|{"op":"analyze","roots":["A.b","C.d"]}|} with
  | Ok { P.req = P.Analyze { roots = Some [ "A.b"; "C.d" ] }; _ } -> ()
  | _ -> Alcotest.fail "analyze roots mis-parsed");
  (match P.parse_request {|{"op":"lint","only":["dead-method"]}|} with
  | Ok { P.req = P.Lint { only = Some [ "dead-method" ] }; _ } -> ()
  | _ -> Alcotest.fail "lint only mis-parsed");
  (match P.parse_request {|{"op":"edit","source":"class A { }"}|} with
  | Ok { P.req = P.Edit { source = "class A { }" }; _ } -> ()
  | _ -> Alcotest.fail "edit mis-parsed");
  List.iter
    (fun (line, expect) ->
      match (P.parse_request line, expect) with
      | Error (P.Parse_error _), `Parse -> ()
      | Error (P.Unknown_op _), `Unknown -> ()
      | got, _ ->
          Alcotest.failf "%s: wrong classification (%s)" line
            (match got with
            | Ok _ -> "parsed"
            | Error e -> P.error_kind e))
    [
      ("{", `Parse);
      ("not json", `Parse);
      ("{\"id\":1}", `Parse);
      ({|{"op":"edit"}|}, `Parse);
      ({|{"op":"analyze","roots":[1]}|}, `Parse);
      ({|{"op":"analyze","schema_version":999}|}, `Parse);
      ({|{"op":"frobnicate"}|}, `Unknown);
    ]

(* ----------------------- the error matrix (kinds) ---------------------- *)

(* Every Api.error variant, produced through the facade (not hand-built),
   rendered through the protocol: stable kind, documented exit code, and
   for compile errors the positioned diagnostics. *)
let test_api_error_matrix () =
  let fields e = P.api_error_fields e in
  let kind e = str_member "kind" (K.Json.Obj (fields e)) in
  let code e = int_member "exit_code" (K.Json.Obj (fields e)) in
  let io =
    match Api.compile (`File "/nonexistent/skipflow-test.mj") with
    | Error e -> e
    | Ok _ -> Alcotest.fail "unreadable file compiled"
  in
  Alcotest.(check string) "io kind" "io_error" (kind io);
  Alcotest.(check int) "io exit" 2 (code io);
  let compile =
    match Api.compile (`Text "class Broken {") with
    | Error e -> e
    | Ok _ -> Alcotest.fail "broken source compiled"
  in
  Alcotest.(check string) "compile kind" "compile_error" (kind compile);
  Alcotest.(check int) "compile exit" 2 (code compile);
  (match K.Json.member "diags" (K.Json.Obj (fields compile)) with
  | Some (K.Json.Arr (d :: _)) ->
      ignore (int_member "line" d);
      ignore (int_member "col" d);
      ignore (str_member "message" d)
  | _ -> Alcotest.fail "compile error without positioned diags");
  let prog, _ = Result.get_ok (Api.compile (`Text "class A { static void main() { } }")) in
  let unknown_root =
    match Api.resolve_roots prog [ "Nope.nada" ] with
    | Error e -> e
    | Ok _ -> Alcotest.fail "bogus root resolved"
  in
  Alcotest.(check string) "root kind" "unknown_root" (kind unknown_root);
  Alcotest.(check int) "root exit" 2 (code unknown_root);
  let mainless, _ = Result.get_ok (Api.compile (`Text "class B { int f() { return 1; } }")) in
  let no_main =
    match Api.resolve_roots mainless [] with
    | Error e -> e
    | Ok _ -> Alcotest.fail "mainless program resolved a default root"
  in
  Alcotest.(check string) "no-main kind" "no_main" (kind no_main);
  Alcotest.(check int) "no-main exit" 2 (code no_main);
  let internal =
    match Api.protect (fun () -> failwith "boom") with
    | Error e -> e
    | Ok _ -> Alcotest.fail "protect let an exception through"
  in
  Alcotest.(check string) "internal kind" "internal_error" (kind internal);
  Alcotest.(check int) "internal exit" 1 (code internal)

(* The serve-specific errors: kind, exit code, and the structured extras
   (retry_after_ms, deadline_ms). *)
let test_serve_error_matrix () =
  let render e = P.error_json e in
  let check_one e ~kind ~exit_code =
    let j = render e in
    Alcotest.(check string) (kind ^ " kind") kind (str_member "kind" j);
    Alcotest.(check int) (kind ^ " exit") exit_code (int_member "exit_code" j)
  in
  check_one (P.Parse_error "bad") ~kind:"parse_error" ~exit_code:2;
  check_one (P.Unknown_op "zap") ~kind:"unknown_op" ~exit_code:2;
  check_one P.No_program ~kind:"no_program" ~exit_code:2;
  check_one (P.Deadline_exceeded { deadline_ms = 17 }) ~kind:"deadline_exceeded"
    ~exit_code:3;
  check_one (P.Overloaded { retry_after_ms = 40 }) ~kind:"overloaded"
    ~exit_code:1;
  check_one P.Shutting_down ~kind:"shutting_down" ~exit_code:1;
  Alcotest.(check int) "deadline carried" 17
    (int_member "deadline_ms" (render (P.Deadline_exceeded { deadline_ms = 17 })));
  Alcotest.(check int) "retry hint carried" 40
    (int_member "retry_after_ms" (render (P.Overloaded { retry_after_ms = 40 })))

(* ------------------- incremental vs fresh (the oracle) ----------------- *)

let base_src =
  "class Main {\n\
  \  static void main() {\n\
  \    Live l = new Live();\n\
  \    int x = l.go();\n\
  \  }\n\
   }\n\
   class Live { int go() { return 1; } }\n\
   class Dead { int never() { return 2; } }\n"

let replace ~sub ~by s =
  let n = String.length sub in
  let len = String.length s in
  let b = Buffer.create len in
  let i = ref 0 in
  while !i < len do
    if !i + n <= len && String.equal (String.sub s !i n) sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let dead_edit = replace ~sub:"return 2" ~by:"return 3" base_src
let live_edit = replace ~sub:"return 1" ~by:"return 5" base_src

let config = C.Config.skipflow

let fresh_engine ~source ~roots =
  match
    I.solve_full ~config ~deadline_ms:None ~generation:0 ~source ~roots ()
  with
  | Ok o -> o.I.o_state.I.engine
  | Error e -> Alcotest.failf "fresh solve failed: %s" (P.error_message e)

(* Drive the incremental layer through an edit corpus that reaches every
   strategy, certifying each committed state flow-by-flow against a
   from-scratch solve — the acceptance oracle. *)
let test_incremental_matches_fresh () =
  let memo = I.Memo.create 8 in
  let seen = ref [] in
  let commit (o : I.outcome) =
    List.iter (I.Memo.add memo) o.I.o_memo_adds;
    seen := I.strategy_name o.I.o_strategy :: !seen;
    o.I.o_state
  in
  let certify label (st : I.state) =
    match
      I.same_fixed_point st.I.engine
        (fresh_engine ~source:st.I.source ~roots:st.I.roots)
    with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: diverged from fresh solve: %s" label msg
  in
  let edit label st source expect =
    match I.edit ~config ~deadline_ms:None ~memo st ~source with
    | Error e -> Alcotest.failf "%s: %s" label (P.error_message e)
    | Ok o ->
        Alcotest.(check string) label expect (I.strategy_name o.I.o_strategy);
        let st = commit o in
        certify label st;
        st
  in
  let analyze label st roots expect =
    match I.analyze_roots ~config ~deadline_ms:None ~memo st ~roots with
    | Error e -> Alcotest.failf "%s: %s" label (P.error_message e)
    | Ok o ->
        Alcotest.(check string) label expect (I.strategy_name o.I.o_strategy);
        let st = commit o in
        certify label st;
        st
  in
  let st =
    match
      I.solve_full ~config ~deadline_ms:None ~generation:0
        ~source:base_src ~roots:[] ()
    with
    | Ok o -> commit o
    | Error e -> Alcotest.failf "initial solve: %s" (P.error_message e)
  in
  certify "initial" st;
  let st = edit "same source is resident" st base_src "resident" in
  let st = edit "dead-body edit reuses" st dead_edit "reuse" in
  let st = edit "live-body edit resolves fully" st live_edit "full" in
  let st = edit "revert to reused state hits the memo" st dead_edit "memo" in
  let st = edit "revert to base hits the memo" st base_src "memo" in
  let st =
    analyze "grown roots re-drain" st [ "Main.main"; "Dead.never" ] "redrain"
  in
  let st = analyze "same roots are resident" st [ "Main.main"; "Dead.never" ] "resident" in
  let st = analyze "shrunk roots resolve fully" st [ "Main.main" ] "full" in
  ignore st;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "strategy %s exercised" s)
        true
        (List.mem s !seen))
    [ "resident"; "memo"; "reuse"; "redrain"; "full" ]

(* A reuse or redrain outcome must have passed the certifier. *)
let test_incremental_verified_flag () =
  let memo = I.Memo.create 4 in
  let st =
    match
      I.solve_full ~config ~deadline_ms:None ~generation:0
        ~source:base_src ~roots:[] ()
    with
    | Ok o -> o.I.o_state
    | Error e -> Alcotest.failf "initial solve: %s" (P.error_message e)
  in
  (match I.edit ~config ~deadline_ms:None ~memo st ~source:dead_edit with
  | Ok o ->
      Alcotest.(check string) "reuse" "reuse" (I.strategy_name o.I.o_strategy);
      Alcotest.(check bool) "reuse is certified" true o.I.o_verified
  | Error e -> Alcotest.failf "edit: %s" (P.error_message e));
  match
    I.analyze_roots ~config ~deadline_ms:None ~memo st
      ~roots:[ "Main.main"; "Dead.never" ]
  with
  | Ok o ->
      Alcotest.(check string) "redrain" "redrain"
        (I.strategy_name o.I.o_strategy);
      Alcotest.(check bool) "redrain is certified" true o.I.o_verified
  | Error e -> Alcotest.failf "analyze: %s" (P.error_message e)

(* A reuse adopts the edited program: a later redrain into the edited,
   formerly dead method builds its new body, not the pre-edit one. *)
let test_redrain_after_reuse () =
  let memo = I.Memo.create 4 in
  let step label expect = function
    | Error e -> Alcotest.failf "%s: %s" label (P.error_message e)
    | Ok (o : I.outcome) ->
        Alcotest.(check string) label expect (I.strategy_name o.I.o_strategy);
        List.iter (I.Memo.add memo) o.I.o_memo_adds;
        o.I.o_state
  in
  let st =
    step "initial solve" "full"
      (I.solve_full ~config ~deadline_ms:None ~generation:0 ~source:base_src
         ~roots:[] ())
  in
  let st =
    step "dead-body edit" "reuse"
      (I.edit ~config ~deadline_ms:None ~memo st ~source:dead_edit)
  in
  let roots = [ "Main.main"; "Dead.never" ] in
  let st =
    step "grown roots" "redrain"
      (I.analyze_roots ~config ~deadline_ms:None ~memo st ~roots)
  in
  match I.same_fixed_point st.I.engine (fresh_engine ~source:dead_edit ~roots) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "redrain after reuse diverged: %s" msg

(* Method fingerprints are a function of the source: two compiles agree,
   and each kind of edit changes the edited method's hash and no other. *)
let fingerprint_src =
  "class A { var int f; }\n\
   class B { var int f; }\n\
   class Main {\n\
  \  static void main() {\n\
  \    int x = Main.k();\n\
  \    int y = Main.cmp(x, 2);\n\
  \    int z = Main.get();\n\
  \  }\n\
  \  static int k() {\n\
  \    return 7;\n\
  \  }\n\
  \  static int cmp(int a, int b) {\n\
  \    if (a < b) { return 1; }\n\
  \    return 0;\n\
  \  }\n\
  \  static int get() {\n\
  \    A o = new A();\n\
  \    return o.f;\n\
  \  }\n\
   }\n"

let test_fingerprints_track_edits () =
  let hashes source =
    match Api.compile (`Text source) with
    | Ok (prog, _) -> I.meth_fingerprints prog
    | Error _ -> Alcotest.failf "does not compile:\n%s" source
  in
  let base = hashes fingerprint_src in
  Alcotest.(check (list (pair string string)))
    "two compiles agree" base (hashes fingerprint_src);
  List.iter
    (fun (label, sub, by, meth) ->
      let edited = hashes (replace ~sub ~by fingerprint_src) in
      Alcotest.(check (list string))
        (label ^ ": same methods") (List.map fst base) (List.map fst edited);
      let changed =
        List.filter_map
          (fun ((n, h), (_, h')) -> if String.equal h h' then None else Some n)
          (List.combine base edited)
      in
      Alcotest.(check (list string)) (label ^ ": changed") [ meth ] changed)
    [
      ("constant", "return 7;", "return 8;", "Main.k");
      ("column shift", "    return 7;", "     return 7;", "Main.k");
      ("flipped comparison", "a < b", "a > b", "Main.cmp");
      ("field of another class", "A o = new A();", "B o = new B();", "Main.get");
    ]

(* --------------------------- server behavior --------------------------- *)

let quiet_cfg = { Sv.default_cfg with Sv.sv_log = (fun _ -> ()) }

let create_exn ?initial ~resume cfg =
  match Sv.create ?initial ~resume cfg with
  | Ok srv -> srv
  | Error msg -> Alcotest.failf "create: %s" msg

let test_server_structured_errors () =
  let srv = create_exn ~resume:false quiet_cfg in
  let expect_err line kind =
    let j = one_response (Sv.handle_line srv line) in
    Alcotest.(check bool) (kind ^ " not ok") false (bool_member "ok" j);
    Alcotest.(check string) kind kind (str_member "kind" (error_of j))
  in
  expect_err (op_req 1 "analyze") "no_program";
  expect_err (op_req 2 "profile") "no_program";
  expect_err (op_req 3 "lint") "no_program";
  expect_err "{\"op\":" "parse_error";
  expect_err (op_req 4 "frobnicate") "unknown_op";
  expect_err (edit_req 5 "class Broken {") "compile_error";
  (* the daemon survives all of the above and still serves *)
  let j = one_response (Sv.handle_line srv (edit_req 6 base_src)) in
  Alcotest.(check bool) "daemon alive after errors" true (bool_member "ok" j);
  (* a lint with an unknown check id is a client error, not a crash *)
  let j =
    one_response
      (Sv.handle_line srv
         (op_req 7 "lint"
            ~extra:[ ("only", K.Json.Arr [ K.Json.Str "no-such-check" ]) ]))
  in
  Alcotest.(check string) "unknown check is a parse_error" "parse_error"
    (str_member "kind" (error_of j));
  (* shutdown, then everything is refused *)
  let j = one_response (Sv.handle_line srv (op_req 8 "shutdown")) in
  Alcotest.(check bool) "shutdown ok" true (bool_member "ok" j);
  Alcotest.(check bool) "wants shutdown" true (Sv.wants_shutdown srv);
  let j = one_response (Sv.handle_line srv (op_req 9 "health")) in
  Alcotest.(check string) "post-shutdown refused" "shutting_down"
    (str_member "kind" (error_of j))

let test_deadline_rollback () =
  let srv = create_exn ~initial:(`Text base_src) ~resume:false quiet_cfg in
  let gen0 = Sv.generation srv in
  let j =
    one_response (Sv.handle_line srv (edit_req ~deadline_ms:0 1 live_edit))
  in
  Alcotest.(check bool) "deadline trips" false (bool_member "ok" j);
  Alcotest.(check string) "deadline kind" "deadline_exceeded"
    (str_member "kind" (error_of j));
  Alcotest.(check int) "deadline exit code" 3
    (int_member "exit_code" (error_of j));
  Alcotest.(check int) "rolled back" gen0 (Sv.generation srv);
  (* the resident state still serves, and is the pre-edit one *)
  let j = one_response (Sv.handle_line srv (op_req 2 "analyze")) in
  Alcotest.(check bool) "resident survives" true (bool_member "ok" j);
  (match K.Json.member "result" j with
  | Some r ->
      Alcotest.(check string) "old state is resident" "resident"
        (str_member "strategy" r)
  | None -> Alcotest.fail "no result");
  (* without a deadline the same edit commits *)
  let j = one_response (Sv.handle_line srv (edit_req 3 live_edit)) in
  Alcotest.(check bool) "edit commits without deadline" true (bool_member "ok" j);
  Alcotest.(check int) "generation advanced" (gen0 + 1) (Sv.generation srv)

(* Reuse and redrain are one re-drain of the resident image.  A reuse
   adds no roots, so its drain pops no work and a deadline of 0 cannot
   trip; a redrain's new roots do pop work, so the same deadline pauses
   it and rolls back. *)
let test_reuse_under_zero_deadline () =
  let srv = create_exn ~initial:(`Text base_src) ~resume:false quiet_cfg in
  let gen0 = Sv.generation srv in
  let j =
    one_response (Sv.handle_line srv (edit_req ~deadline_ms:0 1 dead_edit))
  in
  Alcotest.(check bool) "reuse under deadline 0 answers" true (bool_member "ok" j);
  (match K.Json.member "result" j with
  | Some r ->
      Alcotest.(check string) "strategy" "reuse" (str_member "strategy" r);
      Alcotest.(check bool) "verified" true (bool_member "verified" r)
  | None -> Alcotest.fail "no result");
  Alcotest.(check int) "committed" (gen0 + 1) (Sv.generation srv);
  (match Sv.state srv with
  | None -> Alcotest.fail "no resident state"
  | Some st -> (
      match I.same_fixed_point st.I.engine (fresh_engine ~source:dead_edit ~roots:[]) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "reuse under deadline 0 diverged: %s" msg));
  let grown =
    op_req ~extra:[ ("deadline_ms", K.Json.Int 0);
                    ("roots", K.Json.Arr [ K.Json.Str "Main.main"; K.Json.Str "Dead.never" ]) ]
      2 "analyze"
  in
  let j = one_response (Sv.handle_line srv grown) in
  Alcotest.(check string) "a redrain under deadline 0 trips" "deadline_exceeded"
    (str_member "kind" (error_of j));
  Alcotest.(check int) "rolled back" (gen0 + 1) (Sv.generation srv)

(* A ceiling of 0 MB stays exceeded even after the memo is dropped and
   the heap compacted (a live ballast guarantees a heap of at least
   2 MB): every mutating request is shed. *)
let test_memory_ceiling_shedding () =
  with_state_dir (fun dir ->
      let srv =
        create_exn ~initial:(`Text base_src) ~resume:false
          { quiet_cfg with
            Sv.sv_state_dir = Some dir;
            sv_max_heap_mb = Some 0;
          }
      in
      let journal_lines () =
        match C.Io.read_file (Filename.concat dir "journal.jsonl") with
        | Ok s -> List.length (String.split_on_char '\n' s)
        | Error _ -> 0
      in
      let gen0 = Sv.generation srv and lines0 = journal_lines () in
      let ballast = Array.make (1 lsl 18) 0 in
      let shed = one_response (Sv.handle_line srv (edit_req 1 live_edit)) in
      ignore (Sys.opaque_identity ballast);
      Alcotest.(check bool) "shed not ok" false (bool_member "ok" shed);
      Alcotest.(check string) "shed kind" "overloaded"
        (str_member "kind" (error_of shed));
      Alcotest.(check int) "retry hint" 50
        (int_member "retry_after_ms" (error_of shed));
      Alcotest.(check int) "generation unchanged" gen0 (Sv.generation srv);
      Alcotest.(check int) "the shed is not journaled" lines0 (journal_lines ());
      (* health is never shed, and counts the shed request *)
      let j = one_response (Sv.handle_line srv (op_req 2 "health")) in
      Alcotest.(check bool) "health answers" true (bool_member "ok" j);
      match K.Json.member "result" j with
      | Some r -> Alcotest.(check int) "memory_shed" 1 (int_member "memory_shed" r)
      | None -> Alcotest.fail "health has no result")

(* ----------------------- kill -9 and warm restart ----------------------- *)

(* Each revert is a memo hit on the state the request before it
   replaced: a straight session answers it with that state, kept in
   memory, and a session killed just before it thaws the blob instead.
   The lint and the profile after them then compare the two; the
   profile after the grown roots compares the redrained engine. *)
let roots names = [ ("roots", K.Json.Arr (List.map (fun n -> K.Json.Str n) names)) ]

let session_lines =
  [
    edit_req 1 base_src;
    op_req 2 "health";
    edit_req 3 dead_edit;
    edit_req 4 base_src;
    op_req 5 "analyze";
    edit_req 6 live_edit;
    edit_req 7 base_src;
    op_req 8 "analyze" ~extra:(roots [ "Main.main"; "Dead.never" ]);
    op_req 9 "profile";
    op_req 10 "analyze" ~extra:(roots []);
    op_req 11 "lint";
    op_req 12 "profile";
  ]

let run_all srv lines = List.concat_map (Sv.handle_line srv) lines

(* The acceptance criterion: kill the daemon (abandon it mid-session,
   snapshots and journal on disk), restart with --resume, re-feed the
   same request stream, and the full response stream is byte-identical
   to an uninterrupted session's — for every kill point. *)
let test_kill_resume_byte_identical () =
  let straight =
    let srv = create_exn ~resume:false quiet_cfg in
    run_all srv session_lines
  in
  Alcotest.(check (list string)) "the straight session's strategies"
    [ "full"; "reuse"; "memo"; "resident"; "full"; "memo"; "redrain"; "memo" ]
    (List.filter_map
       (fun line ->
         match
           Option.bind (K.Json.member "result" (K.Json.of_string line)) (K.Json.member "strategy")
         with
         | Some (K.Json.Str s) -> Some s
         | _ -> None)
       straight);
  List.iteri
    (fun k _ ->
      with_state_dir (fun dir ->
          let cfg = { quiet_cfg with Sv.sv_state_dir = Some dir } in
          let prefix = List.filteri (fun i _ -> i <= k) session_lines in
          let srv_a = create_exn ~resume:false cfg in
          ignore (run_all srv_a prefix);
          (* no finalize, no shutdown: the kill -9 equivalent *)
          let srv_b = create_exn ~resume:true cfg in
          let replayed = run_all srv_b session_lines in
          if replayed <> straight then
            Alcotest.failf
              "killed-after-%d session's responses differ from the straight \
               run's"
              (k + 1)))
    session_lines

let result_of j =
  match K.Json.member "result" j with
  | Some r -> r
  | None -> Alcotest.fail "response has no result"

let resident_engine srv =
  match Sv.state srv with
  | Some st -> st.I.engine
  | None -> Alcotest.fail "no resident state"

(* A read leaves the resident engine as it found it, image and all, so
   a state kept in memory answers later reads as its thawed blob does. *)
let test_reads_leave_engine_unchanged () =
  let srv = create_exn ~initial:(`Text base_src) ~resume:false quiet_cfg in
  let image () = C.Engine.snapshot_bytes (resident_engine srv) in
  List.iter
    (fun line ->
      let before = image () in
      ignore (Sv.handle_line srv line);
      Alcotest.(check bool) ("the image is unchanged by " ^ line) true
        (String.equal before (image ())))
    [ op_req 1 "health";
      op_req 2 "profile";
      op_req 3 "lint";
      op_req 4 "lint" ~extra:[ ("only", K.Json.Arr [ K.Json.Str "dead-method" ]) ];
      op_req 5 "analyze";
      edit_req 6 base_src;
      op_req 7 "profile";
    ]

(* A revert is a memo hit on the state its edit replaced, and that state
   itself comes back: no thaw.  Every memo lookup releases it, so after
   a failed request that looked the memo up, the revert thaws the blob
   and answers alike. *)
let test_revert_reuses_replaced_state () =
  let srv = create_exn ~initial:(`Text base_src) ~resume:false quiet_cfg in
  let revert label ~kept ~change ~back =
    let before = resident_engine srv and gen = Sv.generation srv in
    List.iter (fun line -> ignore (Sv.handle_line srv line)) change;
    Alcotest.(check int) (label ^ ": one commit before the revert") (gen + 1)
      (Sv.generation srv);
    let r = result_of (one_response (Sv.handle_line srv back)) in
    Alcotest.(check string) (label ^ ": a memo hit") "memo" (str_member "strategy" r);
    Alcotest.(check bool) (label ^ ": verified") true (bool_member "verified" r);
    Alcotest.(check bool) (label ^ ": the replaced engine is back") kept
      (resident_engine srv == before)
  in
  revert "dead edit" ~kept:true ~change:[ edit_req 1 dead_edit ] ~back:(edit_req 2 base_src);
  revert "live edit" ~kept:true ~change:[ edit_req 3 live_edit ] ~back:(edit_req 4 base_src);
  revert "grown roots" ~kept:true
    ~change:[ op_req 5 "analyze" ~extra:(roots [ "Main.main"; "Dead.never" ]) ]
    ~back:(op_req 6 "analyze" ~extra:(roots []));
  (* an unseen live edit misses the memo and trips its deadline *)
  let live n = replace ~sub:"return 1" ~by:(Printf.sprintf "return %d" n) base_src in
  revert "a failed edit between" ~kept:false
    ~change:[ edit_req 7 (live 6); edit_req ~deadline_ms:0 8 (live 7) ]
    ~back:(edit_req 9 base_src)

(* A corrupted serve snapshot must fall back to a cold start (logged, not
   fatal) and the daemon must still serve correct results. *)
let test_corrupt_snapshot_cold_start () =
  with_state_dir (fun dir ->
      let warned = ref 0 in
      let cfg =
        { quiet_cfg with
          Sv.sv_state_dir = Some dir;
          sv_log = (fun _ -> incr warned);
        }
      in
      let srv = create_exn ~resume:false cfg in
      ignore (run_all srv [ edit_req 1 base_src ]);
      Sv.finalize srv;
      let snap = Filename.concat dir "serve.snap" in
      (* truncate the snapshot to a torn prefix, and drop the journal so
         recovery cannot lean on replay *)
      let oc = open_out_bin snap in
      output_string oc "skipflow-snapshot corrupted beyond recognition";
      close_out oc;
      Sys.remove (Filename.concat dir "journal.jsonl");
      let srv2 = create_exn ~resume:true cfg in
      Alcotest.(check bool) "fallback was logged" true (!warned > 0);
      Alcotest.(check bool) "cold start has no resident state" true
        (Sv.state srv2 = None);
      let j = one_response (Sv.handle_line srv2 (edit_req 2 base_src)) in
      Alcotest.(check bool) "recovered daemon serves" true (bool_member "ok" j);
      match Sv.state srv2 with
      | None -> Alcotest.fail "no resident state after recovery edit"
      | Some st -> (
          match
            I.same_fixed_point st.I.engine
              (fresh_engine ~source:base_src ~roots:[])
          with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "recovered fixed point diverged: %s" msg))

(* --------------------- the content-addressed state dir ------------------ *)

let snap_file dir = Filename.concat dir "serve.snap"
let blobs_dir dir = Filename.concat dir "blobs"

(* the blob names the manifest references, sorted, and its generation *)
let manifest dir =
  match
    C.Snapshot.read ~path:(snap_file dir) ~kind:"serve-state" ~version:2
  with
  | Error e -> Alcotest.failf "manifest: %s" (C.Snapshot.error_message e)
  | Ok payload ->
      let j = K.Json.of_string payload in
      let resident, gen =
        match K.Json.member "resident" j with
        | Some (K.Json.Obj _ as r) -> ([ str_member "blob" r ], int_member "generation" r)
        | _ -> ([], 0)
      in
      let memo =
        match K.Json.member "memo" j with
        | Some (K.Json.Arr items) -> List.map (str_member "blob") items
        | _ -> Alcotest.fail "manifest without a memo list"
      in
      (List.sort_uniq String.compare (resident @ memo), gen)

let blob_files dir =
  List.sort String.compare
    (List.map
       (fun n -> Filename.chop_suffix n ".blob")
       (Array.to_list (Sys.readdir (blobs_dir dir))))

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let check_no_tmp dir =
  List.iter
    (fun d ->
      Array.iter
        (fun n ->
          if contains ~sub:".tmp." n then
            Alcotest.failf "temp file %s left in %s" n d)
        (Sys.readdir d))
    [ dir; blobs_dir dir ]

let check_exactly_referenced label dir =
  let refs, _ = manifest dir in
  Alcotest.(check (list string)) label refs (blob_files dir);
  check_no_tmp dir

let state_cfg ?(memo_entries = 8) dir =
  { quiet_cfg with Sv.sv_state_dir = Some dir; sv_memo_entries = memo_entries }

(* Past the memo's capacity, evicted states' blobs are unlinked with the
   commit that drops them: blobs/ is the manifest's reference set. *)
let test_blobs_exactly_referenced () =
  with_state_dir (fun dir ->
      let srv = create_exn ~resume:false (state_cfg ~memo_entries:2 dir) in
      let third = replace ~sub:"return 1" ~by:"return 6" base_src in
      List.iteri
        (fun i line ->
          ignore (Sv.handle_line srv line);
          check_exactly_referenced (Printf.sprintf "after request %d" (i + 1)) dir;
          Alcotest.(check bool) "at most memo-entries + 1 blobs" true
            (List.length (blob_files dir) <= 3))
        [ edit_req 1 base_src;
          edit_req 2 dead_edit;
          edit_req 3 live_edit;
          edit_req 4 third;
          edit_req 5 base_src;
          op_req 6 "analyze"
            ~extra:
              [ ("roots", K.Json.Arr [ K.Json.Str "Main.main"; K.Json.Str "Dead.never" ]) ];
        ];
      let _, gen = manifest dir in
      Alcotest.(check int) "the manifest carries the generation" (Sv.generation srv) gen)

(* A memo hit's states are all on disk already: only the manifest is
   rewritten. *)
let test_memo_hit_one_write () =
  with_state_dir (fun dir ->
      let srv = create_exn ~resume:false (state_cfg dir) in
      ignore (run_all srv [ edit_req 1 base_src; edit_req 2 dead_edit ]);
      let before = blob_files dir in
      C.Io.reset_stats ();
      let j = one_response (Sv.handle_line srv (edit_req 3 base_src)) in
      (match K.Json.member "result" j with
      | Some r -> Alcotest.(check string) "a memo hit" "memo" (str_member "strategy" r)
      | None -> Alcotest.fail "no result");
      Alcotest.(check int) "one atomic write" 1 (C.Io.stats ()).C.Io.writes;
      Alcotest.(check (list string)) "no blob written or dropped" before
        (blob_files dir))

(* Kill the daemon (in process, exception-safely) before every IO
   operation of a commit that writes one blob and drops another.  A
   crash after the blob write but before the manifest's leaves an
   orphan next to the old manifest; resume must come up on the manifest
   on disk, and sweep the orphan and any temp file. *)
let test_crash_between_blob_and_manifest () =
  let prepare dir =
    let srv = create_exn ~resume:false (state_cfg ~memo_entries:1 dir) in
    ignore (run_all srv [ edit_req 1 base_src; edit_req 2 dead_edit ]);
    srv
  in
  let commit srv = ignore (Sv.handle_line srv (edit_req 3 live_edit)) in
  let total =
    with_state_dir (fun dir ->
        let srv = prepare dir in
        C.Io.with_plan (C.Io.plan ~seed:0 ()) (fun () ->
            commit srv;
            C.Io.ops_performed ()))
  in
  let old_with_orphan = ref 0 in
  for k = 0 to total - 1 do
    with_state_dir (fun dir ->
        let srv = prepare dir in
        (match
           C.Io.with_plan (C.Io.plan ~crash_at:k ~crash_exit:false ~seed:0 ())
             (fun () -> commit srv)
         with
        | () -> Alcotest.failf "crash point %d never fired" k
        | exception C.Io.Crash_point _ -> ());
        let refs, gen = manifest dir in
        if List.exists (fun b -> not (List.mem b refs)) (blob_files dir) && gen = 2
        then incr old_with_orphan;
        (* a crashed writer's temp files, as a SIGKILL would leave them *)
        List.iter
          (fun p -> close_out (open_out_bin p))
          [ snap_file dir ^ ".tmp.4242";
            Filename.concat (blobs_dir dir) "feed.blob.tmp.4242" ];
        let srv' = create_exn ~resume:true (state_cfg ~memo_entries:1 dir) in
        Alcotest.(check int)
          (Printf.sprintf "crash at %d resumes the manifest on disk" k)
          gen (Sv.generation srv');
        Alcotest.(check bool) "with a resident state" true (Sv.state srv' <> None);
        check_exactly_referenced (Printf.sprintf "crash at %d swept" k) dir)
  done;
  Alcotest.(check bool) "some crash left an orphan beside the old manifest" true
    (!old_with_orphan > 0)

(* resuming from [dir] logs a cold start, then serves an edit *)
let check_logged_cold_start dir =
  let warned = ref [] in
  let cfg = { (state_cfg dir) with Sv.sv_log = (fun m -> warned := m :: !warned) } in
  let srv = create_exn ~resume:true cfg in
  Alcotest.(check bool) "cold start" true (Sv.state srv = None);
  Alcotest.(check bool) "logged" true
    (List.exists (contains ~sub:"cold start") !warned);
  let j = one_response (Sv.handle_line srv (edit_req 1 base_src)) in
  Alcotest.(check bool) "and serves" true (bool_member "ok" j)

(* The monolithic snapshot format is not read: a version-1 serve.snap is
   a logged cold start. *)
let test_v1_snapshot_cold_start () =
  with_state_dir (fun dir ->
      (match
         C.Snapshot.write ~path:(snap_file dir) ~kind:"serve-state" ~version:1
           "a version-1 payload"
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" (C.Snapshot.error_message e));
      check_logged_cold_start dir)

(* A valid manifest whose resident blob was written under an older
   layout: the blob's version gives it away before its image is
   decoded, so the daemon logs a cold start and serves. *)
let test_stale_blob_cold_start () =
  with_state_dir (fun dir ->
      let srv = create_exn ~resume:false (state_cfg dir) in
      ignore (Sv.handle_line srv (edit_req 1 base_src));
      Sv.finalize srv;
      let blob =
        match manifest dir with
        | [ name ], _ -> Filename.concat (blobs_dir dir) (name ^ ".blob")
        | _ -> Alcotest.fail "expected one referenced blob"
      in
      let version = Sv.blob_version in
      (match
         Result.bind
           (C.Snapshot.read ~path:blob ~kind:"serve-blob" ~version)
           (C.Snapshot.write ~path:blob ~kind:"serve-blob" ~version:(version - 1))
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "restamp: %s" (C.Snapshot.error_message e));
      Sys.remove (Filename.concat dir "journal.jsonl");
      check_logged_cold_start dir)

(* A state dir is resumed only under the configuration and roots it was
   written under: a --resume under PTA over a SkipFlow dir logs the
   mismatch and answers what a fresh PTA session answers, not the
   journaled SkipFlow responses. *)
let test_resume_other_config_starts_fresh () =
  let lines = [ edit_req 1 base_src; op_req 2 "analyze" ] in
  let pta = { quiet_cfg with Sv.sv_config = C.Config.pta } in
  let fresh_pta = run_all (create_exn ~resume:false pta) lines in
  with_state_dir (fun dir ->
      ignore (run_all (create_exn ~resume:false (state_cfg dir)) lines);
      let warned = ref [] in
      let srv =
        create_exn ~resume:true
          { pta with
            Sv.sv_state_dir = Some dir;
            sv_log = (fun m -> warned := m :: !warned);
          }
      in
      Alcotest.(check (list string)) "answers as a fresh PTA session" fresh_pta
        (run_all srv lines);
      Alcotest.(check bool) "the mismatch is logged" true
        (List.exists (contains ~sub:"another configuration") !warned);
      Alcotest.(check bool) "and names this run's configuration" true
        (List.exists (contains ~sub:"predicates=false") !warned))

(* Without a manifest nothing says whose a journal is: a --resume under
   PTA over a SkipFlow dir whose manifest is gone (a kill between the
   first journal append and the first snapshot leaves such a dir) drops
   the journal, logs it, and answers as a fresh PTA session. *)
let test_resume_without_manifest_drops_journal () =
  let lines = [ edit_req 1 base_src; op_req 2 "analyze" ] in
  let pta = { quiet_cfg with Sv.sv_config = C.Config.pta } in
  let fresh_pta = run_all (create_exn ~resume:false pta) lines in
  with_state_dir (fun dir ->
      ignore (run_all (create_exn ~resume:false (state_cfg dir)) lines);
      Sys.remove (snap_file dir);
      let warned = ref [] in
      let srv =
        create_exn ~resume:true
          { pta with
            Sv.sv_state_dir = Some dir;
            sv_log = (fun m -> warned := m :: !warned);
          }
      in
      Alcotest.(check (list string)) "answers as a fresh PTA session" fresh_pta
        (run_all srv lines);
      Alcotest.(check bool) "the dropped journal is logged" true
        (List.exists (contains ~sub:"journal not replayed") !warned))

(* A start without --resume empties the state dir, so a later --resume
   replays this session's journal, not an older session's lines ahead
   of it. *)
let test_fresh_start_empties_dir () =
  let lines = [ edit_req 1 base_src; op_req 2 "analyze" ] in
  with_state_dir (fun dir ->
      ignore (run_all (create_exn ~resume:false (state_cfg dir)) [ edit_req 1 dead_edit ]);
      let second = run_all (create_exn ~resume:false (state_cfg dir)) lines in
      Alcotest.(check (list string)) "the resume replays the second session"
        second
        (run_all (create_exn ~resume:true (state_cfg dir)) lines))

(* An edit that only moves code is a full solve, so positions in a
   following lint are the edited source's, as in a fresh lint. *)
let test_lint_after_line_shift () =
  let base =
    In_channel.with_open_bin "../examples/lint_demo.mj" In_channel.input_all
  in
  let shifted = "\n\n" ^ base in
  let result j =
    match K.Json.member "result" j with
    | Some r -> r
    | None -> Alcotest.fail "response has no result"
  in
  let srv = create_exn ~resume:false quiet_cfg in
  ignore (Sv.handle_line srv (edit_req 1 base));
  let j = one_response (Sv.handle_line srv (edit_req 2 shifted)) in
  Alcotest.(check string) "a line-shifting edit" "full"
    (str_member "strategy" (result j));
  let lint = result (one_response (Sv.handle_line srv (op_req 3 "lint"))) in
  let served =
    match K.Json.member "findings" lint with
    | Some f -> K.Json.to_compact_string f
    | None -> Alcotest.fail "lint response has no findings"
  in
  let engine = fresh_engine ~source:shifted ~roots:[] in
  let roots = Result.get_ok (Api.resolve_roots (C.Engine.prog_of engine) []) in
  let fresh = K.Checks.run (K.Checks.make_ctx ~engine ~roots) in
  Alcotest.(check bool) "the demo has findings" true (fresh <> []);
  Alcotest.(check string) "findings match a fresh lint"
    (K.Json.to_compact_string (K.Finding.list_to_json fresh))
    served

(* A snapshot that fails (disk full) leaves the resident state marked
   dirty, so the next request retries it — even a read. *)
let test_failed_snapshot_retried () =
  with_state_dir (fun dir ->
      let srv = create_exn ~resume:false (state_cfg dir) in
      ignore (Sv.handle_line srv (edit_req 1 base_src));
      Alcotest.(check int) "the edit wrote generation 1" 1 (snd (manifest dir));
      C.Io.with_plan
        (C.Io.plan ~rate:1 ~faults:[ C.Io.F_enospc ] ~seed:1 ())
        (fun () -> ignore (Sv.handle_line srv (edit_req 2 dead_edit)));
      Alcotest.(check int) "the full disk refused generation 2" 1
        (snd (manifest dir));
      ignore (Sv.handle_line srv (op_req 3 "health"));
      Alcotest.(check int) "the next request wrote it" 2 (snd (manifest dir)))

let suite =
  ( "serve",
    [
      Alcotest.test_case "protocol: request parsing" `Quick test_parse_requests;
      Alcotest.test_case "protocol: facade error matrix" `Quick
        test_api_error_matrix;
      Alcotest.test_case "protocol: serve error matrix" `Quick
        test_serve_error_matrix;
      Alcotest.test_case "incremental matches fresh over the edit corpus"
        `Quick test_incremental_matches_fresh;
      Alcotest.test_case "reuse and redrain are certified" `Quick
        test_incremental_verified_flag;
      Alcotest.test_case "a redrain after a reuse solves the edited body"
        `Quick test_redrain_after_reuse;
      Alcotest.test_case "fingerprints change with the edited method only"
        `Quick test_fingerprints_track_edits;
      Alcotest.test_case "structured errors, daemon survives them all" `Quick
        test_server_structured_errors;
      Alcotest.test_case "deadline trips roll the resident state back" `Quick
        test_deadline_rollback;
      Alcotest.test_case "a reuse edit under deadline_ms 0 still answers reuse (verified)"
        `Quick test_reuse_under_zero_deadline;
      Alcotest.test_case "memory ceiling sheds with a retry hint" `Quick
        test_memory_ceiling_shedding;
      Alcotest.test_case "kill -9 / resume replays byte-identically" `Quick
        test_kill_resume_byte_identical;
      Alcotest.test_case "reads leave the resident engine unchanged" `Quick
        test_reads_leave_engine_unchanged;
      Alcotest.test_case "a revert reuses the replaced state" `Quick
        test_revert_reuses_replaced_state;
      Alcotest.test_case "corrupt snapshot falls back to a cold start" `Quick
        test_corrupt_snapshot_cold_start;
      Alcotest.test_case "blobs/ holds exactly the referenced blobs" `Quick
        test_blobs_exactly_referenced;
      Alcotest.test_case "a memo hit writes only the manifest" `Quick
        test_memo_hit_one_write;
      Alcotest.test_case "crash between blob and manifest resumes, sweeps" `Quick
        test_crash_between_blob_and_manifest;
      Alcotest.test_case "a version-1 snapshot is a logged cold start" `Quick
        test_v1_snapshot_cold_start;
      Alcotest.test_case "a stale-version blob is a logged cold start" `Quick
        test_stale_blob_cold_start;
      Alcotest.test_case "a resume under another configuration starts fresh"
        `Quick test_resume_other_config_starts_fresh;
      Alcotest.test_case "a resume without a manifest drops the journal" `Quick
        test_resume_without_manifest_drops_journal;
      Alcotest.test_case "a non-resumed start empties the state dir" `Quick
        test_fresh_start_empties_dir;
      Alcotest.test_case "a failed snapshot is retried by the next request"
        `Quick test_failed_snapshot_retried;
      Alcotest.test_case "lint after a line-shifting edit matches a fresh lint"
        `Quick test_lint_after_line_shift;
    ] )
