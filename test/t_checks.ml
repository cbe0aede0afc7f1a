(* The lint subsystem (lib/checks): the JSON layer round-trips, the check
   registry honors selection, findings carry spans that match the golden
   CI output for the example programs, and the Diag additions (Note
   severity, warning/note constructors, position-stable render_all) behave.

   The golden files under test/golden/ are byte-for-byte what
   `skipflow lint <example> --format json --fail-on never` prints, and
   the [*.analyze.json] ones what `skipflow analyze <program> --format
   json --no-timings -a <analysis>` prints (their [binary_size] and
   [flows] follow the shape of the lowered IR); the CI workflow diffs the
   same outputs, so a change in lint or analysis behavior must update
   both in one commit. *)

module C = Skipflow_core
module F = Skipflow_frontend
module K = Skipflow_checks

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* cwd at test runtime is _build/default/test *)
let example name = "../examples/" ^ name
let golden name = "golden/" ^ name

let lint_src src =
  let prog = F.Frontend.compile src in
  let main = Option.get (F.Frontend.main_of prog) in
  let r = C.Analysis.run ~config:C.Config.skipflow prog ~roots:[ main ] in
  let ctx = K.Checks.make_ctx ~engine:r.C.Analysis.engine ~roots:[ main ] in
  K.Checks.run ctx

let lint_file path = lint_src (read_file path)

(* ----- golden files: same JSON the CLI prints ----- *)

(* each example also with CRLF line ends, against the same golden *)
let check_golden ~example_file ~golden_file () =
  let src = read_file (example example_file) in
  let crlf = String.concat "\r\n" (String.split_on_char '\n' src) in
  List.iter
    (fun (eol, src) ->
      let json =
        K.Finding.document_to_json ~file:example_file
          ~analysis:(C.Config.name C.Config.skipflow) (lint_src src)
      in
      Alcotest.(check string)
        (Printf.sprintf "%s (%s) lint output matches golden" example_file eol)
        (read_file (golden golden_file))
        (K.Json.to_string json))
    [ ("LF", src); ("CRLF", crlf) ]

(* ----- analyze goldens: the CLI's own output ----- *)

let exe = Filename.concat (Sys.getcwd ()) "../bin/skipflow.exe"

let cli_stdout ~dir args =
  let out = Filename.concat dir "stdout" in
  let cmd =
    Printf.sprintf "%s %s > %s" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  if Sys.command cmd <> 0 then Alcotest.failf "%s failed" cmd;
  read_file out

let with_temp_dir f =
  let dir = Filename.temp_dir "skipflow-golden" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* [program dir] is the path of the program to analyze; the golden is
   [<name>.<analysis>.analyze.json] for both analyses *)
let check_analyze_golden ~name program () =
  with_temp_dir (fun dir ->
      let path = program dir in
      List.iter
        (fun analysis ->
          Alcotest.(check string)
            (Printf.sprintf "%s under %s matches its analyze golden" name analysis)
            (read_file (golden (Printf.sprintf "%s.%s.analyze.json" name analysis)))
            (cli_stdout ~dir
               [ "analyze"; path; "--format"; "json"; "--no-timings"; "-a"; analysis ]))
        [ "skipflow"; "pta" ])

let generated_luindex dir =
  let path = Filename.concat dir "luindex.mj" in
  ignore (cli_stdout ~dir [ "gen"; "--bench"; "luindex"; "-o"; path ]);
  path

let test_demo_covers_all_checks () =
  let findings = lint_file (example "lint_demo.mj") in
  let kinds =
    List.sort_uniq String.compare (List.map (fun f -> f.K.Finding.check) findings)
  in
  Alcotest.(check (list string))
    "every registered check fires on the demo program"
    (List.sort String.compare (List.map (fun c -> c.K.Checks.id) K.Checks.all))
    kinds;
  Alcotest.(check bool) "every finding carries a span" true
    (List.for_all (fun f -> f.K.Finding.span <> None) findings)

(* ----- JSON round-trip ----- *)

let test_json_roundtrip () =
  let findings = lint_file (example "lint_demo.mj") in
  Alcotest.(check bool) "demo program yields findings" true (findings <> []);
  let reparsed =
    K.Finding.list_of_json
      (K.Json.of_string (K.Json.to_string (K.Finding.list_to_json findings)))
  in
  Alcotest.(check bool) "parse . print = id on findings" true (reparsed = findings)

let test_json_parse_errors () =
  let rejects s =
    Alcotest.(check bool)
      (Printf.sprintf "rejects %S" s)
      true
      (try
         ignore (K.Json.of_string s);
         false
       with K.Json.Parse_error _ -> true)
  in
  List.iter rejects [ ""; "{"; "[1,]"; "1.5"; "{\"a\" 1}"; "[1] trailing" ];
  Alcotest.(check bool) "accepts nested"
    true
    (K.Json.of_string "{\"a\": [1, null, true, \"x\"]}"
    = K.Json.Obj
        [ ("a", K.Json.Arr [ K.Json.Int 1; K.Json.Null; K.Json.Bool true; K.Json.Str "x" ]) ])

(* ----- registry selection ----- *)

let test_check_selection () =
  let src = read_file (example "lint_demo.mj") in
  let prog = F.Frontend.compile src in
  let main = Option.get (F.Frontend.main_of prog) in
  let r = C.Analysis.run ~config:C.Config.skipflow prog ~roots:[ main ] in
  let ctx = K.Checks.make_ctx ~engine:r.C.Analysis.engine ~roots:[ main ] in
  let only = K.Checks.run ~only:[ "dead-method"; "devirtualize" ] ctx in
  Alcotest.(check bool) "selection yields findings" true (only <> []);
  Alcotest.(check bool) "only selected checks fire" true
    (List.for_all
       (fun f -> List.mem f.K.Finding.check [ "dead-method"; "devirtualize" ])
       only);
  Alcotest.(check bool) "unknown check raises" true
    (try
       ignore (K.Checks.find "no-such-check");
       false
     with K.Checks.Unknown_check "no-such-check" -> true)

(* ----- severity machinery ----- *)

let test_severity () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (K.Finding.severity_name s ^ " round-trips")
        true
        (K.Finding.severity_of_name (K.Finding.severity_name s) = Some s))
    [ K.Finding.Error; K.Finding.Warning; K.Finding.Note ];
  Alcotest.(check bool) "unknown severity name" true
    (K.Finding.severity_of_name "fatal" = None);
  Alcotest.(check bool) "ranks order Note < Warning < Error" true
    (K.Finding.severity_rank K.Finding.Note < K.Finding.severity_rank K.Finding.Warning
    && K.Finding.severity_rank K.Finding.Warning < K.Finding.severity_rank K.Finding.Error)

(* ----- Diag: Note severity and position-stable rendering ----- *)

let test_diag_note_and_order () =
  let pos line col = { F.Lexer.line; col } in
  let d_err = F.Diag.error ~stage:F.Diag.Type (pos 5 3) "type mismatch" in
  let d_warn = F.Diag.warning ~stage:F.Diag.Lint (pos 2 1) "dead branch" in
  let d_note = F.Diag.note ~stage:F.Diag.Lint (pos 2 9) "devirtualizable" in
  Alcotest.(check bool) "note is not an error" false (F.Diag.is_error d_note);
  Alcotest.(check bool) "warning is not an error" false (F.Diag.is_error d_warn);
  let src = "line one\nline two!\n\n\nline 5\n" in
  let text =
    Format.asprintf "%a" (F.Diag.render_all ~file:"x.mj" ~src) [ d_err; d_note; d_warn ]
  in
  let index needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = if i + nl > tl then -1 else if String.sub text i nl = needle then i else go (i + 1) in
    go 0
  in
  let i_warn = index "x.mj:2:1" and i_note = index "x.mj:2:9" and i_err = index "x.mj:5:3" in
  Alcotest.(check bool) "all three rendered" true (i_warn >= 0 && i_note >= 0 && i_err >= 0);
  Alcotest.(check bool) "rendered in source order" true (i_warn < i_note && i_note < i_err);
  Alcotest.(check bool) "note severity named" true (index "note:" >= 0)

let suite =
  ( "checks",
    [
      Alcotest.test_case "golden: lint_demo.mj" `Quick
        (check_golden ~example_file:"lint_demo.mj" ~golden_file:"lint_demo.json");
      Alcotest.test_case "golden: threads.mj" `Quick
        (check_golden ~example_file:"threads.mj" ~golden_file:"threads.json");
      Alcotest.test_case "analyze golden: lint_demo.mj" `Quick
        (check_analyze_golden ~name:"lint_demo" (fun _ -> example "lint_demo.mj"));
      Alcotest.test_case "analyze golden: threads.mj" `Quick
        (check_analyze_golden ~name:"threads" (fun _ -> example "threads.mj"));
      Alcotest.test_case "analyze golden: gen --bench luindex" `Quick
        (check_analyze_golden ~name:"luindex" generated_luindex);
      Alcotest.test_case "demo fires every check kind" `Quick test_demo_covers_all_checks;
      Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
      Alcotest.test_case "JSON parse errors" `Quick test_json_parse_errors;
      Alcotest.test_case "check selection" `Quick test_check_selection;
      Alcotest.test_case "severity names and ranks" `Quick test_severity;
      Alcotest.test_case "diag note + stable order" `Quick test_diag_note_and_order;
    ] )
