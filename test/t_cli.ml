(* End-to-end CLI contract tests against the built binary:

   - the exit-code matrix — every [Api.error] variant maps to its
     documented code, and under [--format json] the error is a
     machine-readable JSON object on stdout with nothing on stderr;
   - pause-on-budget via [--snapshot] (exit 3) and [--resume-from]
     reaching the same result as an uninterrupted run, with corrupt
     snapshots falling back to a full solve;
   - [skipflow batch]: journal + [--resume] reproduces the uninterrupted
     summary byte for byte, and a result cache turns the second run into
     hits. *)

module K = Skipflow_checks

let exe =
  (* tests run from [_build/default/test]; fall back to PATH-relative if
     the layout ever changes *)
  let candidate = Filename.concat (Sys.getcwd ()) "../bin/skipflow.exe" in
  if Sys.file_exists candidate then candidate else "skipflow"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let in_temp_dir f =
  let dir = Filename.temp_dir "skipflow-cli" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(** Run the binary; returns (exit code, stdout, stderr). *)
let run_cli ~dir args =
  let out = Filename.concat dir "cli.out"
  and err = Filename.concat dir "cli.err" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s"
      (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  (code, read_file out, read_file err)

let main_src = "class Main { static void main() { int x = 1; } }\n"
let no_main_src = "class Helper { int f() { return 1; } }\n"
let bad_src = "class Main { static void main() { int x = ; } }\n"

let json_of ~ctx s =
  match K.Json.of_string (String.trim s) with
  | j -> j
  | exception K.Json.Parse_error msg ->
      Alcotest.failf "%s: stdout is not JSON (%s): %s" ctx msg s

let str_member ~ctx name j =
  match K.Json.member name j with
  | Some (K.Json.Str s) -> s
  | _ -> Alcotest.failf "%s: missing string field %S" ctx name

let int_member ~ctx name j =
  match K.Json.member name j with
  | Some (K.Json.Int n) -> n
  | _ -> Alcotest.failf "%s: missing int field %S" ctx name

(* Every error variant, from analyze and from lint: documented exit code,
   JSON error object on stdout, empty stderr. *)
let test_json_error_matrix () =
  in_temp_dir (fun dir ->
      let ok_mj = Filename.concat dir "ok.mj" in
      let bad_mj = Filename.concat dir "bad.mj" in
      let lib_mj = Filename.concat dir "lib.mj" in
      write_file ok_mj main_src;
      write_file bad_mj bad_src;
      write_file lib_mj no_main_src;
      let cases =
        [ (* a directory passes cmdliner's existence check but cannot be
             read as source: Io_error *)
          ("io_error", [ "analyze"; dir; "--format"; "json" ], 2);
          ("compile_error", [ "analyze"; bad_mj; "--format"; "json" ], 2);
          ( "unknown_root",
            [ "analyze"; ok_mj; "--root"; "Nope.x"; "--format"; "json" ],
            2 );
          ("no_main", [ "analyze"; lib_mj; "--format"; "json" ], 2);
          ("io_error", [ "lint"; dir; "--format"; "json" ], 2);
          ("compile_error", [ "lint"; bad_mj; "--format"; "json" ], 2);
          ( "unknown_root",
            [ "lint"; ok_mj; "--root"; "Nope.x"; "--format"; "json" ],
            2 );
          ("no_main", [ "lint"; lib_mj; "--format"; "json" ], 2);
        ]
      in
      List.iter
        (fun (kind, args, expected_code) ->
          let ctx = List.hd args ^ " " ^ kind in
          let code, out, err = run_cli ~dir args in
          Alcotest.(check int) (ctx ^ ": exit code") expected_code code;
          Alcotest.(check string) (ctx ^ ": stderr is empty") "" err;
          let j = json_of ~ctx out in
          Alcotest.(check int)
            (ctx ^ ": schema version")
            K.Json.current_schema_version
            (int_member ~ctx "schema_version" j);
          match K.Json.member "error" j with
          | Some e ->
              Alcotest.(check string) (ctx ^ ": kind") kind
                (str_member ~ctx "kind" e);
              Alcotest.(check int)
                (ctx ^ ": embedded exit code matches real one")
                expected_code
                (int_member ~ctx "exit_code" e);
              Alcotest.(check bool)
                (ctx ^ ": has a message")
                true
                (String.length (str_member ~ctx "message" e) > 0);
              if kind = "compile_error" then (
                match K.Json.member "diags" e with
                | Some (K.Json.Arr (_ :: _)) -> ()
                | _ -> Alcotest.failf "%s: no diagnostics" ctx)
          | None -> Alcotest.failf "%s: no error object: %s" ctx out)
        cases;
      (* the same errors in text mode land on stderr and keep the codes *)
      let code, _, err = run_cli ~dir [ "analyze"; bad_mj ] in
      Alcotest.(check int) "text compile_error exit" 2 code;
      Alcotest.(check bool) "text error on stderr" true
        (String.length err > 0);
      (* the success path: exit 0, a completed schema-versioned summary *)
      let code, out, err = run_cli ~dir [ "analyze"; ok_mj; "--format"; "json" ] in
      Alcotest.(check int) "success exit" 0 code;
      Alcotest.(check string) "success stderr empty" "" err;
      let j = json_of ~ctx:"success" out in
      Alcotest.(check string) "outcome completed" "completed"
        (str_member ~ctx:"success" "outcome" j))

(* A budget trip with [--snapshot] pauses (exit 3) and writes a resumable
   state file; [--resume-from] finishes to the same metrics as an
   uninterrupted run; a corrupted snapshot falls back to a full solve
   with a warning. *)
let test_snapshot_pause_resume_cli () =
  in_temp_dir (fun dir ->
      let big = Filename.concat dir "big.mj" in
      let code, _, _ = run_cli ~dir [ "gen"; "-o"; big; "--seed"; "11" ] in
      Alcotest.(check int) "gen exits 0" 0 code;
      let metrics_of out =
        let j = json_of ~ctx:"summary" out in
        match K.Json.member "metrics" j with
        | Some m -> K.Json.to_string m
        | None -> Alcotest.fail "summary has no metrics"
      in
      let code, straight_out, _ =
        run_cli ~dir [ "analyze"; big; "--format"; "json" ]
      in
      Alcotest.(check int) "straight run exits 0" 0 code;
      let snap = Filename.concat dir "state.snap" in
      let code, _, err =
        run_cli ~dir
          [ "analyze"; big; "--max-tasks"; "500"; "--snapshot"; snap;
            "--format"; "json" ]
      in
      Alcotest.(check int) "paused run exits 3" 3 code;
      Alcotest.(check bool) "pause reported" true
        (String.length err > 0 && Sys.file_exists snap);
      let code, resumed_out, _ =
        run_cli ~dir [ "analyze"; big; "--resume-from"; snap; "--format"; "json" ]
      in
      Alcotest.(check int) "resumed run exits 0" 0 code;
      Alcotest.(check string) "resumed metrics equal straight metrics"
        (metrics_of straight_out) (metrics_of resumed_out);
      (* truncate the snapshot: the run must warn and fall back *)
      let intact = read_file snap in
      write_file snap (String.sub intact 0 (String.length intact / 2));
      let code, fallback_out, err =
        run_cli ~dir [ "analyze"; big; "--resume-from"; snap; "--format"; "json" ]
      in
      Alcotest.(check int) "fallback run exits 0" 0 code;
      Alcotest.(check bool) "fallback warned" true
        (String.length err > 0);
      Alcotest.(check string) "fallback metrics equal straight metrics"
        (metrics_of straight_out) (metrics_of fallback_out))

(* Batch: an interrupted journal resumed with [--resume] reproduces the
   uninterrupted summary byte for byte ([--no-timings] zeroes the only
   nondeterministic field), and a warm cache serves hits. *)
let test_batch_resume_and_cache () =
  in_temp_dir (fun dir ->
      let job i src =
        let p = Filename.concat dir (Printf.sprintf "job%d.mj" i) in
        write_file p src;
        p
      in
      let j0 = job 0 main_src in
      let j1 = job 1 "class A { int f() { return 2; } }\nclass Main { static void main() { A a = new A(); int x = a.f(); } }\n" in
      let j2 = job 2 bad_src in
      let manifest = Filename.concat dir "manifest.txt" in
      write_file manifest
        (String.concat "\n"
           [ Filename.basename j0; "# a comment"; Filename.basename j1;
             Filename.basename j2; "" ]);
      let s_full = Filename.concat dir "full.json" in
      let jl_full = Filename.concat dir "full.jsonl" in
      let code, _, _ =
        run_cli ~dir
          [ "batch"; manifest; "--no-timings"; "--journal"; jl_full; "-o"; s_full ]
      in
      Alcotest.(check int) "batch with a compile error exits 2" 2 code;
      (* keep only the first journal line, as if the run was killed *)
      let lines = String.split_on_char '\n' (read_file jl_full) in
      let jl_part = Filename.concat dir "part.jsonl" in
      write_file jl_part (List.hd lines ^ "\n");
      let s_resumed = Filename.concat dir "resumed.json" in
      let code, _, _ =
        run_cli ~dir
          [ "batch"; manifest; "--no-timings"; "--journal"; jl_part;
            "--resume"; "-o"; s_resumed ]
      in
      Alcotest.(check int) "resumed batch exits 2" 2 code;
      Alcotest.(check string) "resumed summary is byte-identical"
        (read_file s_full) (read_file s_resumed);
      (* a torn trailing journal line is skipped, not fatal *)
      let jl_torn = Filename.concat dir "torn.jsonl" in
      write_file jl_torn (List.hd lines ^ "\n{\"schema_version\":1,\"rec");
      let s_torn = Filename.concat dir "torn.json" in
      let code, _, _ =
        run_cli ~dir
          [ "batch"; manifest; "--no-timings"; "--journal"; jl_torn;
            "--resume"; "-o"; s_torn ]
      in
      Alcotest.(check int) "torn-journal batch exits 2" 2 code;
      Alcotest.(check string) "torn-journal summary matches"
        (read_file s_full) (read_file s_torn);
      (* cache: a second identical run serves the successful jobs as hits *)
      let cache = Filename.concat dir "cache" in
      let s_cold = Filename.concat dir "cold.json" in
      let s_warm = Filename.concat dir "warm.json" in
      ignore
        (run_cli ~dir
           [ "batch"; manifest; "--no-timings"; "--cache"; cache; "-o"; s_cold ]);
      ignore
        (run_cli ~dir
           [ "batch"; manifest; "--no-timings"; "--cache"; cache; "-o"; s_warm ]);
      let hits out =
        int_member ~ctx:"summary" "cache_hits" (json_of ~ctx:"summary" (read_file out))
      in
      Alcotest.(check int) "cold run has no hits" 0 (hits s_cold);
      Alcotest.(check int) "warm run hits both successful jobs" 2 (hits s_warm);
      (* the key is scoped by roots: reusing the cache dir under a
         different --root must never hit — the cached reachable sets were
         computed from other roots *)
      let s_rooted = Filename.concat dir "rooted.json" in
      ignore
        (run_cli ~dir
           [ "batch"; manifest; "--no-timings"; "--cache"; cache; "--root";
             "Main.main"; "-o"; s_rooted ]);
      Alcotest.(check int) "explicit --root shares no entries" 0
        (hits s_rooted);
      (* pretty-printed summaries are one field per line: dropping the
         cache-bookkeeping lines must leave identical analysis results *)
      let scrub path =
        read_file path
        |> String.split_on_char '\n'
        |> List.filter (fun l ->
               let has needle =
                 let rec go i =
                   i + String.length needle <= String.length l
                   && (String.sub l i (String.length needle) = needle
                      || go (i + 1))
                 in
                 go 0
               in
               not (has "\"cache\"" || has "\"attempts\"" || has "\"cache_hits\""))
        |> String.concat "\n"
      in
      Alcotest.(check string) "warm summary matches cold except cache fields"
        (scrub s_cold) (scrub s_warm))

(* Fault isolation: a job that would exceed its per-job watchdog is
   killed and recorded; the batch itself survives and reports it. *)
let test_batch_watchdog () =
  in_temp_dir (fun dir ->
      let big = Filename.concat dir "big.mj" in
      (* the benchmark-sized program takes ~500ms to analyze — an order
         of magnitude past the 50ms watchdog, so the kill is reliable *)
      let code, _, _ = run_cli ~dir [ "gen"; "--bench"; "sunflow"; "-o"; big ] in
      Alcotest.(check int) "gen exits 0" 0 code;
      let quick = Filename.concat dir "quick.mj" in
      write_file quick main_src;
      let manifest = Filename.concat dir "manifest.txt" in
      write_file manifest
        (Filename.basename quick ^ "\n" ^ Filename.basename big ^ "\n");
      let out = Filename.concat dir "summary.json" in
      let qdir = Filename.concat dir "quarantine" in
      let code, _, _ =
        run_cli ~dir
          [ "batch"; manifest; "--no-timings"; "--timeout-per-job"; "0.05";
            "--quarantine"; qdir; "-o"; out ]
      in
      Alcotest.(check int) "batch with a killed job exits 1" 1 code;
      let j = json_of ~ctx:"watchdog" (read_file out) in
      Alcotest.(check int) "quick job still succeeded" 1
        (int_member ~ctx:"watchdog" "ok" j);
      Alcotest.(check int) "timed-out job quarantined" 1
        (int_member ~ctx:"watchdog" "quarantined" j);
      Alcotest.(check bool) "input copied for triage" true
        (Sys.file_exists (Filename.concat qdir ("1-" ^ Filename.basename big))))

(* [skipflow serve] end to end through the binary: a straight session's
   response stream, versus one killed with SIGKILL mid-session and
   restarted with --resume — the re-fed stream must come back byte for
   byte.  The transport, snapshotting, journaling and replay all cross
   the real process boundary here (the in-process variants live in
   t_serve). *)
let test_serve_kill9_resume_cli () =
  in_temp_dir (fun dir ->
      let src = Filename.concat dir "p.mj" in
      let base =
        "class Main { static void main() { Live l = new Live(); int x = \
         l.go(); } }\n\
         class Live { int go() { return 1; } }\n\
         class Dead { int never() { return 2; } }\n"
      in
      write_file src base;
      let edited = base ^ "class Extra { int pad() { return 9; } }\n" in
      let req fields = K.Json.to_compact_string (K.Json.Obj fields) in
      let requests =
        String.concat "\n"
          [ req [ ("op", K.Json.Str "health"); ("id", K.Json.Int 1) ];
            req [ ("op", K.Json.Str "analyze"); ("id", K.Json.Int 2) ];
            req
              [ ("op", K.Json.Str "edit"); ("id", K.Json.Int 3);
                ("source", K.Json.Str edited);
              ];
            req [ ("op", K.Json.Str "analyze"); ("id", K.Json.Int 4) ];
            req
              [ ("op", K.Json.Str "edit"); ("id", K.Json.Int 5);
                ("source", K.Json.Str base);
              ];
            req [ ("op", K.Json.Str "health"); ("id", K.Json.Int 6) ];
          ]
        ^ "\n"
      in
      let reqs = Filename.concat dir "requests.jsonl" in
      write_file reqs requests;
      let sh fmt = Printf.ksprintf (fun cmd -> Sys.command cmd) fmt in
      let straight = Filename.concat dir "straight.out" in
      let code =
        sh "%s serve %s --state %s --no-timings < %s > %s 2>/dev/null"
          (Filename.quote exe) (Filename.quote src)
          (Filename.quote (Filename.concat dir "sA"))
          (Filename.quote reqs) (Filename.quote straight)
      in
      Alcotest.(check int) "straight session exits 0" 0 code;
      (* feed three requests, then hang — the watchdog SIGKILLs the
         daemon mid-session, after snapshots and journal hit disk *)
      let killed =
        sh
          "( head -3 %s; sleep 30 ) | timeout -s KILL 4 %s serve %s --state \
           %s --no-timings > /dev/null 2>&1"
          (Filename.quote reqs) (Filename.quote exe) (Filename.quote src)
          (Filename.quote (Filename.concat dir "sB"))
      in
      Alcotest.(check int) "daemon died by SIGKILL" 137 killed;
      let resumed = Filename.concat dir "resumed.out" in
      let code =
        sh "%s serve --state %s --resume --no-timings < %s > %s 2>/dev/null"
          (Filename.quote exe)
          (Filename.quote (Filename.concat dir "sB"))
          (Filename.quote reqs) (Filename.quote resumed)
      in
      Alcotest.(check int) "resumed session exits 0" 0 code;
      Alcotest.(check string) "replayed responses byte-identical"
        (read_file straight) (read_file resumed))

(* [skipflow batch] under SIGTERM: the driver kills the in-flight worker,
   flushes the journal, and exits 143; a --resume run then finishes only
   the remaining jobs and reaches a complete summary. *)
let test_batch_sigterm_resume () =
  in_temp_dir (fun dir ->
      let big = Filename.concat dir "big.mj" in
      let code, _, _ = run_cli ~dir [ "gen"; "--bench"; "sunflow"; "-o"; big ] in
      Alcotest.(check int) "gen exits 0" 0 code;
      let n_jobs = 8 in
      let manifest = Filename.concat dir "manifest.txt" in
      write_file manifest
        (String.concat ""
           (List.init n_jobs (fun i ->
                let p = Filename.concat dir (Printf.sprintf "job%d.mj" i) in
                write_file p (read_file big);
                Filename.basename p ^ "\n")));
      let journal = Filename.concat dir "journal.jsonl" in
      let code_file = Filename.concat dir "term.code" in
      (* each job takes ~500ms, so at one second in the batch is mid-run;
         a slow machine only makes the race safer *)
      let script =
        Printf.sprintf
          "%s batch %s --journal %s --no-timings -o %s >/dev/null 2>&1 &\n\
           pid=$!\n\
           sleep 1\n\
           kill -TERM $pid\n\
           wait $pid\n\
           echo $? > %s\n"
          (Filename.quote exe) (Filename.quote manifest)
          (Filename.quote journal)
          (Filename.quote (Filename.concat dir "ignored.json"))
          (Filename.quote code_file)
      in
      let sh_file = Filename.concat dir "interrupt.sh" in
      write_file sh_file script;
      let rc = Sys.command (Printf.sprintf "sh %s" (Filename.quote sh_file)) in
      Alcotest.(check int) "interrupt script ran" 0 rc;
      Alcotest.(check string) "batch exited 143 on SIGTERM" "143"
        (String.trim (read_file code_file));
      (* the flushed journal parses line by line *)
      let journaled =
        List.filter (fun l -> String.trim l <> "")
          (String.split_on_char '\n' (read_file journal))
      in
      List.iter (fun l -> ignore (json_of ~ctx:"journal line" l)) journaled;
      Alcotest.(check bool) "interrupt landed mid-batch" true
        (List.length journaled < n_jobs);
      (* no stray worker temp files survive the interrupt *)
      Array.iter
        (fun name ->
          if Filename.check_suffix name ".tmp" then
            Alcotest.failf "stray temp file after interrupt: %s" name)
        (Sys.readdir dir);
      let out = Filename.concat dir "summary.json" in
      let code, _, _ =
        run_cli ~dir
          [ "batch"; manifest; "--journal"; journal; "--resume";
            "--no-timings"; "-o"; out ]
      in
      Alcotest.(check int) "resume completes" 0 code;
      let j = json_of ~ctx:"resume summary" (read_file out) in
      Alcotest.(check int) "all jobs accounted for" n_jobs
        (int_member ~ctx:"resume summary" "jobs" j);
      Alcotest.(check int) "all jobs ok" n_jobs
        (int_member ~ctx:"resume summary" "ok" j))

let suite =
  ( "cli",
    [
      Alcotest.test_case "json error matrix and exit codes" `Quick
        test_json_error_matrix;
      Alcotest.test_case "snapshot pause / resume / corrupt fallback" `Quick
        test_snapshot_pause_resume_cli;
      Alcotest.test_case "batch journal resume and result cache" `Quick
        test_batch_resume_and_cache;
      Alcotest.test_case "batch watchdog contains a slow job" `Quick
        test_batch_watchdog;
      Alcotest.test_case "serve: kill -9 and resume replay byte-identically"
        `Quick test_serve_kill9_resume_cli;
      Alcotest.test_case "batch: SIGTERM flushes the journal and resumes"
        `Quick test_batch_sigterm_resume;
    ] )
