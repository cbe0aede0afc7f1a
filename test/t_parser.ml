(* Parser unit tests: precedence, statement disambiguation, error
   reporting, and pretty-printer round-trips (including on generated
   benchmark programs). *)

module P = Skipflow_frontend.Parser
module A = Skipflow_frontend.Ast
module PP = Skipflow_frontend.Ast_pp
module W = Skipflow_workloads

(* parse a single expression by wrapping it in a method *)
let parse_expr src =
  let prog =
    P.parse_program (Printf.sprintf "class X { int m() { return %s; } }" src)
  in
  match prog with
  | [ { A.cd_meths = [ { A.md_body = [ { A.s = A.Return (Some e); _ } ]; _ } ]; _ } ] -> e
  | _ -> Alcotest.fail "unexpected parse shape"

(* strip positions so ASTs compare structurally *)
let rec strip (e : A.expr) : A.expr =
  let n =
    match e.A.e with
    | A.Binop (op, a, b) -> A.Binop (op, strip a, strip b)
    | A.Not a -> A.Not (strip a)
    | A.Neg a -> A.Neg (strip a)
    | A.InstanceOf (a, c) -> A.InstanceOf (strip a, c)
    | A.Call (r, m, args) -> A.Call (Option.map strip r, m, List.map strip args)
    | A.FieldGet (r, f) -> A.FieldGet (strip r, f)
    | A.NewArr (t, n) -> A.NewArr (t, strip n)
    | A.Index (a, i) -> A.Index (strip a, strip i)
    | A.Cast (t, a) -> A.Cast (t, strip a)
    | (A.Int _ | A.Bool _ | A.Null | A.This | A.Ident _ | A.New _) as n -> n
  in
  { A.e = n; pos = { line = 0; col = 0 } }

let expr_eq a b = strip a = strip b

let check_expr_parses_as src expected_src =
  let a = parse_expr src and b = parse_expr expected_src in
  if not (expr_eq a b) then
    Alcotest.failf "%s did not parse like %s" src expected_src

let test_precedence () =
  check_expr_parses_as "1 + 2 * 3" "1 + (2 * 3)";
  check_expr_parses_as "1 * 2 + 3" "(1 * 2) + 3";
  check_expr_parses_as "1 - 2 - 3" "(1 - 2) - 3";
  check_expr_parses_as "a < b == c < d" "(a < b) == (c < d)";
  check_expr_parses_as "a == b && c == d" "(a == b) && (c == d)";
  check_expr_parses_as "a && b || c && d" "(a && b) || (c && d)";
  check_expr_parses_as "!a && b" "(!a) && b";
  check_expr_parses_as "1 + 2 % 3" "1 + (2 % 3)"

let test_postfix_chains () =
  check_expr_parses_as "a.b.c" "(a.b).c";
  check_expr_parses_as "a.m().f" "(a.m()).f";
  check_expr_parses_as "new C().m(1, 2).g" "((new C()).m(1, 2)).g"

let test_instanceof () =
  check_expr_parses_as "x instanceof T == true" "(x instanceof T) == true";
  check_expr_parses_as "x + 1 instanceof T" "(x + 1) instanceof T"

let test_negative_literals () =
  (* unary minus on literals folds to a negative constant *)
  match (parse_expr "-5").A.e with
  | A.Int (-5) -> ()
  | _ -> Alcotest.fail "expected folded Int (-5)"

let test_stmt_disambiguation () =
  let prog =
    P.parse_program
      {|
class X {
  void m() {
    C x = null;
    int y = 1;
    y = 2;
    x.f = null;
    x.g();
  }
}|}
  in
  match prog with
  | [ { A.cd_meths = [ { A.md_body = stmts; _ } ]; _ } ] ->
      let kinds =
        List.map
          (fun (s : A.stmt) ->
            match s.A.s with
            | A.LocalDecl _ -> "decl"
            | A.AssignLocal _ -> "assign"
            | A.AssignField _ -> "fset"
            | A.ExprStmt _ -> "expr"
            | _ -> "other")
          stmts
      in
      Alcotest.(check (list string)) "statement kinds"
        [ "decl"; "decl"; "assign"; "fset"; "expr" ]
        kinds
  | _ -> Alcotest.fail "unexpected parse shape"

let test_else_if_chain () =
  let prog =
    P.parse_program
      "class X { void m(int a) { if (a < 1) { } else if (a < 2) { } else { } } }"
  in
  match prog with
  | [ { A.cd_meths = [ { A.md_body = [ { A.s = A.If (_, _, [ { A.s = A.If (_, _, els); _ } ]); _ } ]; _ } ]; _ } ]
    ->
      Alcotest.(check int) "final else present" 0 (List.length els - List.length els)
  | _ -> Alcotest.fail "else-if chain shape"

let test_class_decls () =
  let prog =
    P.parse_program
      {|
abstract class A { var int x; int m(int a, boolean b) { return a; } }
class B extends A { static void s() { return; } C c; }
|}
  in
  match prog with
  | [ a; b ] ->
      Alcotest.(check bool) "A abstract" true a.A.cd_abstract;
      Alcotest.(check (option string)) "B extends A" (Some "A") b.A.cd_super;
      Alcotest.(check int) "A fields" 1 (List.length a.A.cd_fields);
      Alcotest.(check int) "B fields (typed decl without var)" 1 (List.length b.A.cd_fields);
      let m = List.hd a.A.cd_meths in
      Alcotest.(check int) "m params" 2 (List.length m.A.md_params);
      Alcotest.(check bool) "s static" true (List.hd b.A.cd_meths).A.md_static
  | _ -> Alcotest.fail "expected two classes"

let test_syntax_errors () =
  let fails src = match P.parse_program src with exception P.Error _ -> true | _ -> false in
  Alcotest.(check bool) "missing brace" true (fails "class X {");
  Alcotest.(check bool) "missing semi" true (fails "class X { void m() { int x = 1 } }");
  Alcotest.(check bool) "stray token at top" true (fails "42");
  Alcotest.(check bool) "bad assignment target" true
    (fails "class X { void m() { 1 = 2; } }");
  Alcotest.(check bool) "if without parens" true
    (fails "class X { void m() { if 1 < 2 { } } }")

(* -------- round trip: parse (pp (parse src)) = parse src ------------- *)

let roundtrip_program src =
  let p1 = P.parse_program src in
  let printed = PP.to_string p1 in
  let p2 =
    try P.parse_program printed
    with P.Error (m, pos) ->
      Alcotest.failf "re-parse failed at %d:%d: %s\n%s" pos.Skipflow_frontend.Lexer.line
        pos.Skipflow_frontend.Lexer.col m printed
  in
  let printed2 = PP.to_string p2 in
  Alcotest.(check string) "pretty-print fixpoint" printed printed2

let test_roundtrip_handwritten () =
  roundtrip_program
    {|
abstract class Shape { var int area; int grow(int by) { return this.area + by; } }
class Circle extends Shape {
  int grow(int by) {
    int a = 0 - 3;
    boolean big = this.area >= 100 || by != 0 && !(this instanceof Circle);
    while (a < by) { a = a + 1; }
    if (big) { return a * 2; } else { return a % 7; }
  }
}
class Main { static void main() { Shape s = new Circle(); int r = s.grow(5); } }
|}

let test_roundtrip_generated () =
  (* the benchmark generator's output must round-trip through the printer *)
  List.iter
    (fun seed ->
      let params = { W.Gen.default_params with W.Gen.seed; live_units = 6; dead_units = 3 } in
      roundtrip_program (W.Gen.source params))
    [ 1; 2; 3 ]

let test_roundtrip_random () =
  List.iter
    (fun seed ->
      let cfg = { W.Gen_random.default_cfg with W.Gen_random.seed } in
      roundtrip_program (PP.to_string (W.Gen_random.generate cfg)))
    [ 10; 11; 12; 13; 14 ]

(* ---------------------- recovery and diagnostics ---------------------- *)

module D = Skipflow_frontend.Diag

let test_recovery_accumulates () =
  (* two independent statement-level errors in one method: both reported,
     and the malformed statements do not desynchronize the rest *)
  let src =
    "class A {\n  int f(int x) {\n    int y = x +;\n    int z = 1;\n    return )z;\n  }\n}\n"
  in
  let classes, ds = P.parse_program_diags src in
  Alcotest.(check int) "both errors reported" 2 (List.length ds);
  Alcotest.(check int) "class still parsed" 1 (List.length classes);
  List.iter
    (fun (d : D.t) -> Alcotest.(check bool) "syntax stage" true (d.D.stage = D.Syntax))
    ds;
  (* spans point at the offending lines *)
  Alcotest.(check (list int)) "lines" [ 3; 5 ]
    (List.map (fun (d : D.t) -> d.D.pos.Skipflow_frontend.Lexer.line) ds)

let test_recovery_member_and_class () =
  (* a broken member resynchronizes to the next member; a broken class to
     the next class *)
  let src =
    "class A {\n  int int;\n  int ok() { return 1; }\n}\nclass % {\n}\nclass B { }\n"
  in
  let classes, ds = P.parse_program_diags src in
  Alcotest.(check bool) "multiple diagnostics" true (List.length ds >= 2);
  let names = List.map (fun (c : A.class_decl) -> c.A.cd_name) classes in
  Alcotest.(check bool) "A survived" true (List.mem "A" names);
  Alcotest.(check bool) "B survived" true (List.mem "B" names);
  let a = List.find (fun (c : A.class_decl) -> c.A.cd_name = "A") classes in
  Alcotest.(check int) "A.ok recovered" 1 (List.length a.A.cd_meths)

let test_lexical_error_wins () =
  (* a syntax error on line 2 comes first, but the lexical error on line 3
     is the single diagnostic, and the error compile raises *)
  let src =
    "class Main {\n  static void main() { int x = 1 }\n  static void g() { int y = 2; # }\n}\n"
  in
  let classes, ds = P.parse_program_diags src in
  Alcotest.(check int) "no classes" 0 (List.length classes);
  (match ds with
  | [ d ] ->
      Alcotest.(check bool) "lexical stage" true (d.D.stage = D.Lexical);
      Alcotest.(check (pair int int)) "at the '#'" (3, 32)
        (d.D.pos.Skipflow_frontend.Lexer.line, d.D.pos.Skipflow_frontend.Lexer.col)
  | _ -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
  match Skipflow_frontend.Frontend.compile src with
  | _ -> Alcotest.fail "compile accepted a lexically broken program"
  | exception Skipflow_frontend.Frontend.Error msg ->
      Alcotest.(check string) "compile reports the lexical error"
        "3:32: lexical error: unexpected character '#'" msg

let test_clean_parse_no_diags () =
  let src = "class A { int f() { return 1; } }" in
  let classes, ds = P.parse_program_diags src in
  Alcotest.(check int) "no diagnostics" 0 (List.length ds);
  Alcotest.(check int) "one class" 1 (List.length classes)

let test_render_caret () =
  let src = "class A {\n  int f() { return }; }\n}\n" in
  let _, ds = P.parse_program_diags src in
  Alcotest.(check bool) "has diagnostics" true (ds <> []);
  let text = Format.asprintf "%a" (fun ppf -> D.render ~file:"t.mj" ~src ppf) (List.hd ds) in
  Alcotest.(check bool) "header" true
    (String.length text > 0 && String.sub text 0 5 = "t.mj:");
  Alcotest.(check bool) "caret line" true (String.contains text '^')

(* [Frontend.compile] is [compile_diags] with the first diagnostic
   raised: on every broken input it says what the CLI says first,
   unterminated class bodies and blocks included. *)
let test_compile_raises_first_diag () =
  let wrap body = Printf.sprintf "class C { var int f; %s }" body in
  List.iter
    (fun src ->
      let expected =
        match Skipflow_frontend.Frontend.compile_diags src with
        | Ok _ -> Alcotest.failf "compile_diags accepted %S" src
        | Error ds -> Format.asprintf "%a" D.pp (List.hd ds)
      in
      match Skipflow_frontend.Frontend.compile src with
      | _ -> Alcotest.failf "compile accepted %S" src
      | exception Skipflow_frontend.Frontend.Error msg ->
          Alcotest.(check string) src expected msg)
    [ (* unterminated class body and blocks *)
      "class X {";
      "class X { void m() {";
      "class X { void m() { int x = 1; ";
      (* syntax and lexical errors *)
      "class X { void m() { int x = 1 } }";
      "42";
      "class X { void m() { 1 = 2; } }";
      "class X { void m() { if 1 < 2 { } } }";
      "class Main {\n  static void main() { int x = 1 }\n  static void g() { int y = 2; # }\n}\n";
      (* type errors, in declarations and in bodies *)
      "class A extends B { } class B extends A { }";
      "class A extends Nope { }";
      wrap "void m() { x = 1; }";
      wrap "int m(boolean c) { if (c) { return 1; } }";
      wrap "void m() { if (1) { } } int n() { return true; }";
    ];
  match Skipflow_frontend.Frontend.compile "class X {" with
  | _ -> Alcotest.fail "compile accepted an unterminated class"
  | exception Skipflow_frontend.Frontend.Error msg ->
      Alcotest.(check string) "the CLI's message"
        "1:10: syntax error: expected '}' to close class X but found '<eof>'" msg

let suite =
  ( "parser",
    [
      Alcotest.test_case "precedence" `Quick test_precedence;
      Alcotest.test_case "postfix chains" `Quick test_postfix_chains;
      Alcotest.test_case "instanceof" `Quick test_instanceof;
      Alcotest.test_case "negative literals" `Quick test_negative_literals;
      Alcotest.test_case "statement disambiguation" `Quick test_stmt_disambiguation;
      Alcotest.test_case "else-if chain" `Quick test_else_if_chain;
      Alcotest.test_case "class declarations" `Quick test_class_decls;
      Alcotest.test_case "syntax errors" `Quick test_syntax_errors;
      Alcotest.test_case "roundtrip handwritten" `Quick test_roundtrip_handwritten;
      Alcotest.test_case "roundtrip generated benches" `Quick test_roundtrip_generated;
      Alcotest.test_case "roundtrip random programs" `Quick test_roundtrip_random;
      Alcotest.test_case "recovery accumulates statement errors" `Quick
        test_recovery_accumulates;
      Alcotest.test_case "recovery at member and class boundaries" `Quick
        test_recovery_member_and_class;
      Alcotest.test_case "lexical error after a syntax error wins" `Quick
        test_lexical_error_wins;
      Alcotest.test_case "clean parse has no diagnostics" `Quick test_clean_parse_no_diags;
      Alcotest.test_case "caret rendering" `Quick test_render_caret;
      Alcotest.test_case "compile raises the first diagnostic" `Quick
        test_compile_raises_first_diag;
    ] )
