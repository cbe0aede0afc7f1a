(* Type checker tests: accepted programs, rejected programs with the
   expected diagnostic, resolution decisions. *)

module F = Skipflow_frontend

let accepts src =
  match F.Frontend.compile src with
  | _ -> ()
  | exception F.Frontend.Error m -> Alcotest.failf "expected acceptance, got: %s" m

let rejects_with part src =
  match F.Frontend.compile src with
  | _ -> Alcotest.failf "expected a type error mentioning %S" part
  | exception F.Frontend.Error m ->
      let contains s sub =
        let n = String.length s and k = String.length sub in
        let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
        k = 0 || go 0
      in
      if not (contains m part) then Alcotest.failf "error %S does not mention %S" m part

let wrap body = Printf.sprintf "class C { var int f; %s }" body

let test_accepted () =
  accepts (wrap "void m() { }");
  accepts (wrap "int m(int a, int b) { return a + b * 2; }");
  accepts (wrap "boolean m(C other) { return other == null || other == this; }");
  accepts (wrap "int m() { if (this.f > 0) { return 1; } else { return 2; } }");
  accepts (wrap "void m() { while (true) { } }");
  (* non-void method ending in an infinite loop needs no return *)
  accepts (wrap "int m() { while (true) { this.f = this.f + 1; } }");
  accepts
    {|
class A { int m() { return 1; } }
class B extends A { int m() { return 2; } }
class Main { static void main() { A a = new B(); int x = a.m(); } }
|};
  (* assigning a subtype to a supertype location *)
  accepts
    {|
class A { }
class B extends A { }
class Main { static void main() { A a = new B(); a = null; } }
|}

let test_scoping () =
  (* declarations are block-scoped: branch-local vars must not escape
     (this also protects the SSA lowering from undefined reads) *)
  rejects_with "unknown variable"
    (wrap "int m(boolean c) { if (c) { int y = 1; } return y; }");
  rejects_with "unknown variable"
    (wrap "int m() { while (this.f < 3) { int y = 1; } return y; }");
  accepts (wrap "int m(boolean c) { int y = 0; if (c) { y = 1; } return y; }");
  rejects_with "declared twice" (wrap "void m() { int x = 1; int x = 2; }");
  rejects_with "unknown variable" (wrap "void m() { x = 1; }")

(* A block's declarations end with it: sibling blocks may reuse a name,
   a nested block may not redeclare an enclosing one, and a name is
   unknown after its block while the enclosing block's names stay. *)
let test_scopes_end_with_their_block () =
  accepts
    (wrap
       "void m(boolean c) { if (c) { int x = 1; } else { int x = 2; } \
        { int x = 3; } while (c) { int x = 4; } }");
  accepts (wrap "int m(boolean c) { if (c) { int y = 1; { int z = y; } y = 2; } return 0; }");
  rejects_with "variable x declared twice"
    (wrap "void m(boolean c) { int x = 1; if (c) { int x = 2; } }");
  rejects_with "variable y declared twice" (wrap "void m() { { int y = 1; { int y = 2; } } }");
  rejects_with "variable a declared twice" (wrap "void m(int a) { { int a = 1; } }");
  rejects_with "unknown variable x" (wrap "void m() { { int x = 1; } x = 2; }");
  rejects_with "unknown variable z"
    (wrap "void m(boolean c) { if (c) { { int z = 1; } z = 2; } }")

let test_type_errors () =
  rejects_with "cannot assign" (wrap "void m() { int x = 0; x = null; }");
  rejects_with "boolean" (wrap "void m() { if (1) { } }");
  rejects_with "boolean" (wrap "void m() { while (this) { } }");
  rejects_with "cannot compare" (wrap "boolean m() { return this == 1; }");
  rejects_with "non-integer" (wrap "int m() { return -true; }");
  rejects_with "int was expected" (wrap "int m() { return 0 - true; }");
  rejects_with "instanceof" (wrap "boolean m() { return 1 instanceof C; }");
  rejects_with "return" (wrap "int m() { return; }");
  rejects_with "void method cannot return" (wrap "void m() { return 1; }");
  rejects_with "does not return" (wrap "int m(boolean c) { if (c) { return 1; } }");
  rejects_with "unknown class" (wrap "void m() { D d = null; }");
  rejects_with "abstract"
    "abstract class A { } class Main { static void main() { A a = new A(); } }"

let test_hierarchy_errors () =
  rejects_with "cycle" "class A extends B { } class B extends A { }";
  rejects_with "declared twice" "class A { } class A { }";
  rejects_with "unknown superclass" "class A extends Nope { }";
  rejects_with "changes the signature"
    "class A { int m() { return 1; } } class B extends A { boolean m() { return true; } }";
  rejects_with "changes the signature"
    "class A { int m() { return 1; } } class B extends A { int m(int x) { return x; } }"

let test_call_checking () =
  rejects_with "expects 2 arguments"
    {|
class A { int m(int a, int b) { return a; } }
class Main { static void main() { A a = new A(); int x = a.m(1); } }
|};
  rejects_with "argument of type"
    {|
class A { int m(int a) { return a; } }
class Main { static void main() { A a = new A(); int x = a.m(null); } }
|};
  rejects_with "no method"
    {|
class A { }
class Main { static void main() { A a = new A(); a.nope(); } }
|};
  rejects_with "is not static"
    {|
class A { int m() { return 1; } }
class Main { static void main() { int x = A.m(); } }
|};
  rejects_with "'this' in a static method" "class A { static void m() { this.m2(); } void m2() { } }";
  (* calling an inherited method through a subclass receiver *)
  accepts
    {|
class A { int m() { return 1; } }
class B extends A { }
class Main { static void main() { B b = new B(); int x = b.m(); } }
|}

let test_field_checking () =
  rejects_with "no field"
    "class A { } class Main { static void main() { A a = new A(); a.f = 1; } }";
  rejects_with "cannot assign"
    (wrap "void m() { this.f = null; }");
  accepts
    {|
class A { var B link; }
class B extends A { }
class Main { static void main() { B b = new B(); b.link = b; } }
|}

let test_static_vs_local_receiver () =
  (* 'Counter.n()' is a static call only when Counter is not a local *)
  accepts
    {|
class Counter { static int n() { return 1; } int inst() { return 2; } }
class Main {
  static void main() {
    int a = Counter.n();
    Counter Counterx = new Counter();
    int b = Counterx.inst();
  }
}
|};
  (* a local variable shadows the class-name interpretation *)
  accepts
    {|
class Counter { int inst() { return 2; } }
class Main {
  static void main() {
    Counter Counter = new Counter();
    int b = Counter.inst();
  }
}
|}

module D = Skipflow_frontend.Diag
module Fr = Skipflow_frontend.Frontend

let test_diags_accumulate_per_method () =
  (* independent type errors in different methods are all reported *)
  let src =
    {|
class A {
  int bad1() { return true; }
  void bad2() { unknown = 1; }
  int ok() { return 3; }
}
|}
  in
  match Fr.compile_diags src with
  | Ok _ -> Alcotest.fail "expected diagnostics"
  | Error ds ->
      Alcotest.(check int) "two type errors" 2 (List.length ds);
      List.iter
        (fun (d : D.t) -> Alcotest.(check bool) "type stage" true (d.D.stage = D.Type))
        ds

let test_diags_declaration_fail_fast () =
  (* a broken hierarchy reports a single declaration-phase diagnostic *)
  let src = "class A extends Missing { }" in
  match Fr.compile_diags src with
  | Ok _ -> Alcotest.fail "expected diagnostics"
  | Error ds -> Alcotest.(check int) "one diagnostic" 1 (List.length ds)

let test_diags_clean_compiles () =
  let src = "class Main { static void main() { int x = 1; } }" in
  match Fr.compile_diags src with
  | Ok prog -> Alcotest.(check bool) "has main" true (Fr.main_of prog <> None)
  | Error ds -> Alcotest.failf "unexpected diagnostics: %d" (List.length ds)

let suite =
  ( "typecheck",
    [
      Alcotest.test_case "accepted programs" `Quick test_accepted;
      Alcotest.test_case "block scoping" `Quick test_scoping;
      Alcotest.test_case "scopes end with their block" `Quick
        test_scopes_end_with_their_block;
      Alcotest.test_case "type errors" `Quick test_type_errors;
      Alcotest.test_case "hierarchy errors" `Quick test_hierarchy_errors;
      Alcotest.test_case "call checking" `Quick test_call_checking;
      Alcotest.test_case "field checking" `Quick test_field_checking;
      Alcotest.test_case "static vs local receiver" `Quick test_static_vs_local_receiver;
      Alcotest.test_case "diagnostics accumulate per method" `Quick
        test_diags_accumulate_per_method;
      Alcotest.test_case "declaration errors fail fast" `Quick
        test_diags_declaration_fail_fast;
      Alcotest.test_case "clean source compiles via diags" `Quick test_diags_clean_compiles;
    ] )
