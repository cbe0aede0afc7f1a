(** Frontend driver: MiniJava source text to an analyzable program
    (lex/parse → type check → lower to validated SSA). *)

exception Error of string
(** The first lexical, syntax, or type error, rendered by {!Diag.pp}
    ([L:C: syntax error: ...]). *)

val compile : string -> Skipflow_ir.Program.t
(** {!compile_diags} without a spanner.  @raise Error with the first
    diagnostic. *)

val compile_ast : Ast.program -> Skipflow_ir.Program.t
(** Type-check and lower an already-parsed program (used by the workload
    generators).  @raise Error with the first type diagnostic. *)

val read_file : string -> string
(** Read a file's entire contents.  @raise Sys_error on I/O failure. *)

type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }
(** Phase hook: a polymorphic span wrapper the recovering pipeline calls
    around each phase ([parse], [typecheck], [lower]).  Callers that time
    compilation pass one built from their observability layer; the
    frontend itself stays free of that dependency. *)

val compile_diags :
  ?spanner:spanner -> string -> (Skipflow_ir.Program.t, Diag.t list) result
(** Compile with error recovery: accumulate every independent syntax /
    type error instead of stopping at the first.  [Ok] results are fully
    lowered and validated. *)

val main_of : Skipflow_ir.Program.t -> Skipflow_ir.Program.meth option
(** The conventional entry point: a static method named [main], preferring
    one declared in a class named [Main]. *)
