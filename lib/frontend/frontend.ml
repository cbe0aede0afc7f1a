(** Frontend driver: MiniJava source text to an analyzable program.

    [compile_diags] runs the full pipeline: lex/parse → type check → lower
    to the SSA base language (validating every body), accumulating every
    independent error as a {!Diag.t}.  [compile] and [compile_ast] are the
    same pipeline with the first diagnostic raised as {!Error}. *)

open Skipflow_ir

exception Error of string

let () =
  Printexc.register_printer (function
    | Error msg -> Some ("Frontend.Error: " ^ msg)
    | _ -> None)

(** Phase hook: callers that time compilation (the CLI, the library
    facade) pass a polymorphic span wrapper; the frontend stays free of
    any dependency on the core observability types. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let null_spanner = { span = (fun _ f -> f ()) }

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

(** [compile_diags src] compiles with error recovery, accumulating every
    independent syntax / type error instead of stopping at the first.
    Parse diagnostics are reported alone (type-checking a partial AST
    would cascade spurious errors); a clean parse proceeds to the
    recovering type checker.  [Ok] results are fully lowered and
    validated. *)
let compile_diags ?(spanner = null_spanner) (src : string) :
    (Program.t, Diag.t list) result =
  match spanner.span "parse" (fun () -> Parser.parse_program_diags src) with
  | _, (_ :: _ as ds) -> Stdlib.Error ds
  | ast, [] -> (
      match spanner.span "typecheck" (fun () -> Typecheck.check_diags ast) with
      | Stdlib.Error ds -> Stdlib.Error ds
      | Ok tp -> Ok (spanner.span "lower" (fun () -> Lower.lower_program tp)))

let first_error = function
  | Ok prog -> prog
  | Stdlib.Error ds -> raise (Error (Format.asprintf "%a" Diag.pp (List.hd ds)))

(** [compile src] is {!compile_diags} with its first diagnostic raised.
    @raise Error on any lexical, syntax, or type error. *)
let compile (src : string) : Program.t = first_error (compile_diags src)

(** [compile_ast ast] type-checks and lowers an already-parsed program
    (used by the workload generators, which construct ASTs directly). *)
let compile_ast (ast : Ast.program) : Program.t =
  first_error (Result.map Lower.lower_program (Typecheck.check_diags ast))

(** [main_of prog] finds the conventional entry point: a static method
    named [main], preferring one declared in a class named [Main]. *)
let main_of (prog : Program.t) : Program.meth option =
  let found = ref None in
  let preferred = ref None in
  Program.iter_meths prog (fun m ->
      if m.Program.m_static && String.equal m.Program.m_name "main" then begin
        if !found = None then found := Some m;
        if String.equal (Program.class_name prog m.Program.m_class) "Main" then
          preferred := Some m
      end);
  match !preferred with Some m -> Some m | None -> !found
