(** Structured frontend diagnostics: severity, stage, source position,
    message, optional hint; rendered with carets like a batch compiler.
    Accumulated (not fail-fast) by the recovering frontend entry points. *)

type severity = Error | Warning | Note
type stage = Lexical | Syntax | Type | Lint

type t = {
  severity : severity;
  stage : stage;
  pos : Lexer.pos;
  message : string;
  hint : string option;
}

val make :
  ?hint:string ->
  severity:severity ->
  stage:stage ->
  Lexer.pos ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val error :
  ?hint:string -> stage:stage -> Lexer.pos -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [make ~severity:Error]. *)

val warning :
  ?hint:string -> stage:stage -> Lexer.pos -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [make ~severity:Warning]. *)

val note :
  ?hint:string -> stage:stage -> Lexer.pos -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [make ~severity:Note]. *)

val is_error : t -> bool

val pp : Format.formatter -> t -> unit
(** Compact one-line form: [3:14: syntax error: ...]. *)

val render : ?file:string -> src:string -> Format.formatter -> t -> unit
(** Full form: [file:line:col] header, offending source line, caret under
    the column, optional hint line. *)

val render_all : ?file:string -> src:string -> Format.formatter -> t list -> unit
(** [render] each diagnostic in source-position order (stable for equal
    positions), then print an error count. *)
