(** Hand-written lexer for MiniJava.  Supports [//] line comments and
    [/* ... */] block comments (non-nesting, as in Java).

    The lexer is a pull stream: {!token} scans one token and leaves its
    position in [tok_line] / [tok_col].  Nothing is allocated per
    character; a token allocates only a word's lexeme (an identifier or
    keyword) or an [INT] box. *)

type pos = { line : int; col : int }

let pp_pos ppf p = Format.fprintf ppf "%d:%d" p.line p.col

exception Error of string * pos

type t = {
  src : string;
  len : int;
  mutable off : int;
  mutable lnum : int;  (** current line (not [line], which names [pos.line]) *)
  mutable bol : int;  (** offset of the beginning of the current line *)
  mutable tok_line : int;  (** position of the last token {!token} returned *)
  mutable tok_col : int;
}

let create src =
  { src; len = String.length src; off = 0; lnum = 1; bol = 0; tok_line = 1; tok_col = 1 }

let errorf ~line ~col fmt =
  Format.kasprintf (fun s -> raise (Error (s, { line; col }))) fmt

let is_digit = function '0' .. '9' -> true | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
  | _ -> false

let next_is lx c =
  let i = lx.off + 1 in
  i < lx.len && Char.equal (String.unsafe_get lx.src i) c

let newline lx =
  lx.off <- lx.off + 1;
  lx.lnum <- lx.lnum + 1;
  lx.bol <- lx.off

(* [off] is at the opening [/*]; an unclosed comment is reported there *)
let skip_block_comment lx =
  let line = lx.lnum and col = lx.off - lx.bol + 1 in
  lx.off <- lx.off + 2;
  let closed = ref false in
  while not !closed do
    if lx.off >= lx.len then errorf ~line ~col "unterminated block comment";
    match String.unsafe_get lx.src lx.off with
    | '*' when next_is lx '/' ->
        lx.off <- lx.off + 2;
        closed := true
    | '\n' -> newline lx
    | _ -> lx.off <- lx.off + 1
  done

let rec skip_ws lx =
  if lx.off < lx.len then
    match String.unsafe_get lx.src lx.off with
    | ' ' | '\t' | '\r' ->
        lx.off <- lx.off + 1;
        skip_ws lx
    | '\n' ->
        newline lx;
        skip_ws lx
    | '/' when next_is lx '/' ->
        while lx.off < lx.len && not (Char.equal (String.unsafe_get lx.src lx.off) '\n') do
          lx.off <- lx.off + 1
        done;
        skip_ws lx
    | '/' when next_is lx '*' ->
        skip_block_comment lx;
        skip_ws lx
    | _ -> ()

let keyword_or_ident (s : string) : Token.t =
  match s with
  | "class" -> KW_CLASS
  | "extends" -> KW_EXTENDS
  | "abstract" -> KW_ABSTRACT
  | "static" -> KW_STATIC
  | "var" -> KW_VAR
  | "if" -> KW_IF
  | "else" -> KW_ELSE
  | "while" -> KW_WHILE
  | "return" -> KW_RETURN
  | "new" -> KW_NEW
  | "null" -> KW_NULL
  | "this" -> KW_THIS
  | "true" -> KW_TRUE
  | "false" -> KW_FALSE
  | "instanceof" -> KW_INSTANCEOF
  | "int" -> KW_INT
  | "boolean" -> KW_BOOLEAN
  | "void" -> KW_VOID
  | "throw" -> KW_THROW
  | _ -> IDENT s

(* the decimal literal [src.[start .. stop-1]], reported at its first
   character when it exceeds [max_int] *)
let int_literal lx start stop : Token.t =
  let n = ref 0 in
  for i = start to stop - 1 do
    let d = Char.code (String.unsafe_get lx.src i) - Char.code '0' in
    if !n > (max_int - d) / 10 then
      errorf ~line:lx.tok_line ~col:lx.tok_col "integer literal out of range: %s"
        (String.sub lx.src start (stop - start));
    n := (!n * 10) + d
  done;
  INT !n

let one lx (tok : Token.t) =
  lx.off <- lx.off + 1;
  tok

let two lx (tok : Token.t) =
  lx.off <- lx.off + 2;
  tok

(** [token lx] scans the next token and records the position of its first
    character in [lx.tok_line] / [lx.tok_col].  At end of input it
    returns [EOF], and keeps returning it.
    @raise Error on a lexical error. *)
let token lx : Token.t =
  skip_ws lx;
  let start = lx.off in
  lx.tok_line <- lx.lnum;
  lx.tok_col <- start - lx.bol + 1;
  if start >= lx.len then EOF
  else
    match String.unsafe_get lx.src start with
    | '0' .. '9' ->
        while lx.off < lx.len && is_digit (String.unsafe_get lx.src lx.off) do
          lx.off <- lx.off + 1
        done;
        int_literal lx start lx.off
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        while lx.off < lx.len && is_ident_char (String.unsafe_get lx.src lx.off) do
          lx.off <- lx.off + 1
        done;
        keyword_or_ident (String.sub lx.src start (lx.off - start))
    | '=' -> if next_is lx '=' then two lx EQ else one lx ASSIGN
    | '!' -> if next_is lx '=' then two lx NE else one lx BANG
    | '<' -> if next_is lx '=' then two lx LE else one lx LT
    | '>' -> if next_is lx '=' then two lx GE else one lx GT
    | '&' when next_is lx '&' -> two lx ANDAND
    | '|' when next_is lx '|' -> two lx OROR
    | '{' -> one lx LBRACE
    | '}' -> one lx RBRACE
    | '(' -> one lx LPAREN
    | ')' -> one lx RPAREN
    | '[' -> one lx LBRACKET
    | ']' -> one lx RBRACKET
    | ';' -> one lx SEMI
    | ',' -> one lx COMMA
    | '.' -> one lx DOT
    | '+' -> one lx PLUS
    | '-' -> one lx MINUS
    | '*' -> one lx STAR
    | '/' -> one lx SLASH
    | '%' -> one lx PERCENT
    | c -> errorf ~line:lx.tok_line ~col:lx.tok_col "unexpected character %C" c

(** Tokenize the whole input, each token with the position of its first
    character (the list view the tests use; the parser pulls {!token}). *)
let tokenize src =
  let lx = create src in
  let rec go acc =
    let tok = token lx in
    let acc = (tok, { line = lx.tok_line; col = lx.tok_col }) :: acc in
    match tok with EOF -> List.rev acc | _ -> go acc
  in
  go []
