(** Tokens of the MiniJava surface language. *)

type t =
  | INT of int
  | IDENT of string
  | KW_CLASS
  | KW_EXTENDS
  | KW_ABSTRACT
  | KW_STATIC
  | KW_VAR
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_RETURN
  | KW_NEW
  | KW_NULL
  | KW_THIS
  | KW_TRUE
  | KW_FALSE
  | KW_INSTANCEOF
  | KW_INT
  | KW_BOOLEAN
  | KW_VOID
  | KW_THROW
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | DOT
  | ASSIGN  (** [=] *)
  | EQ  (** [==] *)
  | NE  (** [!=] *)
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | BANG  (** [!] *)
  | ANDAND
  | OROR
  | EOF

(** Token equality without the polymorphic [compare]: payloads compare
    by value, and every other constructor is an immediate. *)
let equal a b =
  match (a, b) with
  | INT x, INT y -> Int.equal x y
  | IDENT x, IDENT y -> String.equal x y
  | (INT _ | IDENT _), _ | _, (INT _ | IDENT _) -> false
  | _ -> a == b

let to_string = function
  | INT n -> string_of_int n
  | IDENT s -> s
  | KW_CLASS -> "class"
  | KW_EXTENDS -> "extends"
  | KW_ABSTRACT -> "abstract"
  | KW_STATIC -> "static"
  | KW_VAR -> "var"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_RETURN -> "return"
  | KW_NEW -> "new"
  | KW_NULL -> "null"
  | KW_THIS -> "this"
  | KW_TRUE -> "true"
  | KW_FALSE -> "false"
  | KW_INSTANCEOF -> "instanceof"
  | KW_INT -> "int"
  | KW_BOOLEAN -> "boolean"
  | KW_VOID -> "void"
  | KW_THROW -> "throw"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | SEMI -> ";"
  | COMMA -> ","
  | DOT -> "."
  | ASSIGN -> "="
  | EQ -> "=="
  | NE -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | BANG -> "!"
  | ANDAND -> "&&"
  | OROR -> "||"
  | EOF -> "<eof>"
