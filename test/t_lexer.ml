(* Lexer unit tests. *)

module L = Skipflow_frontend.Lexer
module T = Skipflow_frontend.Token

let toks src = List.map fst (L.tokenize src) |> List.filter (fun t -> t <> T.EOF)

let tok = Alcotest.testable (fun ppf t -> Format.pp_print_string ppf (T.to_string t)) ( = )

let test_keywords_and_idents () =
  Alcotest.(check (list tok)) "keywords"
    [ T.KW_CLASS; T.IDENT "Foo"; T.KW_EXTENDS; T.IDENT "Bar" ]
    (toks "class Foo extends Bar");
  Alcotest.(check (list tok)) "ident with keyword prefix"
    [ T.IDENT "classy"; T.IDENT "newt"; T.IDENT "nullx" ]
    (toks "classy newt nullx")

let test_numbers () =
  Alcotest.(check (list tok)) "ints" [ T.INT 0; T.INT 42; T.INT 1234567 ]
    (toks "0 42 1234567")

let test_operators () =
  Alcotest.(check (list tok)) "all operators"
    [
      T.EQ; T.NE; T.LE; T.GE; T.LT; T.GT; T.ASSIGN; T.BANG; T.ANDAND; T.OROR;
      T.PLUS; T.MINUS; T.STAR; T.SLASH; T.PERCENT;
    ]
    (toks "== != <= >= < > = ! && || + - * / %");
  Alcotest.(check (list tok)) "adjacent" [ T.IDENT "a"; T.EQ; T.MINUS; T.INT 1 ]
    (toks "a==-1")

let test_comments () =
  Alcotest.(check (list tok)) "line comment" [ T.INT 1; T.INT 2 ]
    (toks "1 // comment with class if else\n2");
  Alcotest.(check (list tok)) "block comment" [ T.INT 1; T.INT 2 ]
    (toks "1 /* multi\nline * stuff */ 2");
  Alcotest.(check (list tok)) "block comment with stars" [ T.INT 3 ]
    (toks "/* ** * ** */ 3")

let test_positions () =
  let all = L.tokenize "ab\n  cd" in
  match all with
  | [ (_, p1); (_, p2); _eof ] ->
      Alcotest.(check int) "line 1" 1 p1.L.line;
      Alcotest.(check int) "col 1" 1 p1.L.col;
      Alcotest.(check int) "line 2" 2 p2.L.line;
      Alcotest.(check int) "col 3" 3 p2.L.col
  | _ -> Alcotest.fail "unexpected token count"

let test_errors () =
  let fails src =
    match L.tokenize src with
    | exception L.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad char" true (fails "a # b");
  Alcotest.(check bool) "unterminated block comment" true (fails "1 /* never closed");
  Alcotest.(check bool) "lone pipe" true (fails "a | b");
  Alcotest.(check bool) "lone ampersand" true (fails "a & b")

let error_pos src =
  match L.tokenize src with
  | exception L.Error (_, p) -> (p.L.line, p.L.col)
  | _ -> Alcotest.failf "%S lexed without error" src

let test_int_range () =
  let max = string_of_int max_int in
  let n = String.length max in
  (* max_int ends in a digit below 9 on every OCaml target *)
  let above =
    String.sub max 0 (n - 1) ^ string_of_int (Char.code max.[n - 1] - Char.code '0' + 1)
  in
  Alcotest.(check (list tok)) "max_int lexes" [ T.INT max_int ] (toks max);
  Alcotest.(check (pair int int)) "max_int + 1 rejected at its first digit" (1, 3)
    (error_pos ("  " ^ above));
  Alcotest.(check (pair int int)) "out-of-range literal points at its start" (1, 28)
    (error_pos "class A { int f() { return 99999999999999999999999; } }")

let test_unterminated_comment_pos () =
  Alcotest.(check (pair int int)) "points at the opening /*" (2, 3)
    (error_pos "class A { }\n  /* open\n\n")

(* ---- property: rendered tokens lex back at their rendered positions ---- *)

let fixed_tokens =
  T.
    [
      KW_CLASS; KW_EXTENDS; KW_ABSTRACT; KW_STATIC; KW_VAR; KW_IF; KW_ELSE; KW_WHILE;
      KW_RETURN; KW_NEW; KW_NULL; KW_THIS; KW_TRUE; KW_FALSE; KW_INSTANCEOF; KW_INT;
      KW_BOOLEAN; KW_VOID; KW_THROW; LBRACE; RBRACE; LPAREN; RPAREN; LBRACKET; RBRACKET;
      SEMI; COMMA; DOT; ASSIGN; EQ; NE; LT; LE; GT; GE; PLUS; MINUS; STAR; SLASH;
      PERCENT; BANG; ANDAND; OROR;
    ]

let spellings = List.map T.to_string fixed_tokens

let gen_token =
  let open QCheck.Gen in
  let ident =
    let first = oneofl (String.to_seq "abcxyzABCZ_" |> List.of_seq) in
    let rest = string_size ~gen:(oneofl (String.to_seq "aeiouXY_09" |> List.of_seq)) (0 -- 6) in
    map2
      (fun c s ->
        let s = String.make 1 c ^ s in
        T.IDENT (if List.mem s spellings then s ^ "_" else s))
      first rest
  in
  frequency
    [
      (3, oneofl fixed_tokens);
      (2, ident);
      (1, map (fun n -> T.INT (n land max_int)) (oneof [ small_nat; int ]));
    ]

(* A separator: whitespace first (so a comment never follows a [/]
   token), then any mix of blanks, line ends, and comments; a block
   comment may span lines and never contains its closing delimiter. *)
let gen_separator ~nonempty =
  let open QCheck.Gen in
  let blank = oneofl [ " "; "\t"; "\n"; "\r\n" ] in
  let comment_char = oneofl [ "a"; " "; "*"; "/"; "#"; "\n"; "\r\n"; "\t" ] in
  let block =
    map
      (fun cs ->
        (* drop a '/' right after a '*' so the body cannot close early *)
        let body = String.concat "" cs in
        let b = Buffer.create (String.length body) in
        String.iter
          (fun c ->
            let n = Buffer.length b in
            if not (c = '/' && n > 0 && Buffer.nth b (n - 1) = '*') then Buffer.add_char b c)
          body;
        "/*" ^ Buffer.contents b ^ "*/")
      (list_size (0 -- 8) comment_char)
  in
  let line =
    map2
      (fun s eol -> "//" ^ s ^ eol)
      (string_size ~gen:(oneofl [ 'a'; ' '; '*'; '/'; '\t' ]) (0 -- 8))
      (oneofl [ "\n"; "\r\n" ])
  in
  let piece = frequency [ (4, blank); (1, block); (1, line) ] in
  let sep = map2 (fun b ps -> String.concat "" (b :: ps)) blank (list_size (0 -- 3) piece) in
  if nonempty then sep else oneof [ return ""; sep ]

(* render tokens and separators, recording where each token starts *)
let render toks seps last =
  let b = Buffer.create 64 in
  let line = ref 1 and col = ref 1 in
  let emit s =
    String.iter
      (fun c ->
        if c = '\n' then begin
          incr line;
          col := 1
        end
        else incr col)
      s;
    Buffer.add_string b s
  in
  let expected =
    List.map2
      (fun sep t ->
        emit sep;
        let at = (t, !line, !col) in
        emit (T.to_string t);
        at)
      seps toks
  in
  emit last;
  (Buffer.contents b, expected @ [ (T.EOF, !line, !col) ])

let gen_rendered =
  let open QCheck.Gen in
  list_size (0 -- 30) gen_token >>= fun toks ->
  let n = List.length toks in
  gen_separator ~nonempty:false >>= fun first ->
  list_repeat (max 0 (n - 1)) (gen_separator ~nonempty:true) >>= fun rest ->
  gen_separator ~nonempty:false >>= fun last ->
  return (render toks (if n = 0 then [] else first :: rest) last)

let prop_roundtrip =
  QCheck.Test.make ~name:"rendered tokens lex back at their positions" ~count:500
    (QCheck.make ~print:(fun (src, _) -> Printf.sprintf "%S" src) gen_rendered)
    (fun (src, expected) ->
      let got = List.map (fun (t, p) -> (t, p.L.line, p.L.col)) (L.tokenize src) in
      List.length got = List.length expected
      && List.for_all2
           (fun (t, l, c) (t', l', c') -> T.equal t t' && l = l' && c = c')
           got expected)

let test_eof () =
  Alcotest.(check (list tok)) "empty input" [] (toks "");
  Alcotest.(check (list tok)) "whitespace only" [] (toks "  \n\t  ")

let suite =
  ( "lexer",
    [
      Alcotest.test_case "keywords and idents" `Quick test_keywords_and_idents;
      Alcotest.test_case "numbers" `Quick test_numbers;
      Alcotest.test_case "operators" `Quick test_operators;
      Alcotest.test_case "comments" `Quick test_comments;
      Alcotest.test_case "positions" `Quick test_positions;
      Alcotest.test_case "errors" `Quick test_errors;
      Alcotest.test_case "eof" `Quick test_eof;
      Alcotest.test_case "literal above max_int rejected" `Quick test_int_range;
      Alcotest.test_case "unterminated comment position" `Quick test_unterminated_comment_pos;
      QCheck_alcotest.to_alcotest prop_roundtrip;
    ] )
