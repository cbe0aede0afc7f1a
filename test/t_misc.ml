(* Miscellaneous coverage: typed ids, DOT export, IR pretty-printing,
   engine statistics, and the reverse-postorder traversal. *)

open Skipflow_ir
module C = Skipflow_core
module F = Skipflow_frontend

(* ------------------------------- ids ----------------------------------- *)

let test_id_gen () =
  let g = Ids.Class.Gen.create () in
  let a = Ids.Class.Gen.fresh g and b = Ids.Class.Gen.fresh g in
  Alcotest.(check int) "dense from 0" 0 (Ids.Class.to_int a);
  Alcotest.(check int) "incrementing" 1 (Ids.Class.to_int b);
  Alcotest.(check int) "count" 2 (Ids.Class.Gen.count g);
  Alcotest.(check bool) "equal" true (Ids.Class.equal a (Ids.Class.of_int 0));
  Alcotest.(check bool) "distinct" false (Ids.Class.equal a b);
  Alcotest.(check string) "pp prefix" "C1" (Format.asprintf "%a" Ids.Class.pp b)

let test_id_collections () =
  let s =
    Ids.Meth.Set.of_list [ Ids.Meth.of_int 3; Ids.Meth.of_int 1; Ids.Meth.of_int 3 ]
  in
  Alcotest.(check int) "set dedups" 2 (Ids.Meth.Set.cardinal s);
  let tbl = Ids.Var.Tbl.create 4 in
  Ids.Var.Tbl.replace tbl (Ids.Var.of_int 7) "x";
  Alcotest.(check (option string)) "tbl" (Some "x")
    (Ids.Var.Tbl.find_opt tbl (Ids.Var.of_int 7))

(* ------------------------------- dot ----------------------------------- *)

let fixture () =
  let prog =
    F.Frontend.compile
      {|
class A { boolean flag() { return this instanceof B; } }
class B extends A { }
class Main {
  static void main() {
    A a = new A();
    if (a.flag()) { int dead = 1; }
  }
}
|}
  in
  let main = Option.get (F.Frontend.main_of prog) in
  let r = C.Analysis.run prog ~roots:[ main ] in
  (prog, r)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_dot_output () =
  let prog, r = fixture () in
  let dot = C.Dot.to_string prog (C.Engine.graphs r.C.Analysis.engine) in
  Alcotest.(check bool) "digraph" true (contains dot "digraph pvpg");
  Alcotest.(check bool) "has invoke node" true (contains dot "invoke A.flag");
  Alcotest.(check bool) "has instanceof filter" true (contains dot "instanceof B");
  Alcotest.(check bool) "predicate edges dashed" true (contains dot "style=dashed");
  Alcotest.(check bool) "observe edges dotted" true (contains dot "style=dotted");
  Alcotest.(check bool) "enabled flows red" true (contains dot "color=red");
  Alcotest.(check bool) "disabled flows grey" true (contains dot "color=grey");
  (* structurally parseable: balanced braces *)
  let opens = String.fold_left (fun a c -> if c = '{' then a + 1 else a) 0 dot in
  let closes = String.fold_left (fun a c -> if c = '}' then a + 1 else a) 0 dot in
  Alcotest.(check int) "balanced braces" opens closes

let test_dot_file () =
  let prog, r = fixture () in
  let path = Filename.temp_file "skipflow" ".dot" in
  (match C.Dot.write_file prog ~path (C.Engine.graphs r.C.Analysis.engine) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "dot write: %s" (C.Io.error_message e));
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "non-empty file" true (len > 100)

(* ------------------------------ ir pp ---------------------------------- *)

let test_ir_pp () =
  let prog, _ = fixture () in
  let s = Format.asprintf "%a" Ir_pp.pp_program prog in
  Alcotest.(check bool) "mentions classes" true (contains s "class A");
  Alcotest.(check bool) "shows instanceof" true (contains s "instanceof B");
  Alcotest.(check bool) "shows phis" true (contains s "phi(");
  Alcotest.(check bool) "shows start" true (contains s "start(")

(* ------------------------------ stats ---------------------------------- *)

let test_engine_stats () =
  let _, r = fixture () in
  let st = C.Engine.stats r.C.Analysis.engine in
  Alcotest.(check bool) "tasks processed" true (st.C.Engine.tasks_processed > 10);
  Alcotest.(check bool) "links made" true (st.C.Engine.links >= 1)

(* ------------------------------- rpo ----------------------------------- *)

let successors (blk : Bl.block) =
  match blk.Bl.b_term with
  | Some (Bl.Jump t) -> [ t ]
  | Some (Bl.If { then_; else_; _ }) -> [ then_; else_ ]
  | Some (Bl.Return _ | Bl.Throw _) | None -> []

let test_rpo () =
  let prog, _ = fixture () in
  Program.iter_meths prog (fun m ->
      match m.Program.m_body with
      | None -> ()
      | Some body ->
          let rpo = Bl.reverse_postorder body in
          (* entry first *)
          (match rpo with
          | first :: _ ->
              Alcotest.(check bool) "entry first" true
                (Ids.Block.equal first.Bl.b_id body.Bl.entry)
          | [] -> Alcotest.fail "empty rpo");
          (* every block appears at most once *)
          let ids = List.map (fun b -> Ids.Block.to_int b.Bl.b_id) rpo in
          Alcotest.(check int) "no duplicates" (List.length ids)
            (List.length (List.sort_uniq compare ids));
          (* forward edges respect the order except back edges to merges *)
          List.iteri
            (fun i blk ->
              List.iter
                (fun s ->
                  let j =
                    Option.get
                      (List.find_index
                         (fun b -> Ids.Block.equal b.Bl.b_id s)
                         rpo)
                  in
                  if j <= i then
                    (* must be a back edge: the target is a merge *)
                    Alcotest.(check bool) "back edges only into merges" true
                      ((Bl.block body s).Bl.b_kind = Bl.Merge))
                (successors blk))
            rpo)

let suite =
  ( "misc",
    [
      Alcotest.test_case "id generators" `Quick test_id_gen;
      Alcotest.test_case "id collections" `Quick test_id_collections;
      Alcotest.test_case "dot output" `Quick test_dot_output;
      Alcotest.test_case "dot file" `Quick test_dot_file;
      Alcotest.test_case "ir pretty-printer" `Quick test_ir_pp;
      Alcotest.test_case "engine stats" `Quick test_engine_stats;
      Alcotest.test_case "reverse postorder" `Quick test_rpo;
    ] )
