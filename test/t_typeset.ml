(* Unit and property tests for the bitset type-set representation. *)

module TS = Skipflow_core.Typeset

let set () = Alcotest.testable (fun ppf s -> TS.pp ppf s) TS.equal
let ts = set ()

let test_empty () =
  Alcotest.(check bool) "empty is empty" true (TS.is_empty TS.empty);
  Alcotest.(check int) "cardinal 0" 0 (TS.cardinal TS.empty);
  Alcotest.(check (list int)) "no elements" [] (TS.elements TS.empty)

let test_singleton () =
  let s = TS.singleton 5 in
  Alcotest.(check bool) "mem 5" true (TS.mem 5 s);
  Alcotest.(check bool) "not mem 4" false (TS.mem 4 s);
  Alcotest.(check bool) "not mem 500" false (TS.mem 500 s);
  Alcotest.(check int) "cardinal" 1 (TS.cardinal s)

let test_add_remove () =
  let s = TS.of_list [ 1; 63; 64; 200 ] in
  Alcotest.(check (list int)) "elements sorted" [ 1; 63; 64; 200 ] (TS.elements s);
  let s' = TS.remove 64 s in
  Alcotest.(check (list int)) "removed" [ 1; 63; 200 ] (TS.elements s');
  Alcotest.(check ts) "remove absent is id" s (TS.remove 77 s);
  (* removal must renormalize so equality stays structural *)
  let t = TS.remove 200 (TS.of_list [ 1; 200 ]) in
  Alcotest.(check ts) "normalization after remove" (TS.singleton 1) t

let test_ops () =
  let a = TS.of_list [ 0; 1; 70 ] and b = TS.of_list [ 1; 2; 200 ] in
  Alcotest.(check (list int)) "union" [ 0; 1; 2; 70; 200 ] (TS.elements (TS.union a b));
  Alcotest.(check (list int)) "inter" [ 1 ] (TS.elements (TS.inter a b));
  Alcotest.(check (list int)) "diff" [ 0; 70 ] (TS.elements (TS.diff a b));
  Alcotest.(check bool) "subset yes" true (TS.subset (TS.of_list [ 1; 70 ]) a);
  Alcotest.(check bool) "subset no" false (TS.subset b a)

let test_inter_normalizes () =
  (* intersection of disjoint high sets must equal empty structurally *)
  let a = TS.singleton 300 and b = TS.singleton 301 in
  Alcotest.(check ts) "disjoint inter = empty" TS.empty (TS.inter a b);
  Alcotest.(check bool) "equal empties" true (TS.equal (TS.inter a b) TS.empty)

let test_null_bit () =
  Alcotest.(check bool) "null bit" true (TS.has_null TS.null_bit);
  Alcotest.(check bool) "empty lacks null" false (TS.has_null TS.empty)

let test_popcount () =
  List.iter
    (fun w ->
      Alcotest.(check int)
        (Printf.sprintf "popcount %d" w)
        (TS.popcount_naive w) (TS.popcount_word w))
    [ 0; 1; 2; 3; 255; 1 lsl 30; max_int; max_int - 1; (1 lsl 62) - 1 ]

let test_hash_consistent () =
  (* two structurally equal sets built along different paths must hash
     alike (the hash reads the normalized words directly) *)
  let a = TS.of_list [ 1; 63; 64; 200 ] in
  let b = TS.remove 300 (TS.add 300 (TS.of_list [ 200; 64; 63; 1 ])) in
  Alcotest.(check bool) "equal" true (TS.equal a b);
  Alcotest.(check int) "hash equal" (TS.hash a) (TS.hash b);
  Alcotest.(check int) "hash empty stable" (TS.hash TS.empty) (TS.hash (TS.remove 1 (TS.singleton 1)))

let test_sharing_fast_paths () =
  (* the binary ops must return an argument physically when it already is
     the result — engine hot paths rely on this to skip re-boxing *)
  let a = TS.of_list [ 1; 2; 70 ] and sub = TS.of_list [ 1; 70 ] in
  Alcotest.(check bool) "union superset shares" true (TS.union a sub == a);
  Alcotest.(check bool) "union subset shares" true (TS.union sub a == a);
  Alcotest.(check bool) "inter subset shares" true (TS.inter sub a == sub);
  Alcotest.(check bool) "inter superset shares" true (TS.inter a sub == sub);
  let other = TS.of_list [ 300; 301 ] in
  Alcotest.(check bool) "diff disjoint shares" true (TS.diff a other == a)

(* ---------------------------- properties ------------------------------ *)

let gen_set =
  QCheck.Gen.(
    map TS.of_list (list_size (int_bound 12) (int_bound 150)))

let arb_set = QCheck.make ~print:(Format.asprintf "%a" TS.pp) gen_set

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:300 gen f)

let props =
  [
    prop "union comm" (QCheck.pair arb_set arb_set) (fun (a, b) ->
        TS.equal (TS.union a b) (TS.union b a));
    prop "union assoc" (QCheck.triple arb_set arb_set arb_set) (fun (a, b, c) ->
        TS.equal (TS.union a (TS.union b c)) (TS.union (TS.union a b) c));
    prop "union idem" arb_set (fun a -> TS.equal (TS.union a a) a);
    prop "inter comm" (QCheck.pair arb_set arb_set) (fun (a, b) ->
        TS.equal (TS.inter a b) (TS.inter b a));
    prop "de morgan via diff" (QCheck.pair arb_set arb_set) (fun (a, b) ->
        (* a \ b = a \ (a ∩ b) *)
        TS.equal (TS.diff a b) (TS.diff a (TS.inter a b)));
    prop "diff then union restores" (QCheck.pair arb_set arb_set) (fun (a, b) ->
        TS.equal (TS.union (TS.diff a b) (TS.inter a b)) a);
    prop "subset union" (QCheck.pair arb_set arb_set) (fun (a, b) ->
        TS.subset a (TS.union a b));
    prop "mem after add" (QCheck.pair arb_set (QCheck.int_bound 150)) (fun (a, i) ->
        TS.mem i (TS.add i a));
    prop "cardinal union inter" (QCheck.pair arb_set arb_set) (fun (a, b) ->
        TS.cardinal (TS.union a b) + TS.cardinal (TS.inter a b)
        = TS.cardinal a + TS.cardinal b);
    prop "equal iff same elements" (QCheck.pair arb_set arb_set) (fun (a, b) ->
        TS.equal a b = (TS.elements a = TS.elements b));
    prop "fold consistent with elements" arb_set (fun a ->
        List.rev (TS.fold (fun i acc -> i :: acc) a []) = TS.elements a);
    prop "hash consistent with equal" (QCheck.pair arb_set arb_set) (fun (a, b) ->
        (not (TS.equal a b)) || TS.hash a = TS.hash b);
    prop "disjoint iff empty inter" (QCheck.pair arb_set arb_set) (fun (a, b) ->
        TS.disjoint a b = TS.is_empty (TS.inter a b));
    prop "popcount_word = naive" (QCheck.make QCheck.Gen.int) (fun w ->
        let w = abs w in
        TS.popcount_word w = TS.popcount_naive w);
  ]

let suite =
  ( "typeset",
    [
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "singleton" `Quick test_singleton;
      Alcotest.test_case "add/remove" `Quick test_add_remove;
      Alcotest.test_case "set operations" `Quick test_ops;
      Alcotest.test_case "inter normalizes" `Quick test_inter_normalizes;
      Alcotest.test_case "null bit" `Quick test_null_bit;
      Alcotest.test_case "popcount word" `Quick test_popcount;
      Alcotest.test_case "hash/equality consistency" `Quick test_hash_consistent;
      Alcotest.test_case "sharing fast paths" `Quick test_sharing_fast_paths;
    ]
    @ props )
