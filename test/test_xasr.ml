(* Tests for the XASR layer: tuple codecs, shredding, the node store and
   its indexes, reconstruction, statistics, and the milestone-2
   navigational evaluator (diffed against milestone 1). *)

module S = Xqdb_storage
module X = Xqdb_xasr
module Xasr = X.Xasr
module Tree = Xqdb_xml.Xml_tree
module Doc = Xqdb_xml.Xml_doc
module G = QCheck2.Gen

let shred forest =
  let disk = S.Disk.in_memory () in
  let pool = S.Buffer_pool.create disk in
  X.Shredder.shred_forest pool ~name:"t" forest

let figure2 = Xqdb_workload.Docs.figure2

(* --- tuples ------------------------------------------------------------- *)

let test_tuple_codec () =
  let tuple =
    { Xasr.nin = 42; nout = 99; parent_in = 7; ntype = Xasr.Text; value = "hello \x00 world" }
  in
  Alcotest.(check bool) "round trip" true (Xasr.decode (Xasr.encode tuple) = tuple);
  Alcotest.(check string) "example 1 rendering" "(2, 17, 1, element, journal)"
    (Format.asprintf "%a" Xasr.pp
       { Xasr.nin = 2; nout = 17; parent_in = 1; ntype = Xasr.Element; value = "journal" })

let test_structural_predicates () =
  let journal = { Xasr.nin = 2; nout = 17; parent_in = 1; ntype = Xasr.Element; value = "journal" } in
  let ana = { Xasr.nin = 5; nout = 6; parent_in = 4; ntype = Xasr.Text; value = "Ana" } in
  let name = { Xasr.nin = 4; nout = 7; parent_in = 3; ntype = Xasr.Element; value = "name" } in
  Alcotest.(check bool) "child" true (Xasr.is_child_of ana ~parent:name);
  Alcotest.(check bool) "not child" false (Xasr.is_child_of ana ~parent:journal);
  Alcotest.(check bool) "descendant" true (Xasr.is_descendant_of ana ~ancestor:journal);
  Alcotest.(check bool) "not descendant of self" false
    (Xasr.is_descendant_of journal ~ancestor:journal)

(* --- shredding: Example 1 ------------------------------------------------ *)

let test_example1_tuples () =
  let store, _ = shred [figure2] in
  Alcotest.(check string) "journal tuple" "(2, 17, 1, element, journal)"
    (Format.asprintf "%a" Xasr.pp (Option.get (X.Node_store.fetch store 2)));
  Alcotest.(check string) "Ana tuple" "(5, 6, 4, text, Ana)"
    (Format.asprintf "%a" Xasr.pp (Option.get (X.Node_store.fetch store 5)));
  Alcotest.(check string) "root tuple" "(1, 18, 0, root, NULL)"
    (Format.asprintf "%a" Xasr.pp (Option.get (X.Node_store.fetch store 1)));
  Alcotest.(check int) "tuple count" 9 (X.Node_store.tuple_count store);
  Alcotest.(check (option string)) "missing in" None
    (Option.map (fun _ -> "?") (X.Node_store.fetch store 77))

(* Shredding agrees with the in-memory labeling on every node. *)
let shred_matches_labeling =
  QCheck2.Test.make ~name:"shredder agrees with Xml_doc labels" ~count:150
    Test_support.Gen.forest_gen (fun forest ->
      let store, _ = shred forest in
      let doc = Doc.of_forest forest in
      let ok = ref (X.Node_store.tuple_count store = Doc.count doc) in
      for v = 0 to Doc.count doc - 1 do
        match X.Node_store.fetch store (Doc.nin doc v) with
        | None -> ok := false
        | Some t ->
          if t.Xasr.nout <> Doc.nout doc v then ok := false;
          (match Doc.parent doc v with
           | Some p -> if t.Xasr.parent_in <> Doc.nin doc p then ok := false
           | None -> if t.Xasr.parent_in <> 0 then ok := false);
          let kind_matches =
            match (Doc.kind doc v, t.Xasr.ntype) with
            | Doc.Root, Xasr.Root | Doc.Element, Xasr.Element | Doc.Text, Xasr.Text -> true
            | _ -> false
          in
          if not kind_matches then ok := false;
          if not (String.equal t.Xasr.value (Doc.value doc v)) then ok := false
      done;
      !ok)

(* Malformed input is a typed error (lint rule L1): every shredder
   failure mode raises Shred_error with a descriptive message, never a
   bare Failure that would escape the engine's status censoring. *)
let test_shredder_errors () =
  let disk = S.Disk.in_memory () in
  let pool = S.Buffer_pool.create disk in
  let store = X.Node_store.create pool ~name:"bad" in
  let sh = X.Shredder.start store in
  X.Shredder.push sh (Xqdb_xml.Xml_parser.Start_tag "a");
  (match X.Shredder.push sh (Xqdb_xml.Xml_parser.End_tag "b") with
   | _ -> Alcotest.fail "mismatched tag should fail"
   | exception X.Shredder.Shred_error msg ->
     Alcotest.(check bool) "mismatch names both tags" true
       (String.length msg > 0 && msg.[String.length msg - 1] = '>')
   | exception Failure _ -> Alcotest.fail "mismatched tag escaped as bare Failure");
  let sh2 = X.Shredder.start (X.Node_store.create pool ~name:"bad2") in
  X.Shredder.push sh2 (Xqdb_xml.Xml_parser.Start_tag "a");
  (match X.Shredder.finish sh2 with
   | _ -> Alcotest.fail "unclosed tag should fail"
   | exception X.Shredder.Shred_error _ -> ()
   | exception Failure _ -> Alcotest.fail "unclosed tag escaped as bare Failure");
  (match X.Shredder.push (X.Shredder.start (X.Node_store.create pool ~name:"bad3"))
           (Xqdb_xml.Xml_parser.End_tag "a")
   with
   | _ -> Alcotest.fail "stray end tag should fail"
   | exception X.Shredder.Shred_error _ -> ())

(* The malformed-document regression: a raw event stream with bad
   nesting must fail as Shred_error from the convenience wrappers too,
   and the catalog-missing paths of Node_store must be typed Corrupt,
   not Failure. *)
let test_malformed_document_regression () =
  let disk = S.Disk.in_memory () in
  let pool = S.Buffer_pool.create disk in
  List.iter
    (fun (name, doc) ->
      match X.Shredder.shred_string pool ~name doc with
      | _ -> Alcotest.fail (Printf.sprintf "%s: malformed %S should not shred" name doc)
      | exception X.Shredder.Shred_error _ -> ()
      | exception Xqdb_xml.Xml_parser.Parse_error _ -> ()
      | exception Failure msg ->
        Alcotest.fail (Printf.sprintf "%s: escaped as bare Failure %S" name msg))
    [("m1", "<a><b></a>"); ("m2", "<a></a></b>"); ("m3", "<open>text")];
  let catalog = S.Catalog.attach pool in
  (match X.Node_store.open_existing pool catalog ~name:"nope" with
   | _ -> Alcotest.fail "open_existing of unknown store should fail"
   | exception S.Xqdb_error.Corrupt _ -> ()
   | exception Failure _ -> Alcotest.fail "open_existing escaped as bare Failure");
  match X.Node_store.stats_of_catalog catalog ~name:"nope" with
  | _ -> Alcotest.fail "stats_of_catalog of unknown store should fail"
  | exception S.Xqdb_error.Corrupt _ -> ()

(* --- node store access paths --------------------------------------------- *)

let test_store_cursors () =
  let store, _ = shred [figure2] in
  let drain cursor =
    let rec go acc = match cursor () with None -> List.rev acc | Some x -> go (x :: acc) in
    go []
  in
  (* children of authors (in=3): the two name elements *)
  Alcotest.(check (list int)) "children_ins" [4; 8]
    (drain (X.Node_store.children_ins store 3));
  (* label index: name elements in document order *)
  Alcotest.(check (list int)) "label_ins" [4; 8]
    (drain (X.Node_store.label_ins store Xasr.Element "name"));
  Alcotest.(check (list int)) "label_ins misses" []
    (drain (X.Node_store.label_ins store Xasr.Element "nosuch"));
  (* clustered range scan = journal subtree *)
  let ins = List.map (fun t -> t.Xasr.nin) (drain (X.Node_store.scan_in_range store ~lo:2 ~hi:17)) in
  Alcotest.(check (list int)) "subtree range scan" [2; 3; 4; 5; 8; 9; 13; 14] ins;
  (* all text nodes via the type prefix *)
  let texts = drain (X.Node_store.label_ins_all_of_type store Xasr.Text) in
  Alcotest.(check int) "all texts" 3 (List.length texts)

(* A struct-index entry that disagrees with the primary is a typed
   Corrupt, caught by the same invariant sweep the crash harness runs
   after every recovery. *)
let test_struct_index_corruption_detected () =
  let store, _ = shred [figure2] in
  X.Node_store.check_invariants store;
  X.Node_store.insert store ~level:5
    { Xasr.nin = 19; nout = 20; parent_in = 0; ntype = Xasr.Element; value = "bogus" };
  match X.Node_store.check_invariants store with
  | () -> Alcotest.fail "mislabeled struct entry should be caught"
  | exception S.Xqdb_error.Corrupt msg ->
    let contains sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "message names the disagreement" true
      (contains "struct entry" && contains "disagrees")

let test_store_reopen () =
  let disk = S.Disk.in_memory () in
  let pool = S.Buffer_pool.create disk in
  let catalog = S.Catalog.attach pool in
  let store, stats = X.Shredder.shred_forest pool ~name:"doc" [figure2] in
  X.Node_store.register store catalog ~stats;
  let store2 = X.Node_store.open_existing pool catalog ~name:"doc" in
  Alcotest.(check int) "tuple count survives" 9 (X.Node_store.tuple_count store2);
  Alcotest.(check string) "lookup survives" "journal"
    (Option.get (X.Node_store.fetch store2 2)).Xasr.value;
  let stats2 = X.Node_store.stats_of_catalog catalog ~name:"doc" in
  Alcotest.(check int) "stats survive" stats.X.Doc_stats.node_count
    stats2.X.Doc_stats.node_count

(* --- reconstruction -------------------------------------------------------- *)

let reconstruct_roundtrip =
  QCheck2.Test.make ~name:"shred/reconstruct round trip" ~count:150
    Test_support.Gen.forest_gen (fun forest ->
      let store, _ = shred forest in
      Tree.equal_forest forest (X.Reconstruct.root_forest store))

let test_reconstruct_subtree () =
  let store, _ = shred [figure2] in
  Alcotest.(check string) "subtree by in" "<authors><name>Ana</name><name>Bob</name></authors>"
    (Xqdb_xml.Xml_print.to_string (X.Reconstruct.subtree_by_in store 3));
  Alcotest.(check string) "text subtree" "Ana"
    (Xqdb_xml.Xml_print.to_string (X.Reconstruct.subtree_by_in store 5));
  (match X.Reconstruct.subtree_by_in store 1234 with
   | _ -> Alcotest.fail "missing in should raise"
   | exception Not_found -> ())

(* --- statistics -------------------------------------------------------------- *)

let stats_match_document =
  QCheck2.Test.make ~name:"statistics agree with the document" ~count:150
    Test_support.Gen.forest_gen (fun forest ->
      let _, stats = shred forest in
      let doc = Doc.of_forest forest in
      let expected_labels = Tree.count_labels forest in
      stats.X.Doc_stats.node_count = Doc.count doc
      && stats.X.Doc_stats.label_counts = expected_labels
      && stats.X.Doc_stats.depth_sum
         = List.fold_left
             (fun acc v -> acc + Doc.depth doc v)
             0
             (List.init (Doc.count doc) Fun.id))

let test_stats_serialization () =
  let _, stats = shred [figure2] in
  let stats2 = X.Doc_stats.deserialize (X.Doc_stats.serialize stats) in
  Alcotest.(check bool) "round trip" true (stats = stats2);
  Alcotest.(check int) "name label count" 2 (X.Doc_stats.label_count stats "name");
  Alcotest.(check int) "missing label count" 0 (X.Doc_stats.label_count stats "nosuch");
  Alcotest.(check bool) "avg depth sane" true
    (X.Doc_stats.avg_depth stats > 2.0 && X.Doc_stats.avg_depth stats < 3.0)

(* --- path summary -------------------------------------------------------- *)

let test_path_summary_figure2 () =
  let _, stats = shred [figure2] in
  let ps = stats.X.Doc_stats.paths in
  Alcotest.(check int) "distinct paths" 4 (X.Path_summary.distinct ps);
  Alcotest.(check int) "total elements" 5 (X.Path_summary.total_count ps);
  Alcotest.(check int) "name path count" 2 (X.Path_summary.count ps "/journal/authors/name");
  Alcotest.(check (float 0.001)) "authors fan-out" 2.0 (X.Path_summary.fanout ps "/journal/authors");
  Alcotest.(check int) "//name" 2 (X.Path_summary.chain_card ps [(X.Path_summary.Descendant, "name")]);
  Alcotest.(check int) "//journal/title" 1
    (X.Path_summary.chain_card ps
       [(X.Path_summary.Descendant, "journal"); (X.Path_summary.Child, "title")]);
  Alcotest.(check int) "absent label is provably empty" 0
    (X.Path_summary.chain_card ps [(X.Path_summary.Descendant, "proceedings")]);
  Alcotest.(check int) "journal//name pairs" 2
    (X.Path_summary.desc_pair_card ps ~anc:"journal" ~desc:"name");
  Alcotest.(check int) "authors/name pairs" 2
    (X.Path_summary.child_pair_card ps ~parent:"authors" ~child:"name");
  Alcotest.(check bool) "serialization round trip" true
    (X.Path_summary.equal ps (X.Path_summary.deserialize (X.Path_summary.serialize ps)))

(* The maintenance property the differential's recovery check also pins:
   the summary the shredder builds incrementally at element close equals
   a from-scratch rebuild out of the stored (in, out) intervals. *)
let path_summary_incremental_matches_rescan =
  QCheck2.Test.make ~name:"incremental path summary = from-scratch rescan" ~count:150
    Test_support.Gen.forest_gen (fun forest ->
      let store, stats = shred forest in
      X.Path_summary.equal stats.X.Doc_stats.paths
        (X.Path_summary.of_scan (X.Node_store.scan_all store)))

(* Same agreement on the two workload generators the benches use — the
   shapes (shallow/bushy DBLP, deep/recursive Treebank) stress the
   rescan's stack reconstruction differently from the random forests. *)
let test_path_summary_generators () =
  List.iter
    (fun (name, doc) ->
      let store, stats = shred [doc] in
      Alcotest.(check bool) (name ^ ": incremental = rescan") true
        (X.Path_summary.equal stats.X.Doc_stats.paths
           (X.Path_summary.of_scan (X.Node_store.scan_all store))))
    [ ("dblp", Xqdb_workload.Dblp_gen.generate (Xqdb_workload.Dblp_gen.scaled 60));
      ("treebank", Xqdb_workload.Treebank_gen.generate (Xqdb_workload.Treebank_gen.scaled 8)) ]

(* The region-algebra precondition every structural join relies on: the
   (in, out) intervals of any two stored nodes are either disjoint or
   strictly nested, never partially overlapping. *)
let intervals_properly_nest =
  QCheck2.Test.make ~name:"(pre, post) intervals are disjoint or nested" ~count:100
    Test_support.Gen.forest_gen (fun forest ->
      let store, _ = shred forest in
      let rec drain acc cursor =
        match cursor () with None -> List.rev acc | Some t -> drain (t :: acc) cursor
      in
      let tuples = drain [] (X.Node_store.scan_all store) in
      List.for_all (fun t -> t.Xasr.nin < t.Xasr.nout) tuples
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 a.Xasr.nin = b.Xasr.nin
                 || a.Xasr.nout < b.Xasr.nin
                 || b.Xasr.nout < a.Xasr.nin
                 || (a.Xasr.nin < b.Xasr.nin && b.Xasr.nout < a.Xasr.nout)
                 || (b.Xasr.nin < a.Xasr.nin && a.Xasr.nout < b.Xasr.nout))
               tuples)
           tuples)

(* --- milestone 2 vs milestone 1 ---------------------------------------------- *)

let queries =
  List.map Xqdb_xq.Xq_parser.parse
    [ "for $n in //name return $n";
      "<out>{ for $j in /journal return for $t in $j//text() return text { \"got\" } }</out>";
      "for $a in //authors return if (some $t in $a//text() satisfies $t = \"Bob\") then $a/name else ()";
      "$root" ]

let test_nav_eval_figure2 () =
  let store, _ = shred [figure2] in
  let doc = Doc.of_forest [figure2] in
  List.iter
    (fun q ->
      Alcotest.(check string) "m2 agrees with m1" (Xqdb_xq.Xq_eval.eval_string doc q)
        (X.Nav_eval.eval_string store q))
    queries

(* Axis steps agree with the in-memory reference at the level of single
   nodes: for every node of a random document and every axis/test, the
   navigational cursor yields exactly the nodes milestone 1 selects. *)
let axis_cursor_equivalence =
  QCheck2.Test.make ~name:"axis cursors = milestone-1 axis selection" ~count:100
    Test_support.Gen.forest_gen (fun forest ->
      let store, _ = shred forest in
      let doc = Doc.of_forest forest in
      let tests =
        [Xqdb_xq.Xq_ast.Name "a"; Xqdb_xq.Xq_ast.Name "name"; Xqdb_xq.Xq_ast.Star;
         Xqdb_xq.Xq_ast.Text_test]
      in
      let ok = ref true in
      for v = 0 to Doc.count doc - 1 do
        let binding = Option.get (X.Node_store.fetch store (Doc.nin doc v)) in
        List.iter
          (fun axis ->
            List.iter
              (fun test ->
                let expected =
                  List.map (Doc.nin doc) (Xqdb_xq.Xq_eval.axis_select doc v axis test)
                in
                let cursor = X.Nav_eval.axis_cursor store binding axis test in
                let rec drain acc =
                  match cursor () with
                  | None -> List.rev acc
                  | Some tuple -> drain (tuple.Xasr.nin :: acc)
                in
                if drain [] <> expected then ok := false)
              tests)
          [Xqdb_xq.Xq_ast.Child; Xqdb_xq.Xq_ast.Descendant]
      done;
      !ok)

(* The central property: on random documents and random queries, the
   navigational secondary-storage evaluator computes exactly what the
   in-memory denotational evaluator computes. *)
let nav_eval_equivalence =
  QCheck2.Test.make ~name:"milestone 2 = milestone 1 (random docs and queries)" ~count:250
    G.(pair Test_support.Gen.forest_gen Test_support.Gen.xq_gen)
    (fun (forest, query) ->
      let store, _ = shred forest in
      let doc = Doc.of_forest forest in
      let reference =
        try Ok (Xqdb_xq.Xq_eval.eval_string doc query)
        with Xqdb_xq.Xq_eval.Type_error _ -> Error ()
      in
      let got =
        try Ok (X.Nav_eval.eval_string store query)
        with Xqdb_xq.Xq_eval.Type_error _ -> Error ()
      in
      reference = got)

let test_nav_eval_budget () =
  let disk = S.Disk.in_memory () in
  let pool = S.Buffer_pool.create ~capacity:4 disk in
  let store, _ =
    X.Shredder.shred_forest pool ~name:"t"
      [Xqdb_workload.Dblp_gen.generate (Xqdb_workload.Dblp_gen.scaled 100)]
  in
  S.Buffer_pool.drop_all pool;
  let budget = S.Budget.create ~max_page_ios:3 () in
  let q = Xqdb_xq.Xq_parser.parse "for $x in //article return for $y in //author return <p/>" in
  match S.Metrics.with_scope (S.Budget.scope budget) (fun () -> X.Nav_eval.eval ~budget store q) with
  | _ -> Alcotest.fail "expected budget exhaustion"
  | exception S.Budget.Exhausted _ -> ()

let () =
  let prop = QCheck_alcotest.to_alcotest in
  Alcotest.run "xasr"
    [ ( "tuples",
        [ Alcotest.test_case "codec" `Quick test_tuple_codec;
          Alcotest.test_case "structural predicates" `Quick test_structural_predicates ] );
      ( "shredder",
        [ Alcotest.test_case "example 1" `Quick test_example1_tuples;
          prop shred_matches_labeling;
          Alcotest.test_case "errors" `Quick test_shredder_errors;
          Alcotest.test_case "malformed documents are typed errors" `Quick
            test_malformed_document_regression ] );
      ( "node store",
        [ Alcotest.test_case "cursors" `Quick test_store_cursors;
          Alcotest.test_case "struct-index corruption is typed" `Quick
            test_struct_index_corruption_detected;
          Alcotest.test_case "reopen" `Quick test_store_reopen ] );
      ( "reconstruction",
        [ prop reconstruct_roundtrip;
          Alcotest.test_case "subtrees" `Quick test_reconstruct_subtree ] );
      ( "statistics",
        [ prop stats_match_document;
          Alcotest.test_case "serialization" `Quick test_stats_serialization ] );
      ( "path summary",
        [ Alcotest.test_case "figure 2" `Quick test_path_summary_figure2;
          prop path_summary_incremental_matches_rescan;
          Alcotest.test_case "workload generators" `Quick test_path_summary_generators;
          prop intervals_properly_nest ] );
      ( "navigational evaluator",
        [ Alcotest.test_case "figure 2 queries" `Quick test_nav_eval_figure2;
          prop axis_cursor_equivalence;
          prop nav_eval_equivalence;
          Alcotest.test_case "budget" `Quick test_nav_eval_budget ] ) ]
