(* Regenerate every figure, worked example and ablation of the paper as
   text.

   Usage: figures [fig1|fig2|ex1|fig3|fig4|fig5|fig6|fig7|milestones|
                   ablations|structural|all]
   (default: all).  Page I/Os are deterministic; times are single runs. *)

module W = Xqdb_workload
module Xml_doc = Xqdb_xml.Xml_doc
module Xml_parser = Xqdb_xml.Xml_parser
module Xq_parser = Xqdb_xq.Xq_parser
module Rewrite = Xqdb_tpm.Rewrite
module Merge = Xqdb_tpm.Merge
module Tpm_print = Xqdb_tpm.Tpm_print
module Engine = Xqdb_core.Engine
module Config = Xqdb_core.Engine_config
module Planner = Xqdb_optimizer.Planner
module T = Xqdb_testbed

let header title = Printf.printf "==== %s ====\n" title

(* Load [forest] into a fresh engine, run [query] once and print one row. *)
let measure ~forest config name query =
  let engine = Engine.load_forest ~config forest in
  let result = Engine.run ~max_seconds:30.0 engine (Xq_parser.parse query) in
  match result.Engine.status with
  | Engine.Ok ->
    Printf.printf "  %-30s %8d page I/Os  %8.3fs\n%!" name result.Engine.page_ios
      result.Engine.elapsed
  | Engine.Budget_exceeded _ -> Printf.printf "  %-30s censored (30s)\n%!" name
  | Engine.Timeout _ -> Printf.printf "  %-30s timed out (30s)\n%!" name
  | Engine.Error msg -> Printf.printf "  %-30s error: %s\n%!" name msg
  | Engine.Io_error msg -> Printf.printf "  %-30s i/o error: %s\n%!" name msg

let fig1 () =
  header "Figure 1: abstract syntax of XQ";
  print_string
    "query ::= () | <a>query</a> | query query\n\
    \        | var | var/axis::nu\n\
    \        | for var in var/axis::nu return query\n\
    \        | if cond then query\n\
     cond  ::= var = var | var = string | true()\n\
    \        | some var in var/axis::nu satisfies cond\n\
    \        | cond and cond | cond or cond | not(cond)\n\
     axis  ::= child | descendant\n\
     nu    ::= a | * | text()\n\n\
     (implemented by Xqdb_xq.Xq_ast / Xq_parser; extension: text literals)\n\n"

let fig2 () =
  header "Figure 2: XML document with in and out labels";
  let doc = Xml_doc.of_node W.Docs.figure2 in
  Format.printf "%a@." Xml_doc.pp_labeled doc

let ex1 () =
  header "Example 1: XASR tuples";
  let disk = Xqdb_storage.Disk.in_memory () in
  let pool = Xqdb_storage.Buffer_pool.create disk in
  let store, _ = Xqdb_xasr.Shredder.shred_forest pool ~name:"fig2" [W.Docs.figure2] in
  List.iter
    (fun nin ->
      match Xqdb_xasr.Node_store.fetch store nin with
      | Some tuple -> Format.printf "in=%d: %a@." nin Xqdb_xasr.Xasr.pp tuple
      | None -> ())
    [2; 5];
  print_newline ()

let example2_query =
  "<names>{ for $j in /journal return for $n in $j//name return $n }</names>"

let fig3 () =
  header "Figure 3: TPM expression of Example 3 (unmerged, naive descendant rule)";
  let q = Xq_parser.parse example2_query in
  print_endline (Tpm_print.to_string (Rewrite.query ~config:Rewrite.naive q));
  print_newline ()

let fig4 () =
  header "Figure 4: merged relfor-expression of Example 4 (N1 dropped)";
  let q = Xq_parser.parse example2_query in
  print_endline (Tpm_print.to_string (Merge.merge (Rewrite.query ~config:Rewrite.naive q)));
  print_newline ()

let fig5 () =
  header "Figure 5: TPM expression of Example 5 (if/some as a nullary relfor)";
  let q =
    Xq_parser.parse
      "<names>{ for $j in /journal return if (some $t in $j//text() satisfies true()) \
       then (for $n in $j//name return $n) else () }</names>"
  in
  print_endline (Tpm_print.to_string (Rewrite.query ~config:Rewrite.naive q));
  print_newline ();
  print_endline "after merging all three relfors:";
  print_endline (Tpm_print.to_string (Merge.merge (Rewrite.query ~config:Rewrite.naive q)));
  print_newline ()

let fig6 () =
  header "Figure 6 / Example 6: query plans QP0, QP1, QP2";
  Printf.printf "query: %s\n\n" T.Queries.example6;
  print_string (T.Plan_lab.render (T.Plan_lab.run ()));
  print_endline "paper's claim: QP2 < QP1 < QP0 — compare the measured page I/Os above.\n"

let fig7 () =
  header "Figure 7: timing of the top five engines (page I/Os; * = censored at budget)";
  let table = T.Efficiency.run () in
  print_string (T.Efficiency.render table);
  print_string (T.Efficiency.shape table);
  print_string
    "\npaper (seconds, 2400 = censored):\n\
     Engine   Test 1   Test 2   Test 3   Test 4   Test 5    Total\n\
     1          0.11   142.77    28.10   164.95     8.48   344.41\n\
     2          0.01     0.01     0.14     0.00     2400  2400.16\n\
     3         16.44   175.30     2400    63.76    29.70  2685.20\n\
     4         24.72     0.01     2400     0.00     2400  4824.72\n\
     5         65.41   163.93     2400   123.66     2400  5153.00\n\
     paper's censored cells: engine-2/test 5, engine-3/test 3, engine-4/tests 3 and 5,\n\
     engine-5/tests 3 and 5\n\n"

let milestones () =
  header "Milestone ablation: the intro's 'orders of magnitude' claim";
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled 400)] in
  List.iter
    (fun (test, query) ->
      print_endline test;
      List.iter
        (fun config ->
          let config = { config with Config.pool_capacity = 48 } in
          measure ~forest config config.Config.name query)
        [Config.m1; Config.m2; Config.m3; Config.m4])
    [ ("example 6 (selective semijoin query), DBLP 400:", T.Queries.example6);
      ( "all article titles (scan-bound), DBLP 400:",
        "for $x in //article return for $t in $x/title return $t" ) ];
  print_newline ()

(* The design choices DESIGN.md calls out, each toggled alone on the m4
   engine against Example 6. *)
let ablations () =
  header "Ablations of the DESIGN.md design choices (m4 engine, Example 6, DBLP 800)";
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled 800)] in
  let base = { Config.m4 with Config.pool_capacity = 48 } in
  let with_planner planner = { base with Config.planner } in
  let row config name = measure ~forest config name T.Queries.example6 in
  print_endline "1. relfor merging (milestone 3's algebraic step):";
  row base "merged (default)";
  row { base with Config.merge_relfors = false } "unmerged";
  print_endline "2. vartuples carrying out-values (descendant self-joins):";
  row base "carry out (default)";
  row (with_planner { base.Config.planner with Planner.carry_out = false }) "naive (self-joins)";
  print_endline "3. index structures and cost-based reordering (milestone 4):";
  row base "indexes + reordering";
  row (with_planner { base.Config.planner with Planner.cost_based = false }) "indexes only";
  row (with_planner Planner.m3_config) "neither (milestone 3)";
  print_endline "4. ordering strategy (the milestone-3 discussion):";
  List.iter
    (fun (name, order) -> row (with_planner { base.Config.planner with Planner.order }) name)
    [ ("order-preserving (default)", `Preserve);
      ("external sort", `Ext_sort);
      ("in-memory sort", `Mem_sort);
      ("clustered B-tree (workaround)", `Btree_sort) ];
  (* Probing is disabled so the plans actually contain NL/BNL joins. *)
  print_endline "5. block-nested-loop join (sorting strategies only):";
  let no_indexes = { base.Config.planner with Planner.use_indexes = false } in
  row (with_planner no_indexes) "order-preserving NL";
  row (with_planner { no_indexes with Planner.order = `Mem_sort }) "sorted, BNL (block 64)";
  print_endline "6. pipelining vs writing intermediates to disk:";
  row (with_planner { base.Config.planner with Planner.materialize = `Mem }) "pipelined";
  row (with_planner { base.Config.planner with Planner.materialize = `Disk }) "spooled to disk";
  print_newline ()

(* The index-vs-scan ablation: m4 against m4-nostruct (the same engine
   with the structural index family off).  A pool smaller than the deep
   document is the point: the per-outer probe plans re-fault pages the
   staircase/twig streams touch once.  The shallow DBLP row is the
   contrast case. *)
let structural () =
  header "Structural & path indexes: staircase/twig plans vs per-outer probes";
  let pool_capacity = 16 in
  Printf.printf "workloads: Treebank scale 60 (deep), DBLP scale 600 (shallow), pool %d frames\n"
    pool_capacity;
  let treebank = [W.Treebank_gen.generate (W.Treebank_gen.scaled 60)] in
  let dblp = [W.Dblp_gen.generate (W.Dblp_gen.scaled 600)] in
  List.iter
    (fun (test, forest, query) ->
      Printf.printf "%s: %s\n" test query;
      List.iter
        (fun config ->
          measure ~forest { config with Config.pool_capacity } config.Config.name query)
        [Config.m4; Config.m4_nostruct])
    (List.map (fun (test, query) -> (test, treebank, query)) T.Queries.deep_queries
     @ [ ("shallow-pair", dblp, "for $x in //article return for $a in $x//author return $a") ]);
  print_newline ()

let all = [
  ("fig1", fig1); ("fig2", fig2); ("ex1", ex1); ("fig3", fig3); ("fig4", fig4);
  ("fig5", fig5); ("fig6", fig6); ("fig7", fig7); ("milestones", milestones);
  ("ablations", ablations); ("structural", structural);
]

let () =
  let targets =
    match Array.to_list Sys.argv with
    | [] | _ :: [] | _ :: ["all"] -> List.map fst all
    | _ :: names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown figure %S (known: %s)\n" name
          (String.concat ", " (List.map fst all));
        exit 1)
    targets
