(* The benchmark harness: regenerates every performance figure of the
   paper and runs the ablations called out in DESIGN.md, then a set of
   Bechamel micro-benchmarks (one per reproduced table/figure plus the
   hot substrate operations).

   Run with: dune exec bench/main.exe
   Sections can be selected: dune exec bench/main.exe -- fig7 ablations

   Flags: [--json] additionally writes machine-readable BENCH_<section>.json
   reports (see Xqdb_testbed.Report for the schema); [--quick] shrinks the
   workloads so CI can regenerate the reports in seconds. *)

module Engine = Xqdb_core.Engine
module Config = Xqdb_core.Engine_config
module Planner = Xqdb_optimizer.Planner
module Rewrite = Xqdb_tpm.Rewrite
module W = Xqdb_workload
module T = Xqdb_testbed
module Storage = Xqdb_storage

let header title =
  Printf.printf "\n================ %s ================\n%!" title

let json_mode = ref false
let quick = ref false

let write_report file json =
  T.Report.write_file file json;
  Printf.printf "wrote %s\n%!" file

(* Run one query on one engine configuration over a shared document.
   The full result (profile included) comes back so sections can both
   print a human row and serialize the measurement. *)
let measure ?(seconds_cap = 20.0) ~forest config query_src =
  let engine = Engine.load_forest ~config forest in
  let query = Xqdb_xq.Xq_parser.parse query_src in
  Engine.run ~max_seconds:seconds_cap engine query

let row name (result : Engine.result) =
  match result.Engine.status with
  | Engine.Ok ->
    Printf.printf "  %-28s %8d page I/Os  %8.3fs\n%!" name result.Engine.page_ios
      result.Engine.elapsed
  | Engine.Budget_exceeded _ ->
    Printf.printf "  %-28s        censored (%.1fs)\n%!" name result.Engine.elapsed
  | Engine.Error msg | Engine.Io_error msg | Engine.Timeout msg -> failwith msg

(* --- Figure 7 ------------------------------------------------------------- *)

let fig7 () =
  header "Figure 7: timing of the top five engines";
  let scale = if !quick then 250 else 2500 in
  Printf.printf "workload: DBLP scale %d, pool 48 frames, per-test page-I/O budgets\n" scale;
  let table = T.Efficiency.run ~scale () in
  print_string (T.Efficiency.render table);
  print_string (T.Efficiency.shape table);
  if !json_mode then write_report "BENCH_fig7.json" (T.Report.fig7_json table);
  print_string
    "\npaper's Figure 7 (seconds; 2400 = censored at the time budget):\n\
     Engine   Test 1   Test 2   Test 3   Test 4   Test 5    Total\n\
     1          0.11   142.77    28.10   164.95     8.48   344.41\n\
     2          0.01     0.01     0.14     0.00     2400  2400.16\n\
     3         16.44   175.30     2400    63.76    29.70  2685.20\n\
     4         24.72     0.01     2400     0.00     2400  4824.72\n\
     5         65.41   163.93     2400   123.66    2400   5153.00\n\
     paper's censored cells: engine-2/test 5, engine-3/test 3, engine-4/tests 3 and 5,\n\
     engine-5/tests 3 and 5\n"

(* --- Figure 6 / Example 6 --------------------------------------------------- *)

let fig6 () =
  header "Figure 6 / Example 6: QP0 vs QP1 vs QP2";
  print_string (T.Plan_lab.render (T.Plan_lab.run ()))

(* --- milestone ablation ------------------------------------------------------ *)

let milestones () =
  header "Milestone ablation (the intro's orders-of-magnitude claim)";
  let scale = if !quick then 120 else 400 in
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled scale)] in
  let collected = ref [] in
  List.iter
    (fun (test, query) ->
      Printf.printf "%s\n" test;
      List.iter
        (fun config ->
          let config = { config with Config.pool_capacity = 48 } in
          let result = measure ~forest config query in
          row config.Config.name result;
          collected :=
            T.Report.result_json ~engine:config.Config.name ~test result :: !collected)
        [Config.m1; Config.m2; Config.m3; Config.m4])
    [ ("example 6 (selective semijoin query):", T.Queries.example6);
      ( "all article titles (scan-bound):",
        "for $x in //article return for $t in $x/title return $t" ) ];
  if !json_mode then
    write_report "BENCH_milestones.json"
      (T.Report.bench_json ~kind:"milestones" [] ~results:(List.rev !collected))

(* --- design-choice ablations -------------------------------------------------- *)

let ablations () =
  header "Ablations of the DESIGN.md design choices (m4 engine, Example 6)";
  let scale = if !quick then 200 else 800 in
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled scale)] in
  let base = { Config.m4 with Config.pool_capacity = 48 } in
  let q = T.Queries.example6 in
  let collected = ref [] in
  (* Print one human row and collect the same measurement for the JSON
     report: [group] is the ablation axis, [name] the variant. *)
  let arow group name result =
    row name result;
    collected := T.Report.result_json ~engine:name ~test:group result :: !collected
  in

  Printf.printf "1. relfor merging (milestone 3's algebraic step):\n";
  arow "relfor-merging" "merged (default)" (measure ~forest base q);
  arow "relfor-merging" "unmerged"
    (measure ~forest { base with Config.merge_relfors = false } q);

  Printf.printf "2. vartuples carrying out-values (descendant self-joins):\n";
  arow "carry-out" "carry out (default)" (measure ~forest base q);
  arow "carry-out" "naive (self-joins)"
    (measure ~forest
       { base with Config.planner = { base.Config.planner with Planner.carry_out = false } }
       q);

  Printf.printf "3. index structures and cost-based reordering (milestone 4):\n";
  arow "indexes" "indexes + reordering" (measure ~forest base q);
  arow "indexes" "indexes only"
    (measure ~forest
       { base with Config.planner = { base.Config.planner with Planner.cost_based = false } }
       q);
  arow "indexes" "neither (milestone 3)"
    (measure ~forest { base with Config.planner = Planner.m3_config } q);

  Printf.printf "4. ordering strategy (the milestone-3 discussion):\n";
  List.iter
    (fun (name, order) ->
      arow "ordering" name
        (measure ~forest
           { base with Config.planner = { base.Config.planner with Planner.order } }
           q))
    [ ("order-preserving (default)", `Preserve);
      ("external sort", `Ext_sort);
      ("in-memory sort", `Mem_sort);
      ("clustered B-tree (workaround)", `Btree_sort) ];

  Printf.printf "5. block-nested-loop block size (sorting strategies only):\n";
  (* Probing is disabled so the plan actually contains NL/BNL joins. *)
  let sort_config =
    { base with
      Config.planner =
        { base.Config.planner with Planner.order = `Mem_sort; use_indexes = false } }
  in
  arow "join" "order-preserving NL"
    (measure ~forest
       { base with Config.planner = { base.Config.planner with Planner.use_indexes = false } }
       q);
  arow "join" "sorted, BNL (block 64)" (measure ~forest sort_config q);

  Printf.printf "6. pipelining vs writing intermediates to disk:\n";
  arow "materialize" "pipelined"
    (measure ~forest
       { base with Config.planner = { base.Config.planner with Planner.materialize = `Mem } }
       q);
  arow "materialize" "spooled to disk"
    (measure ~forest
       { base with Config.planner = { base.Config.planner with Planner.materialize = `Disk } }
       q);

  if !json_mode then
    write_report "BENCH_ablations.json"
      (T.Report.bench_json ~kind:"ablations" [] ~results:(List.rev !collected))

(* --- plan templates ------------------------------------------------------------ *)

(* The compile-once claim, observable: a constructor between two nested
   for-loops blocks relfor merging, so the inner loop stays its own plan
   site and is re-entered once per outer article.  Template counts must
   stay at the number of relfor sites while binds (and data) scale. *)
let templates () =
  header "Parameterized plan templates: compile once, bind per outer tuple";
  let scales = if !quick then [60; 180] else [200; 800] in
  let query =
    "for $x in //article return <entry>{ for $a in $x/author return $a }</entry>"
  in
  Printf.printf "query: %s\n" query;
  let collected = ref [] in
  List.iter
    (fun scale ->
      let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled scale)] in
      let config = { Config.m4 with Config.pool_capacity = 48 } in
      let result = measure ~forest config query in
      let counter name =
        match List.assoc_opt name result.Engine.profile.Engine.counters with
        | Some v -> v
        | None -> 0
      in
      Printf.printf "  scale %-6d %8d page I/Os  %8.3fs  %d templates  %d binds\n%!"
        scale result.Engine.page_ios result.Engine.elapsed
        (counter "planner.templates_built")
        (counter "planner.template_binds");
      collected :=
        T.Report.result_json
          ~extra:[("scale", T.Report.Int scale)]
          ~engine:config.Config.name ~test:"nested-constructor" result
        :: !collected)
    scales;
  if !json_mode then
    write_report "BENCH_templates.json"
      (T.Report.bench_json ~kind:"templates" [] ~results:(List.rev !collected))

(* --- structural & path indexes --------------------------------------------------- *)

(* The index-vs-scan ablation: every test runs under m4 and under
   m4-nostruct (same engine, structural index family forced off).  On
   the deep Treebank tests the staircase/twig plans must do strictly
   less page I/O — check-bench gates every "structural" report on that,
   comparing m4 against m4-nostruct for every test named "deep-*".  The
   shallow DBLP row documents where the family deliberately does not
   fire. *)
let structural () =
  header "Structural & path indexes: staircase/twig plans vs per-outer probes";
  let tb_scale = if !quick then 25 else 60 in
  let dblp_scale = if !quick then 150 else 600 in
  (* A pool smaller than the deep document is the point: the per-outer
     probe plans re-fault pages the staircase/twig streams touch once. *)
  let pool_capacity = 16 in
  Printf.printf "workloads: Treebank scale %d (deep), DBLP scale %d (shallow), pool %d frames\n"
    tb_scale dblp_scale pool_capacity;
  let treebank = [W.Treebank_gen.generate (W.Treebank_gen.scaled tb_scale)] in
  let dblp = [W.Dblp_gen.generate (W.Dblp_gen.scaled dblp_scale)] in
  let collected = ref [] in
  List.iter
    (fun (test, forest, query) ->
      Printf.printf "%s\n" test;
      List.iter
        (fun config ->
          let config = { config with Config.pool_capacity } in
          let result = measure ~forest config query in
          row config.Config.name result;
          collected :=
            T.Report.result_json ~engine:config.Config.name ~test result :: !collected)
        [Config.m4; Config.m4_nostruct])
    [ ( "deep-twig (//S//NP//NN):",
        treebank,
        "for $s in //S return for $np in $s//NP return for $nn in $np//NN return $nn" );
      ( "deep-pair (//NP//NN):",
        treebank,
        "for $np in //NP return for $nn in $np//NN return $nn" );
      ( "deep-semi (NP with a VB descendant):",
        treebank,
        "for $np in //NP return if (some $vb in $np//VB satisfies true()) then <hit/> else ()"
      );
      ( "shallow-pair (//article//author):",
        dblp,
        "for $x in //article return for $a in $x//author return $a" ) ];
  if !json_mode then
    write_report "BENCH_structural.json"
      (T.Report.bench_json ~kind:"structural" [] ~results:(List.rev !collected))

(* --- Bechamel micro-benchmarks -------------------------------------------------- *)

let bechamel () =
  header "Bechamel micro-benchmarks (time per single run)";
  let open Bechamel in
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled 250)] in
  let xml = Xqdb_xml.Xml_print.forest_to_string forest in
  let engine1 = Engine.load_forest ~config:Config.engine1 forest in
  let m1 = Engine.with_config Config.m1 engine1 in
  let m2 = Engine.with_config Config.m2 engine1 in
  let m4 = Engine.with_config Config.m4 engine1 in
  let parsed =
    List.map (fun (n, q) -> (n, Xqdb_xq.Xq_parser.parse q)) T.Queries.efficiency_queries
  in
  let run_query engine query () = ignore (Engine.run engine query) in
  (* One Test.make per reproduced table/figure. *)
  let figure_tests =
    (* Figure 7: the five efficiency tests on the winning engine. *)
    List.map
      (fun (name, query) -> Test.make ~name:("fig7 " ^ name) (Staged.stage (run_query engine1 query)))
      parsed
    @ [ (* Figure 6: the best and worst plans of the Example 6 lab. *)
        Test.make ~name:"fig6 example6 m4"
          (Staged.stage (run_query m4 (Xqdb_xq.Xq_parser.parse T.Queries.example6)));
        (* The milestone ablation behind the intro's claim. *)
        Test.make ~name:"milestones m1"
          (Staged.stage (run_query m1 (Xqdb_xq.Xq_parser.parse T.Queries.example6)));
        Test.make ~name:"milestones m2"
          (Staged.stage (run_query m2 (Xqdb_xq.Xq_parser.parse T.Queries.example6)));
        (* Figure 2 / Example 1: labeling and shredding throughput. *)
        Test.make ~name:"fig2 shred document"
          (Staged.stage (fun () ->
               let disk = Storage.Disk.in_memory () in
               let pool = Storage.Buffer_pool.create disk in
               ignore (Xqdb_xasr.Shredder.shred_string pool ~name:"d" xml)));
        Test.make ~name:"fig2 label document"
          (Staged.stage (fun () -> ignore (Xqdb_xml.Xml_doc.of_forest forest)));
        (* Figures 3-5: the rewriting pipeline itself. *)
        Test.make ~name:"fig3-5 rewrite+merge"
          (Staged.stage
             (let q = Xqdb_xq.Xq_parser.parse T.Queries.example6 in
              fun () -> ignore (Xqdb_tpm.Merge.merge (Rewrite.query q)))) ]
  in
  let grouped = Test.make_grouped ~name:"xqdb" figure_tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [Toolkit.Instance.monotonic_clock] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ns] -> Printf.printf "  %-32s %12.3f ms/run\n" name (ns /. 1e6)
      | Some _ | None -> Printf.printf "  %-32s (no estimate)\n" name)
    (List.sort compare rows)

(* --- Concurrent traffic --------------------------------------------------- *)

let traffic () =
  header "Traffic: concurrent sessions over one shared database";
  let scale = if !quick then 100 else 250 in
  let requests = if !quick then 10 else 40 in
  let report =
    T.Traffic.run ~sessions:4 ~requests ~seed:42 ~scale ~mode:T.Traffic.Closed ()
  in
  print_string (T.Traffic.render report);
  if report.T.Traffic.total_mismatches <> 0 then
    failwith "traffic: oracle mismatches under concurrency";
  if !json_mode then write_report "BENCH_traffic.json" (T.Report.traffic_json report)

let sections =
  [ ("fig7", fig7); ("fig6", fig6); ("milestones", milestones); ("ablations", ablations);
    ("templates", templates); ("structural", structural); ("traffic", traffic);
    ("bechamel", bechamel) ]

let () =
  let args = match Array.to_list Sys.argv with [] -> [] | _ :: rest -> rest in
  let flags, names = List.partition (fun a -> String.length a >= 2 && a.[0] = '-') args in
  List.iter
    (function
      | "--json" -> json_mode := true
      | "--quick" -> quick := true
      | flag ->
        Printf.eprintf "unknown flag %S (known: --json, --quick)\n" flag;
        exit 1)
    flags;
  let requested = match names with [] -> List.map fst sections | names -> names in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown section %S (known: %s)\n" name
          (String.concat ", " (List.map fst sections));
        exit 1)
    requested;
  print_newline ()
