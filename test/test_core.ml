(* Tests for the engine: end-to-end evaluation at every milestone, the
   central cross-engine equivalence property, budgets, explain. *)

module Engine = Xqdb_core.Engine
module Config = Xqdb_core.Engine_config
module W = Xqdb_workload
module G = QCheck2.Gen

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let journal_engine = lazy (Engine.load_forest ~config:Config.m4 [W.Docs.figure2])

let run_at config src =
  let engine = Engine.with_config config (Lazy.force journal_engine) in
  let result = Engine.run engine (Xqdb_xq.Xq_parser.parse src) in
  match result.Engine.status with
  | Engine.Ok -> result.Engine.output
  | Engine.Error msg | Engine.Budget_exceeded msg | Engine.Io_error msg
  | Engine.Timeout msg -> Alcotest.fail msg

(* --- example 2 at every milestone ---------------------------------------- *)

let example2 = "<names>{ for $j in /journal return for $n in $j//name return $n }</names>"

let test_example2_everywhere () =
  List.iter
    (fun config ->
      Alcotest.(check string)
        (config.Config.name ^ " computes example 2")
        "<names><name>Ana</name><name>Bob</name></names>"
        (run_at config example2))
    Config.all_presets

(* Constructor emptiness follows node production, not bytes written:
   an empty text literal is a node, [()] and a childless path are not. *)
let test_empty_constructors () =
  let cases =
    [ ({|<a>{ text { "" } }</a>|}, "<a></a>");
      ("<a>{ () }</a>", "<a/>");
      ("for $x in /r return <k>{ $x/text() }</k>", "<k/>") ]
  in
  List.iter
    (fun config ->
      let engine = Engine.load ~config "<r><s/></r>" in
      List.iter
        (fun (src, want) ->
          let result = Engine.run_string engine src in
          Alcotest.(check string) (config.Config.name ^ ": " ^ src) want result.Engine.output)
        cases)
    [Config.m1; Config.m2; Config.m3; Config.m4]

(* The staged forms' [eval] is the parse of the streamed output. *)
let test_eval_is_output () =
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled 60)] in
  List.iter
    (fun config ->
      let engine = Engine.load_forest ~config forest in
      List.iter
        (fun (name, src) ->
          let query = Xqdb_xq.Xq_parser.parse src in
          Alcotest.(check string) (config.Config.name ^ " " ^ name)
            (Engine.run engine query).Engine.output
            (Xqdb_xml.Xml_print.forest_to_string (Engine.eval engine query)))
        (Xqdb_testbed.Queries.public_queries @ Xqdb_testbed.Queries.efficiency_queries))
    [Config.m3; Config.m4]

let test_presets () =
  Alcotest.(check int) "nine presets" 9 (List.length Config.all_presets);
  Alcotest.(check int) "five engines" 5 (List.length Config.figure7_engines);
  let names = List.map (fun c -> c.Config.name) Config.all_presets in
  Alcotest.(check int) "preset names are unique" 9
    (List.length (List.sort_uniq String.compare names))

let test_config_validation () =
  let reject what config =
    match Config.validate config with
    | _ -> Alcotest.fail (what ^ " must be rejected")
    | exception Invalid_argument _ -> ()
  in
  reject "batch_size 0" { Config.m4 with Config.batch_size = 0 };
  reject "negative batch_size" { Config.m4 with Config.batch_size = -3 };
  (* An oversized batch is clamped, not rejected: nothing breaks, it
     just wastes memory past the page capacity. *)
  let clamped = Config.validate { Config.m4 with Config.batch_size = 1_000_000 } in
  Alcotest.(check int) "oversized batch clamps to the page capacity"
    Config.max_batch_size clamped.Config.batch_size;
  (* Every shipped preset validates unchanged. *)
  List.iter
    (fun c ->
      let v = Config.validate c in
      Alcotest.(check int) "preset batch size kept" c.Config.batch_size
        v.Config.batch_size)
    Config.all_presets;
  (* Engine constructors apply validation, so a bad config cannot reach
     the operators. *)
  match Engine.load ~config:{ Config.m4 with Config.batch_size = 0 } W.Docs.figure2_string with
  | _ -> Alcotest.fail "Engine.load must validate its config"
  | exception Invalid_argument _ -> ()

(* --- the central equivalence property -------------------------------------- *)

(* Random documents, random queries: milestones 2, 3 and 4 (and the five
   engine configurations) agree with milestone 1 — the claim behind the
   course's correctness testing. *)
let engines_agree =
  QCheck2.Test.make ~name:"all engines = milestone 1 (random docs and queries)" ~count:150
    G.(pair Test_support.Gen.forest_gen Test_support.Gen.xq_gen)
    (fun (forest, query) ->
      let base = Engine.load_forest ~config:Config.m1 forest in
      let outcome config =
        let engine = Engine.with_config config base in
        let result = Engine.run engine query in
        match result.Engine.status with
        | Engine.Ok -> Ok result.Engine.output
        | Engine.Error _ -> Error `Type_error
        | Engine.Budget_exceeded _ | Engine.Timeout _ -> Error `Budget
        | Engine.Io_error _ -> Error `Io
      in
      let reference = outcome Config.m1 in
      List.for_all (fun config -> outcome config = reference) (List.tl Config.all_presets))

(* Carry-out ablation: the naive descendant encoding (extra self-joins,
   out values refetched) computes the same results. *)
let naive_rewrite_agrees =
  QCheck2.Test.make ~name:"naive (no carry-out) rewriting agrees" ~count:100
    G.(pair Test_support.Gen.forest_gen Test_support.Gen.xq_gen)
    (fun (forest, query) ->
      let base = Engine.load_forest ~config:Config.m4 forest in
      let naive_config =
        { Config.m4 with
          Config.name = "m4-naive";
          planner = { Config.m4.Config.planner with Xqdb_optimizer.Planner.carry_out = false } }
      in
      let outcome config =
        let engine = Engine.with_config config base in
        let result = Engine.run engine query in
        match result.Engine.status with
        | Engine.Ok -> Ok result.Engine.output
        | Engine.Error _ -> Error `Type_error
        | Engine.Budget_exceeded _ | Engine.Timeout _ -> Error `Budget
        | Engine.Io_error _ -> Error `Io
      in
      outcome Config.m4 = outcome naive_config)

(* Merging ablation: with relfor merging disabled, milestone 3/4 engines
   still agree (they just run slower). *)
let merging_ablation_agrees =
  QCheck2.Test.make ~name:"unmerged relfors agree" ~count:100
    G.(pair Test_support.Gen.forest_gen Test_support.Gen.xq_gen)
    (fun (forest, query) ->
      let base = Engine.load_forest ~config:Config.m4 forest in
      let unmerged = { Config.m4 with Config.name = "m4-unmerged"; merge_relfors = false } in
      let outcome config =
        let engine = Engine.with_config config base in
        let result = Engine.run engine query in
        match result.Engine.status with
        | Engine.Ok -> Ok result.Engine.output
        | Engine.Error _ -> Error `Type_error
        | Engine.Budget_exceeded _ | Engine.Timeout _ -> Error `Budget
        | Engine.Io_error _ -> Error `Io
      in
      outcome Config.m4 = outcome unmerged)

(* --- profiles: counters reconcile --------------------------------------------- *)

(* The run's page I/Os, read from the counters charged to its scope. *)
let disk_ios (p : Engine.profile) =
  Xqdb_storage.Metrics.get p.Engine.counters "disk.reads"
  + Xqdb_storage.Metrics.get p.Engine.counters "disk.writes"

(* Attribution is never negative: every operator's inclusive I/O covers
   its inputs', so the exclusive share really partitions the total. *)

let rec op_profile_consistent (p : Engine.op_profile) =
  let kid_ios =
    List.fold_left (fun acc (c : Engine.op_profile) -> acc + c.Engine.ios) 0 p.Engine.inputs
  in
  p.Engine.rows >= 0
  && p.Engine.ios >= kid_ios
  && p.Engine.own_ios + kid_ios = p.Engine.ios
  && List.for_all op_profile_consistent p.Engine.inputs

(* The reconciliation property of the observability layer: per-operator
   attributed I/Os plus the engine's residual equal the run's page I/Os,
   which equal the raw disk-counter delta; the scope's pool counters
   agree with its disk counters (every read is a pool miss); and nothing
   leaks between queries — each run has its own scope, so a second run
   reconciles on its own. *)
let profiles_reconcile =
  QCheck2.Test.make ~name:"profiles reconcile with disk counters" ~count:100
    G.(pair Test_support.Gen.forest_gen Test_support.Gen.xq_gen)
    (fun (forest, query) ->
      let base = Engine.load_forest ~config:Config.m1 forest in
      let reconciles config =
        let engine = Engine.with_config config base in
        let disk = Engine.disk engine in
        let check () =
          let before = Xqdb_storage.Disk.total_ios disk in
          let result = Engine.run engine query in
          let delta = Xqdb_storage.Disk.total_ios disk - before in
          let p = result.Engine.profile in
          result.Engine.page_ios = delta
          && disk_ios p = delta
          && p.Engine.operator_ios + p.Engine.other_ios = result.Engine.page_ios
          && p.Engine.other_ios >= 0
          && p.Engine.operator_ios
             = List.fold_left
                 (fun acc (o : Engine.op_profile) -> acc + o.Engine.ios)
                 0 p.Engine.operators
          && List.for_all op_profile_consistent p.Engine.operators
          && Xqdb_storage.Metrics.get p.Engine.counters "pool.misses"
             = Xqdb_storage.Metrics.get p.Engine.counters "disk.reads"
          && List.for_all (fun (_, v) -> v > 0) p.Engine.counters
        in
        (* Twice: the second run must reconcile independently of the
           first (deltas, not absolute counters). *)
        check () && check ()
      in
      List.for_all reconciles Config.all_presets)

(* Algebraic runs actually attribute work to operators: a query with a
   relfor yields a non-empty operator breakdown with the rows it
   produced. *)
let test_profile_operators () =
  let engine = Lazy.force journal_engine in
  let result = Engine.run engine (Xqdb_xq.Xq_parser.parse example2) in
  let p = result.Engine.profile in
  Alcotest.(check bool) "operator breakdown present" true (p.Engine.operators <> []);
  let rows_somewhere =
    List.exists (fun (o : Engine.op_profile) -> o.Engine.rows > 0) p.Engine.operators
  in
  Alcotest.(check bool) "rows counted" true rows_somewhere;
  (* The journal document is small — everything fits in the pool — but
     loading did real I/O, so the pool saw traffic and the profile's
     counter section carries storage-structure names. *)
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " non-negative") true (v >= 0))
    p.Engine.counters

(* --- budgets and errors ------------------------------------------------------ *)

let test_budget_censoring () =
  let config = { Config.m4 with Config.pool_capacity = 4 } in
  let engine = Engine.load_forest ~config [W.Dblp_gen.generate (W.Dblp_gen.scaled 200)] in
  let pool = Engine.pool engine in
  let q =
    Xqdb_xq.Xq_parser.parse "for $x in //article return for $y in //author return <p/>"
  in
  (* The budgeted run must be the cold one: a warm rerun replays the
     template's materialized operator caches and may finish with zero
     page I/O, so no budget could censor it. *)
  Xqdb_storage.Buffer_pool.drop_all pool;
  let result = Engine.run ~max_page_ios:1 engine q in
  (match result.Engine.status with
   | Engine.Budget_exceeded _ ->
     (* The pool checks the cap after charging each read and the
        write-back its eviction caused, so the run stops within two
        I/Os past the cap. *)
     Alcotest.(check bool) "i/o accounted" true (result.Engine.page_ios > 1);
     Alcotest.(check bool) "stopped at the cap" true (result.Engine.page_ios <= 3)
   | Engine.Ok | Engine.Error _ | Engine.Io_error _ | Engine.Timeout _ ->
     Alcotest.fail "expected budget exhaustion");
  (* Unbudgeted, the same query completes. *)
  let result = Engine.run engine q in
  match result.Engine.status with
  | Engine.Ok -> ()
  | _ -> Alcotest.fail "expected success without budget"

(* Figure 7's censoring point: engine 2 on test 3 at DBLP 400, under
   grade-fig7's scaled cap, stops within two I/Os of the cap at any
   batch size.  One batch of its selective join covers thousands of
   page I/Os, so only a check on the I/O itself can stop it there.  The
   censored run's profile still reconciles: disk reads + writes = page
   I/Os = operator I/Os + the residual, over consistent operator trees. *)
let test_fig7_cap_is_exact () =
  let cap = 1_280 in
  let engine =
    Engine.load_forest ~config:Config.engine2 [W.Dblp_gen.generate (W.Dblp_gen.scaled 400)]
  in
  let q =
    Xqdb_xq.Xq_parser.parse
      (List.assoc "test3-semijoin" Xqdb_testbed.Queries.efficiency_queries)
  in
  List.iter
    (fun batch_size ->
      let engine = Engine.with_config { Config.engine2 with Config.batch_size } engine in
      Xqdb_storage.Buffer_pool.drop_all (Engine.pool engine);
      let r = Engine.run ~max_page_ios:cap engine q in
      let what = Printf.sprintf "batch %d" batch_size in
      (match r.Engine.status with
       | Engine.Budget_exceeded _ -> ()
       | Engine.Ok | Engine.Error _ | Engine.Io_error _ | Engine.Timeout _ ->
         Alcotest.failf "%s: expected censoring" what);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d page I/Os within (cap, cap + 2]" what r.Engine.page_ios)
        true
        (r.Engine.page_ios > cap && r.Engine.page_ios <= cap + 2);
      let p = r.Engine.profile in
      Alcotest.(check int) (what ^ ": reads + writes = page I/Os") r.Engine.page_ios
        (disk_ios p);
      Alcotest.(check int) (what ^ ": operator + other I/Os = page I/Os") r.Engine.page_ios
        (p.Engine.operator_ios + p.Engine.other_ios);
      Alcotest.(check int) (what ^ ": operator I/Os = sum of operator roots")
        p.Engine.operator_ios
        (List.fold_left (fun acc (o : Engine.op_profile) -> acc + o.Engine.ios) 0
           p.Engine.operators);
      Alcotest.(check bool) (what ^ ": operator trees consistent") true
        (List.for_all op_profile_consistent p.Engine.operators))
    [256; 1]

let test_type_errors_reported () =
  let engine = Lazy.force journal_engine in
  let q = Xqdb_xq.Xq_parser.parse "for $n in //name return if ($n = \"Ana\") then $n else ()" in
  List.iter
    (fun config ->
      let result = Engine.run (Engine.with_config config engine) q in
      match result.Engine.status with
      | Engine.Error _ -> ()
      | Engine.Ok | Engine.Budget_exceeded _ | Engine.Io_error _ | Engine.Timeout _ ->
        (* Milestones 3/4 evaluate comparisons algebraically and simply
           find no matching text node — the documented divergence. *)
        if config.Config.milestone = Config.M1 || config.Config.milestone = Config.M2 then
          Alcotest.failf "%s should raise a type error" config.Config.name)
    Config.all_presets

(* A query against a fully-pinned pool must end in a proper status — the
   typed Pool_exhausted maps to Io_error — never an escaped exception. *)
let test_pool_exhausted_censors () =
  let config = { Config.m4 with Config.pool_capacity = 4 } in
  let engine =
    Engine.load_forest ~config [W.Dblp_gen.generate (W.Dblp_gen.scaled 100)]
  in
  let pool = Engine.pool engine in
  let q = Xqdb_xq.Xq_parser.parse "for $x in //article return $x" in
  let rec pinning pages k =
    match pages with
    | [] -> k ()
    | p :: rest -> Xqdb_storage.Buffer_pool.with_page pool p (fun _ -> pinning rest k)
  in
  (* Pin a full pool's worth of frames, then run: the first fetch of any
     other page has no evictable frame. *)
  let result = pinning [0; 1; 2; 3] (fun () -> Engine.run engine q) in
  (match result.Engine.status with
   | Engine.Io_error _ -> ()
   | Engine.Ok | Engine.Error _ | Engine.Budget_exceeded _ | Engine.Timeout _ ->
     Alcotest.fail "expected Io_error from a fully pinned pool");
  (* Pins released: the same engine works again. *)
  match (Engine.run engine q).Engine.status with
  | Engine.Ok -> ()
  | _ -> Alcotest.fail "engine should recover once pins are released"

(* The sanitizer as an end-to-end oracle: an engine over a sanitizing
   pool, hit by hard disk faults mid-query, must censor to Io_error with
   no page left pinned, and recover to Ok once the injector detaches. *)
let test_sanitized_engine_under_faults () =
  let module St = Xqdb_storage in
  let disk = St.Disk.in_memory () in
  let pool = St.Buffer_pool.create ~capacity:16 ~sanitize:true disk in
  let catalog = St.Catalog.attach pool in
  let store, doc_stats =
    Xqdb_xasr.Shredder.shred_forest pool ~name:"dblp"
      [W.Dblp_gen.generate (W.Dblp_gen.scaled 100)]
  in
  let engine =
    Engine.attach ~config:Config.m4 ~disk ~pool ~catalog ~store ~doc_stats ()
  in
  Alcotest.(check bool) "pool is sanitizing" true (St.Buffer_pool.sanitizing pool);
  let q = Xqdb_xq.Xq_parser.parse "for $x in //article return $x" in
  (match (Engine.run engine q).Engine.status with
  | Engine.Ok -> ()
  | _ -> Alcotest.fail "engine should run clean before faults");
  St.Buffer_pool.drop_all pool;
  let hard_reads =
    { St.Fault_disk.read_fault_rate = 1.0;
      write_fault_rate = 0.;
      alloc_fault_rate = 0.;
      transient_fraction = 0.;
      torn_fraction = 0. }
  in
  let injector = St.Fault_disk.attach ~policy:hard_reads ~seed:3 disk in
  (match (Engine.run engine q).Engine.status with
  | Engine.Io_error _ -> ()
  | Engine.Ok | Engine.Error _ | Engine.Budget_exceeded _ | Engine.Timeout _ ->
    Alcotest.fail "expected Io_error under hard read faults");
  Alcotest.(check (list (pair int int))) "no pins after censored run" []
    (St.Buffer_pool.pinned_pages pool);
  St.Fault_disk.detach injector;
  match (Engine.run engine q).Engine.status with
  | Engine.Ok -> ()
  | _ -> Alcotest.fail "engine should recover once the injector detaches"

let test_check_rejects_bad_queries () =
  let engine = Lazy.force journal_engine in
  match Engine.run engine (Xqdb_xq.Xq_parser.parse "$nope/a") with
  | _ -> Alcotest.fail "unbound variable should be rejected"
  | exception Invalid_argument _ -> ()

(* --- explain ------------------------------------------------------------------ *)

let test_explain () =
  let engine = Lazy.force journal_engine in
  let q = Xqdb_xq.Xq_parser.parse example2 in
  let text = Engine.explain engine q in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (fragment ^ " in explain") true (contains text fragment))
    ["relfor"; "plan for relfor"; "XASR[J]"; "order-preserving"];
  let m1_text = Engine.explain (Engine.with_config Config.m1 engine) q in
  Alcotest.(check bool) "m1 explain mentions in-memory" true (contains m1_text "in-memory")

let test_document_accessors () =
  let engine = Lazy.force journal_engine in
  Alcotest.(check int) "store tuples" 9 (Xqdb_xasr.Node_store.tuple_count (Engine.store engine));
  Alcotest.(check int) "doc nodes" 9 (Xqdb_xml.Xml_doc.count (Engine.document engine));
  Alcotest.(check int) "stats nodes" 9 (Engine.doc_stats engine).Xqdb_xasr.Doc_stats.node_count

let test_prepared_queries () =
  let engine = Lazy.force journal_engine in
  let q = Xqdb_xq.Xq_parser.parse example2 in
  let prepared = Engine.compile engine q in
  let direct = Engine.run engine q in
  let via_prepared = Engine.execute engine prepared in
  Alcotest.(check string) "prepared = direct" direct.Engine.output via_prepared.Engine.output;
  (* Re-running the same prepared query agrees with itself. *)
  Alcotest.(check string) "stable across runs" via_prepared.Engine.output
    (Engine.execute engine prepared).Engine.output;
  (* Milestones without a compile step also prepare. *)
  let m2 = Engine.with_config Config.m2 engine in
  Alcotest.(check string) "m2 prepared" direct.Engine.output
    (Engine.execute m2 (Engine.compile m2 q)).Engine.output;
  (* Bad queries are rejected at compile time. *)
  match Engine.compile engine (Xqdb_xq.Xq_parser.parse "$nope") with
  | _ -> Alcotest.fail "compile should check"
  | exception Invalid_argument _ -> ()

(* --- the prepared-plan cache and compile-once planning ------------------------ *)

let counter r name =
  match List.assoc_opt name r.Engine.profile.Engine.counters with
  | Some v -> v
  | None -> 0

let test_prepared_cache_counters () =
  (* A fresh engine so other tests' cache entries cannot interfere. *)
  let engine = Engine.load_forest ~config:Config.m4 [W.Docs.figure2] in
  let q = Xqdb_xq.Xq_parser.parse example2 in
  let r1 = Engine.run engine q in
  Alcotest.(check int) "first run misses the cache" 0
    (counter r1 "engine.prepared_cache_hits");
  Alcotest.(check bool) "first run builds templates" true
    (counter r1 "planner.templates_built" > 0);
  let r2 = Engine.run engine q in
  Alcotest.(check string) "same answer" r1.Engine.output r2.Engine.output;
  Alcotest.(check int) "second run hits the cache" 1
    (counter r2 "engine.prepared_cache_hits");
  Alcotest.(check int) "second run builds no templates" 0
    (counter r2 "planner.templates_built");
  (* Reconfiguring starts a fresh cache: plans never leak across configs. *)
  let r3 = Engine.run (Engine.with_config Config.m4 engine) q in
  Alcotest.(check int) "fresh cache misses" 0 (counter r3 "engine.prepared_cache_hits");
  Alcotest.(check bool) "fresh cache recompiles" true
    (counter r3 "planner.templates_built" > 0)

(* The acceptance criterion of the compile-once pipeline: for a nested
   query whose constructor blocks relfor merging, templates_built stays
   at the number of relfor sites while template_binds scales with the
   outer cardinality. *)
let test_templates_scale_with_sites () =
  let nested =
    "for $x in //article return <entry>{ for $a in $x/author return $a }</entry>"
  in
  let q = Xqdb_xq.Xq_parser.parse nested in
  let run scale =
    let engine =
      Engine.load_forest ~config:Config.m4
        [W.Dblp_gen.generate (W.Dblp_gen.scaled scale)]
    in
    let r = Engine.run engine q in
    Alcotest.(check bool) "query succeeds" true (r.Engine.status = Engine.Ok);
    (counter r "planner.templates_built", counter r "planner.template_binds")
  in
  let built60, binds60 = run 60 in
  let built180, binds180 = run 180 in
  Alcotest.(check int) "two relfor sites at scale 60" 2 built60;
  Alcotest.(check int) "still two sites at scale 180" 2 built180;
  Alcotest.(check bool) "binds scale with the data" true (binds180 > binds60);
  Alcotest.(check bool) "binds far exceed builds" true (binds180 > 10 * built180)

let test_explain_stages_and_analyze () =
  let engine = Lazy.force journal_engine in
  let q = Xqdb_xq.Xq_parser.parse example2 in
  let text = Engine.explain engine q in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (fragment ^ " in explain") true (contains text fragment))
    ["== source: xq-ast =="; "== rewrite: tpm =="; "== plan: physical =="];
  Alcotest.(check bool) "plain explain has no analyze section" false
    (contains text "== analyze ==");
  let analyzed = Engine.explain ~analyze:true engine q in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (fragment ^ " in explain --analyze") true
        (contains analyzed fragment))
    ["== analyze =="; "status: ok"; "page I/Os:"; "site 0:"; "rows"]

(* Efficiency test 2 joins each volume to its text children through an
   in-memory inner; m4 keys that inner on the child's parent column. *)
let test_explain_keyed_nl_join () =
  let engine = Engine.load_forest ~config:Config.m4 [W.Dblp_gen.generate (W.Dblp_gen.scaled 60)] in
  let q =
    Xqdb_xq.Xq_parser.parse (List.assoc "test2-needle" Xqdb_testbed.Queries.efficiency_queries)
  in
  let analyzed = Engine.explain ~analyze:true engine q in
  Alcotest.(check bool) "keyed nl-join in explain --analyze" true
    (contains analyzed "nl-join [T.parent_in = V.in; inner in memory, keyed on T.parent_in]")

(* --- multi-document databases -------------------------------------------------- *)

module DB = Xqdb_core.Database

let test_database_basics () =
  let db = DB.create () in
  ignore (DB.load_document db ~name:"journal" W.Docs.figure2_string);
  ignore (DB.load_forest db ~name:"lib" [W.Docs.tiny]);
  Alcotest.(check (list string)) "names sorted" ["journal"; "lib"] (DB.document_names db);
  let q = Xqdb_xq.Xq_parser.parse "for $n in //name return $n" in
  Alcotest.(check string) "query one document" "<name>Ana</name><name>Bob</name>"
    (DB.run db ~name:"journal" q).Engine.output;
  Alcotest.(check string) "other document unaffected" ""
    (DB.run db ~name:"lib" q).Engine.output;
  (* A different milestone over the same document. *)
  let m1 = DB.engine ~config:Config.m1 db ~name:"journal" in
  Alcotest.(check string) "m1 engine" "<name>Ana</name><name>Bob</name>"
    (Engine.run m1 q).Engine.output;
  (* Name hygiene. *)
  (match DB.load_document db ~name:"journal" "<x/>" with
   | _ -> Alcotest.fail "duplicate name should be rejected"
   | exception Invalid_argument _ -> ());
  (match DB.load_document db ~name:"a.b" "<x/>" with
   | _ -> Alcotest.fail "dotted name should be rejected"
   | exception Invalid_argument _ -> ());
  (match DB.engine db ~name:"nope" with
   | _ -> Alcotest.fail "unknown name should raise"
   | exception Not_found -> ())

(* --- the prepared-plan cache ---------------------------------------------------- *)

module PC = Xqdb_core.Plan_cache
module Metrics = Xqdb_storage.Metrics

let cache_hits (r : Engine.result) =
  Metrics.get r.Engine.profile.Engine.counters "engine.prepared_cache_hits"

(* The regression the server work surfaced: cached plans compiled
   against one catalog epoch must not survive a load or drop.  Before
   the epoch stamp, a drop + re-query would happily run a plan over
   dead pages. *)
let test_prepared_cache_invalidation () =
  let db = DB.create () in
  ignore (DB.load_document db ~name:"journal" W.Docs.figure2_string);
  let engine = DB.engine db ~name:"journal" in
  let q = Xqdb_xq.Xq_parser.parse "for $n in //name return $n" in
  ignore (Engine.run engine q);
  Alcotest.(check int) "second run hits the cache" 1 (cache_hits (Engine.run engine q));
  (* Loading another document moves the catalog epoch: the cache is
     invalidated wholesale, the re-run recompiles and still succeeds. *)
  let inv = Metrics.counter "engine.prepared_cache_invalidations" in
  let inv_before = Metrics.value inv in
  ignore (DB.load_forest db ~name:"lib" [W.Docs.tiny]);
  let r = Engine.run engine q in
  Alcotest.(check int) "load invalidates, no hit" 0 (cache_hits r);
  Alcotest.(check string) "recompiled plan is correct"
    "<name>Ana</name><name>Bob</name>" r.Engine.output;
  Alcotest.(check int) "one invalidation counted" (inv_before + 1) (Metrics.value inv);
  Alcotest.(check int) "then caches again" 1 (cache_hits (Engine.run engine q));
  (* Dropping the engine's own document: the re-query is censored to
     Io_error — and stays censored on every retry, never served from a
     stale plan over dead pages. *)
  DB.drop_document db ~name:"journal";
  let censored () =
    match (Engine.run engine q).Engine.status with
    | Engine.Io_error _ -> ()
    | Engine.Ok -> Alcotest.fail "query over a dropped document should be censored"
    | Engine.Error m | Engine.Budget_exceeded m | Engine.Timeout m -> Alcotest.fail m
  in
  censored ();
  censored ()

let test_plan_cache_lru () =
  let c = PC.create 2 in
  let evicted = ref [] in
  let on_evict k _ = evicted := k :: !evicted in
  PC.put ~on_evict c "a" 1;
  PC.put ~on_evict c "b" 2;
  Alcotest.(check (option int)) "find freshens" (Some 1) (PC.find c "a");
  PC.put ~on_evict c "c" 3;
  Alcotest.(check (list string)) "LRU entry evicted" ["b"] !evicted;
  Alcotest.(check (list string)) "order, LRU first" ["a"; "c"] (PC.keys_lru_first c);
  Alcotest.(check (option int)) "evicted key gone" None (PC.find c "b");
  Alcotest.(check int) "bounded" 2 (PC.length c);
  PC.clear c;
  Alcotest.(check int) "clear empties" 0 (PC.length c);
  Alcotest.(check (list string)) "no eviction callbacks on clear" ["b"] !evicted;
  match PC.create 0 with
  | _ -> Alcotest.fail "zero capacity should be rejected"
  | exception Invalid_argument _ -> ()

(* The cache is bounded per engine: pushing past its capacity evicts the
   least-recently-used plan, which then recompiles. *)
let test_prepared_cache_bounded () =
  let engine = Engine.load_forest ~config:Config.m4 [W.Docs.figure2] in
  let run src = Engine.run engine (Xqdb_xq.Xq_parser.parse src) in
  let ev = Metrics.counter "engine.prepared_cache_evictions" in
  let ev_before = Metrics.value ev in
  ignore (run "/journal");
  for i = 1 to Engine.plan_cache_capacity do
    ignore (run (Printf.sprintf "<q%d/>" i))
  done;
  Alcotest.(check bool) "eviction counted" true (Metrics.value ev > ev_before);
  Alcotest.(check int) "evicted plan recompiles" 0 (cache_hits (run "/journal"));
  Alcotest.(check int) "and caches again" 1 (cache_hits (run "/journal"))

(* Session views share the store but own their caches: a hit on the
   base engine says nothing about a fresh session. *)
let test_session_views () =
  let engine = Engine.load_forest ~config:Config.m4 [W.Docs.figure2] in
  let q = Xqdb_xq.Xq_parser.parse "for $n in //name return $n" in
  ignore (Engine.run engine q);
  Alcotest.(check int) "base caches" 1 (cache_hits (Engine.run engine q));
  let view = Engine.session engine in
  Alcotest.(check int) "fresh session, fresh cache" 0 (cache_hits (Engine.run view q));
  Alcotest.(check string) "same answer"
    "<name>Ana</name><name>Bob</name>" (Engine.run view q).Engine.output;
  Alcotest.(check int) "session caches independently" 1 (cache_hits (Engine.run view q))

let test_database_persistence () =
  let path = Filename.temp_file "xqdb_db" ".db" in
  let db = DB.create ~on_file:path () in
  ignore (DB.load_document db ~name:"journal" W.Docs.figure2_string);
  ignore (DB.load_forest db ~name:"dblp" [W.Dblp_gen.generate (W.Dblp_gen.scaled 40)]);
  DB.close db;
  (* Reopen: documents, indexes and statistics come back. *)
  let db2 = DB.open_file path in
  Alcotest.(check (list string)) "documents survive" ["dblp"; "journal"]
    (DB.document_names db2);
  let q = Xqdb_xq.Xq_parser.parse "for $n in //name return $n" in
  Alcotest.(check string) "query after reopen" "<name>Ana</name><name>Bob</name>"
    (DB.run db2 ~name:"journal" q).Engine.output;
  let stats = Engine.doc_stats (DB.engine db2 ~name:"journal") in
  Alcotest.(check int) "statistics survive" 9 stats.Xqdb_xasr.Doc_stats.node_count;
  (* Dropping a document persists, too. *)
  DB.drop_document db2 ~name:"dblp";
  DB.close db2;
  let db3 = DB.open_file path in
  Alcotest.(check (list string)) "drop survives reopen" ["journal"] (DB.document_names db3);
  (match DB.drop_document db3 ~name:"dblp" with
   | _ -> Alcotest.fail "dropping twice should raise"
   | exception Not_found -> ());
  DB.close db3;
  Sys.remove path

(* A file database larger than its pool reads back pages it wrote back
   earlier in the same run; every such read must see the latest write.
   Reads through a buffer that writes never invalidated used to return
   stale page images here and fail with "index out of bounds". *)
let test_file_backed_small_pool () =
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled 400)] in
  let q = Xqdb_xq.Xq_parser.parse "for $x in //article return for $t in $x/title return $t" in
  let config = { Config.m4 with Config.pool_capacity = 48 } in
  let mem = DB.create ~config () in
  ignore (DB.load_forest mem ~name:"dblp" forest);
  let expected = (DB.run mem ~name:"dblp" q).Engine.output in
  DB.close mem;
  let path = Filename.temp_file "xqdb_small_pool" ".db" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [path; path ^ ".wal"])
    (fun () ->
      let db = DB.create ~config ~on_file:path () in
      ignore (DB.load_forest db ~name:"dblp" forest);
      Alcotest.(check string) "file-backed answer matches in-memory" expected
        (DB.run db ~name:"dblp" q).Engine.output;
      DB.close db)

let () =
  let prop = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [ ( "milestones",
        [ Alcotest.test_case "example 2 everywhere" `Quick test_example2_everywhere;
          Alcotest.test_case "empty constructors" `Quick test_empty_constructors;
          Alcotest.test_case "eval parses the output" `Quick test_eval_is_output;
          Alcotest.test_case "presets" `Quick test_presets;
          Alcotest.test_case "config validation" `Quick test_config_validation ] );
      ( "equivalence",
        [ prop engines_agree;
          prop naive_rewrite_agrees;
          prop merging_ablation_agrees ] );
      ( "profiles",
        [ prop profiles_reconcile;
          Alcotest.test_case "operator breakdown" `Quick test_profile_operators ] );
      ( "budgets and errors",
        [ Alcotest.test_case "censoring" `Quick test_budget_censoring;
          Alcotest.test_case "Figure-7 censoring stops at the cap" `Quick
            test_fig7_cap_is_exact;
          Alcotest.test_case "type errors" `Quick test_type_errors_reported;
          Alcotest.test_case "pool exhaustion censors" `Quick test_pool_exhausted_censors;
          Alcotest.test_case "sanitized engine under faults" `Quick
            test_sanitized_engine_under_faults;
          Alcotest.test_case "static checks" `Quick test_check_rejects_bad_queries;
          Alcotest.test_case "prepared queries" `Quick test_prepared_queries ] );
      ( "compile-once",
        [ Alcotest.test_case "prepared-plan cache" `Quick test_prepared_cache_counters;
          Alcotest.test_case "templates scale with sites" `Quick
            test_templates_scale_with_sites ] );
      ( "introspection",
        [ Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "explain stages and analyze" `Quick
            test_explain_stages_and_analyze;
          Alcotest.test_case "explain names the join key" `Quick test_explain_keyed_nl_join;
          Alcotest.test_case "accessors" `Quick test_document_accessors ] );
      ( "databases",
        [ Alcotest.test_case "multiple documents" `Quick test_database_basics;
          Alcotest.test_case "persistence" `Quick test_database_persistence;
          Alcotest.test_case "file-backed, larger than its pool" `Quick
            test_file_backed_small_pool ] );
      ( "prepared cache",
        [ Alcotest.test_case "epoch invalidation" `Quick test_prepared_cache_invalidation;
          Alcotest.test_case "LRU mechanics" `Quick test_plan_cache_lru;
          Alcotest.test_case "bounded per engine" `Quick test_prepared_cache_bounded;
          Alcotest.test_case "session views" `Quick test_session_views ] ) ]
