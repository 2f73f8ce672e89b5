(* Tests for the course testbed: the public correctness suite across all
   engines and documents, the efficiency harness with its censoring
   rule, and the Example 6 plan laboratory. *)

module T = Xqdb_testbed
module Config = Xqdb_core.Engine_config
module Grading = T.Grading

let test_queries_parse () =
  List.iter
    (fun (name, src) ->
      match Xqdb_xq.Xq_parser.parse_result src with
      | Ok q ->
        (match Xqdb_xq.Xq_check.check q with
         | Ok () -> ()
         | Error e -> Alcotest.failf "%s: %s" name (Xqdb_xq.Xq_check.error_to_string e))
      | Error msg -> Alcotest.failf "%s does not parse: %s" name msg)
    (T.Queries.public_queries @ T.Queries.efficiency_queries
     @ [("example6", T.Queries.example6)]);
  Alcotest.(check int) "sixteen public queries" 16 (List.length T.Queries.public_queries);
  Alcotest.(check int) "five efficiency queries" 5 (List.length T.Queries.efficiency_queries)

(* The paper's correctness testing: every engine, every document, every
   public query, diffed against milestone 1. *)
let test_correctness_suite () =
  let outcomes = T.Correctness.run () in
  let expected =
    List.length (T.Correctness.documents ())
    * List.length T.Queries.public_queries
    * List.length Config.all_presets
  in
  Alcotest.(check int) "all combinations ran" expected (List.length outcomes);
  match T.Correctness.failures outcomes with
  | [] -> ()
  | failures ->
    Alcotest.failf "%d failures, first: %s" (List.length failures)
      (T.Correctness.summary outcomes)

(* A smaller efficiency run exercises the harness and the censoring rule
   (full-scale Figure 7 lives in the benchmarks). *)
let test_efficiency_harness () =
  let table =
    T.Efficiency.run
      ~configs:[Config.engine1; Config.engine5]
      ~scale:250 ~budget:40_000
      ~budgets:[("test3-semijoin", 150); ("test5-unrelated", 150)]
      ~seconds_cap:30.0 ()
  in
  Alcotest.(check int) "2 engines x 5 tests" 10 (List.length table.T.Efficiency.cells);
  (* Censored cells are assigned exactly the budget. *)
  List.iter
    (fun c ->
      if c.T.Efficiency.censored then begin
        let cap =
          match c.T.Efficiency.test with
          | "test3-semijoin" | "test5-unrelated" -> 150
          | _ -> 40_000
        in
        Alcotest.(check int) "censored cell carries the budget" cap c.T.Efficiency.page_ios
      end)
    table.T.Efficiency.cells;
  (* The milestone-3 engine is censored somewhere under these budgets. *)
  Alcotest.(check bool) "engine-5 censored somewhere" true
    (List.exists
       (fun c -> String.equal c.T.Efficiency.engine "engine-5" && c.T.Efficiency.censored)
       table.T.Efficiency.cells);
  (* Totals rank engine-1 ahead of engine-5, as in Figure 7. *)
  Alcotest.(check bool) "engine-1 beats engine-5" true
    (T.Efficiency.total table "engine-1" < T.Efficiency.total table "engine-5");
  (* The rendering mentions every engine. *)
  let rendered = T.Efficiency.render table in
  Alcotest.(check bool) "rendering lists engines" true
    (let contains s sub =
       let n = String.length sub and h = String.length s in
       let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains rendered "engine-1" && contains rendered "engine-5")

(* The Figure-7 harness is deterministic: generators are seeded and the
   budget currency is page I/O, so two runs agree cell by cell. *)
let test_efficiency_deterministic () =
  let run () =
    T.Efficiency.run ~configs:[Config.engine2] ~scale:200 ~budget:20_000
      ~budgets:[] ~seconds_cap:30.0 ()
  in
  let a = run () in
  let b = run () in
  let key c =
    (c.T.Efficiency.engine, c.T.Efficiency.test, c.T.Efficiency.page_ios,
     c.T.Efficiency.censored)
  in
  (* Wall-clock seconds vary; the I/O accounting must not. *)
  Alcotest.(check bool) "two runs give identical I/O tables" true
    (List.map key a.T.Efficiency.cells = List.map key b.T.Efficiency.cells)

(* Example 6: QP2 <= QP1 <= QP0 in measured page I/Os, same answers. *)
let test_plan_lab () =
  match T.Plan_lab.run ~scale:200 () with
  | [qp0; qp1; qp2] ->
    Alcotest.(check bool) "same cardinality" true
      (qp0.T.Plan_lab.rows = qp1.T.Plan_lab.rows && qp1.T.Plan_lab.rows = qp2.T.Plan_lab.rows);
    Alcotest.(check bool) "QP2 <= QP1" true (qp2.T.Plan_lab.page_ios <= qp1.T.Plan_lab.page_ios);
    Alcotest.(check bool) "QP1 <= QP0" true (qp1.T.Plan_lab.page_ios <= qp0.T.Plan_lab.page_ios);
    Alcotest.(check bool) "QP2 strictly beats QP0" true
      (qp2.T.Plan_lab.page_ios < qp0.T.Plan_lab.page_ios)
  | _ -> Alcotest.fail "expected three measurements"

(* --- differential oracle harness ------------------------------------------------ *)

let test_differential_clean () =
  let report = T.Differential.run ~seed:3 ~count:12 () in
  Alcotest.(check int) "all trials agree" 12 (T.Differential.agreed report);
  Alcotest.(check bool) "report passes" true (T.Differential.ok report);
  Alcotest.(check int) "no fault sweep without a rate" 0
    (List.length report.T.Differential.fault_reports);
  let contains s sub =
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "rendering reports the tally" true
    (contains (T.Differential.render report) "12/12")

let test_differential_deterministic () =
  let gen = T.Differential.generate ~seed:5 ~index:7 in
  let again = T.Differential.generate ~seed:5 ~index:7 in
  Alcotest.(check bool) "same (seed, index) gives the same trial" true (gen = again);
  let other = T.Differential.generate ~seed:5 ~index:8 in
  Alcotest.(check bool) "different index gives a different trial" true (gen <> other)

let test_differential_fault_sweep () =
  let report = T.Differential.run ~seed:11 ~count:6 ~fault_rate:0.08 ~fault_seeds:2 () in
  Alcotest.(check int) "one fault report per (trial, seed)" 12
    (List.length report.T.Differential.fault_reports);
  Alcotest.(check bool) "faults actually fired" true (T.Differential.injected_total report > 0);
  Alcotest.(check int) "no crashes" 0 (T.Differential.crash_count report);
  Alcotest.(check int) "fault-free reruns reproduce the oracle" 0
    (T.Differential.rerun_failures report);
  Alcotest.(check bool) "report passes" true (T.Differential.ok report)

(* --- machine-readable reports --------------------------------------------------- *)

module R = T.Report

let json = Alcotest.testable (fun ppf j -> Fmt.string ppf (R.to_string j)) ( = )

let test_report_roundtrip () =
  let samples =
    [ R.Null; R.Bool true; R.Int 0; R.Int (-42); R.Float 1.5; R.Str "";
      R.Str "a \"quoted\" back\\slash\nnewline \t tab \x01 control";
      R.Arr []; R.Obj [];
      R.Obj
        [ ("xs", R.Arr [R.Int 1; R.Float (-0.25); R.Str "α β"]);
          ("nested", R.Obj [("deep", R.Arr [R.Obj [("k", R.Null)]])]) ] ]
  in
  List.iter
    (fun v ->
      match R.parse (R.to_string v) with
      | Ok v' -> Alcotest.check json (R.to_string v) v v'
      | Error msg -> Alcotest.failf "%s does not re-parse: %s" (R.to_string v) msg)
    samples

let test_report_parser_strict () =
  List.iter
    (fun src ->
      match R.parse src with
      | Ok _ -> Alcotest.failf "%S should not parse" src
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "{\"a\" 1}"; "tru"; "1 2"; "{} garbage";
      "\"unterminated"; "\"bad \\x escape\""; "[1, 2" ]

let test_report_member () =
  let obj = R.Obj [("a", R.Int 1); ("b", R.Str "x")] in
  Alcotest.(check bool) "present" true (R.member "a" obj = Some (R.Int 1));
  Alcotest.(check bool) "absent" true (R.member "c" obj = None);
  Alcotest.(check bool) "not an object" true (R.member "a" (R.Arr []) = None)

(* End to end: a small efficiency table serializes, re-parses, and passes
   the CI validator; corrupting the reconciliation invariant fails it. *)
let test_report_validates () =
  let table =
    T.Efficiency.run ~configs:[Config.engine1] ~scale:150 ~budget:40_000
      ~budgets:[] ~seconds_cap:30.0 ()
  in
  let report = R.fig7_json table in
  (match R.parse (R.to_string report) with
   | Ok reparsed -> Alcotest.check json "survives the wire" report reparsed
   | Error msg -> Alcotest.failf "report does not re-parse: %s" msg);
  (match R.validate_bench report with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "fresh report invalid: %s" msg);
  (* Break reads + writes = operator_ios + other_ios in the first profile. *)
  let rec corrupt = function
    | R.Obj fields ->
      R.Obj
        (List.map
           (function
             | ("other_ios", R.Int n) -> ("other_ios", R.Int (n + 1))
             | (k, v) -> (k, corrupt v))
           fields)
    | R.Arr xs -> R.Arr (List.map corrupt xs)
    | v -> v
  in
  (match R.validate_bench (corrupt report) with
   | Ok () -> Alcotest.fail "corrupted report still validates"
   | Error _ -> ());
  (match R.validate_bench (R.Obj [("schema_version", R.Int 999)]) with
   | Ok () -> Alcotest.fail "wrong schema_version accepted"
   | Error _ -> ());
  (* Only the current schema validates: the previous version is refused
     even when the rest of the report is well-formed. *)
  let v7 =
    match report with
    | R.Obj fields ->
      R.Obj
        (List.map
           (function
             | ("schema_version", _) -> ("schema_version", R.Int 7)
             | kv -> kv)
           fields)
    | v -> v
  in
  match R.validate_bench v7 with
  | Ok () -> Alcotest.fail "schema_version 7 accepted"
  | Error _ -> ()

(* Each report kind's gate, on a synthetic report that passes it and one
   mutation that must fail it. *)
let synthetic_result ?(extra = []) ~engine ~test ~page_ios ~templates () =
  R.Obj
    ([ ("engine", R.Str engine); ("test", R.Str test) ]
    @ extra
    @ [ ("page_ios", R.Int page_ios);
        ("seconds", R.Float 0.01);
        ("censored", R.Bool false);
        ( "profile",
          R.Obj
            [ ("reads", R.Int page_ios);
              ("writes", R.Int 0);
              ("allocs", R.Int 0);
              ("counters", R.Obj [("planner.templates_built", R.Int templates)]);
              ("operator_ios", R.Int 0);
              ("other_ios", R.Int page_ios);
              ("operators", R.Arr []) ] ) ])

let check_gate name ~pass ~fail =
  (match R.validate_bench pass with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "%s: passing report rejected: %s" name msg);
  match R.validate_bench fail with
  | Ok () -> Alcotest.failf "%s: failing mutation accepted" name
  | Error _ -> ()

let test_report_kind_gates () =
  let templates built =
    R.bench_json ~kind:"templates" []
      ~results:
        (List.map2
           (fun scale templates ->
             synthetic_result
               ~extra:[("scale", R.Int scale)]
               ~engine:"m4" ~test:"nested-constructor" ~page_ios:scale ~templates ())
           [60; 180] built)
  in
  check_gate "templates" ~pass:(templates [2; 2]) ~fail:(templates [2; 3]);
  let structural m4_ios =
    R.bench_json ~kind:"structural" []
      ~results:
        [ synthetic_result ~engine:"m4" ~test:"deep-pair" ~page_ios:m4_ios ~templates:1 ();
          synthetic_result ~engine:"m4-nostruct" ~test:"deep-pair" ~page_ios:20 ~templates:1 ();
          synthetic_result ~engine:"m4" ~test:"shallow-pair" ~page_ios:30 ~templates:1 ();
          synthetic_result ~engine:"m4-nostruct" ~test:"shallow-pair" ~page_ios:5 ~templates:1 ()
        ]
  in
  check_gate "structural" ~pass:(structural 10) ~fail:(structural 20);
  let fig7 batch_seconds =
    R.bench_json ~kind:"fig7"
      [ ("budget", R.Int 60_000);
        ( "batch",
          R.Obj
            [ ("batch_size", R.Int 256);
              ("batch_seconds", R.Float batch_seconds);
              ("tuple_seconds", R.Float 2.0);
              ("batch_ranking", R.Arr [R.Str "engine-1"; R.Str "engine-2"]);
              ("tuple_ranking", R.Arr [R.Str "engine-1"; R.Str "engine-2"]) ] ) ]
      ~results:[synthetic_result ~engine:"engine-1" ~test:"test1" ~page_ios:7 ~templates:1 ()]
  in
  check_gate "fig7 batch" ~pass:(fig7 1.0) ~fail:(fig7 3.0)

(* The lint report check-lint validates: what the lint driver renders
   passes; malformed or foreign reports do not. *)
let test_lint_report_validation () =
  let module L = Xqdb_lint in
  let validate text =
    match R.parse text with
    | Error _ -> false
    | Ok json ->
      Result.is_ok (R.validate_lint ~schema_version:L.Driver.schema_version json)
  in
  let f =
    L.Finding.v ~rule:"L7" ~file:"lib/storage/seeded.ml" ~line:3 ~col:4
      "top-level ref `shared`"
  in
  Alcotest.(check bool) "rendered report validates" true
    (validate (L.Driver.render_json [ f ]));
  Alcotest.(check bool) "empty report validates" true (validate (L.Driver.render_json []));
  Alcotest.(check bool) "garbage rejected" false (validate "not json");
  Alcotest.(check bool) "truncated rejected" false (validate {|{"schema_version": 2,|});
  Alcotest.(check bool) "future schema rejected" false
    (validate {|{"schema_version": 99, "tool": "xqdb-lint", "count": 0, "findings": []}|});
  Alcotest.(check bool) "v1 rejected" false
    (validate {|{"schema_version": 1, "tool": "xqdb-lint", "count": 0, "findings": []}|});
  Alcotest.(check bool) "wrong tool rejected" false
    (validate {|{"schema_version": 2, "tool": "other", "count": 0, "findings": []}|});
  Alcotest.(check bool) "count mismatch rejected" false
    (validate {|{"schema_version": 2, "tool": "xqdb-lint", "count": 2, "findings": []}|});
  Alcotest.(check bool) "incomplete finding rejected" false
    (validate
       {|{"schema_version": 2, "tool": "xqdb-lint", "count": 1,
          "findings": [{"rule":"L7","file":"x.ml","line":3}]}|})

let test_report_file_io () =
  let file = Filename.temp_file "xqdb_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let table =
        T.Efficiency.run ~configs:[Config.engine2] ~scale:120 ~budget:40_000
          ~budgets:[] ~seconds_cap:30.0 ()
      in
      R.write_file file (R.fig7_json table);
      match R.validate_file file with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "written file invalid: %s" msg)

(* --- crash-point sweep ---------------------------------------------------------- *)

(* points = 3 always samples the first, a middle and the last durability
   event (select_points pins both endpoints), so this one sweep covers
   "crash at first / middle / last write" end to end. *)
let test_crash_sweep () =
  let report = T.Differential.crash_sweep ~seed:5 ~count:1 ~points:3 () in
  Alcotest.(check int) "three crash points checked" 3
    (T.Differential.crash_points_checked report);
  Alcotest.(check int) "every point recovers" 0 (T.Differential.crash_failures report);
  Alcotest.(check bool) "sweep passes" true (T.Differential.crash_ok report);
  (match report.T.Differential.crash_trials with
   | [trial] ->
     Alcotest.(check bool) "events observed" true (trial.T.Differential.events_total > 0);
     (match trial.T.Differential.points with
      | [first; middle; last] ->
        Alcotest.(check int) "first event covered" 1 first.T.Differential.point;
        Alcotest.(check bool) "middle point is interior" true
          (middle.T.Differential.point > 1
           && middle.T.Differential.point < trial.T.Differential.events_total);
        Alcotest.(check int) "last event covered" trial.T.Differential.events_total
          last.T.Differential.point;
        Alcotest.(check bool) "alternate points crash mid-write" true
          middle.T.Differential.torn;
        List.iter
          (fun (p : T.Differential.crash_point_report) ->
            Alcotest.(check bool) "workload reached the point" true p.T.Differential.crashed)
          trial.T.Differential.points
      | ps -> Alcotest.failf "expected 3 points, got %d" (List.length ps))
   | ts -> Alcotest.failf "expected 1 trial, got %d" (List.length ts));
  (* The sweep is deterministic for a fixed seed, so failures replay. *)
  let again = T.Differential.crash_sweep ~seed:5 ~count:1 ~points:3 () in
  Alcotest.(check bool) "deterministic" true (report = again)

let test_crash_report_json () =
  let report = T.Differential.crash_sweep ~seed:9 ~count:1 ~points:2 () in
  let j = R.crash_json report in
  (match R.parse (R.to_string j) with
   | Ok reparsed -> Alcotest.check json "survives the wire" j reparsed
   | Error msg -> Alcotest.failf "crash report does not re-parse: %s" msg);
  (match R.validate_bench j with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "crash report invalid: %s" msg);
  (* A crash point past the observed events is a malformed report. *)
  let rec corrupt = function
    | R.Obj fields ->
      R.Obj
        (List.map
           (function
             | ("point", R.Int _) -> ("point", R.Int 1_000_000)
             | (k, v) -> (k, corrupt v))
           fields)
    | R.Arr xs -> R.Arr (List.map corrupt xs)
    | v -> v
  in
  (match R.validate_bench (corrupt j) with
   | Ok () -> Alcotest.fail "out-of-range crash point accepted"
   | Error _ -> ())

(* A small closed-loop traffic run: serializes, re-parses, validates —
   and a report with a faked mismatch or disordered percentiles must be
   rejected (the validator is the acceptance gate CI applies). *)
let test_traffic_report () =
  (* Lockdep no-false-positive gate: a full traffic run (sanitized in
     CI's lockdep legs via XQDB_PIN_SANITIZE=1) must not record a single
     latch-order violation. *)
  let order_violations = Xqdb_storage.Metrics.counter "latch.order_violations" in
  let violations_before = Xqdb_storage.Metrics.value order_violations in
  let report = T.Traffic.run ~sessions:2 ~requests:6 ~seed:7 ~scale:60 () in
  Alcotest.(check int) "no lock-order violations under traffic" 0
    (Xqdb_storage.Metrics.value order_violations - violations_before);
  Alcotest.(check int) "no oracle mismatches" 0 report.T.Traffic.total_mismatches;
  Alcotest.(check int) "all sessions reported" 2
    (List.length report.T.Traffic.per_session);
  List.iter
    (fun (s : T.Traffic.session_report) ->
      Alcotest.(check int) "outcomes partition the requests" s.T.Traffic.requests
        (s.T.Traffic.ok + s.T.Traffic.budget_exceeded + s.T.Traffic.errors
        + s.T.Traffic.io_errors + s.T.Traffic.bad_requests))
    report.T.Traffic.per_session;
  let j = R.traffic_json report in
  (match R.parse (R.to_string j) with
   | Ok reparsed -> Alcotest.check json "survives the wire" j reparsed
   | Error msg -> Alcotest.failf "traffic report does not re-parse: %s" msg);
  (match R.validate_bench j with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "traffic report invalid: %s" msg);
  let rec rewrite f = function
    | R.Obj fields -> R.Obj (List.map (fun (k, v) -> (k, f k (rewrite f v))) fields)
    | R.Arr xs -> R.Arr (List.map (rewrite f) xs)
    | v -> v
  in
  let mismatched =
    rewrite (fun k v -> if String.equal k "mismatches" then R.Int 1 else v) j
  in
  (match R.validate_bench mismatched with
   | Ok () -> Alcotest.fail "oracle mismatches accepted"
   | Error _ -> ());
  let disordered =
    rewrite (fun k v -> if String.equal k "p50_ms" then R.Float 1e9 else v) j
  in
  (match R.validate_bench disordered with
   | Ok () -> Alcotest.fail "disordered percentiles accepted"
   | Error _ -> ())

(* A small chaos run end to end: both profiles must come back with no
   violations, and the report must serialize, re-parse and validate —
   with the validator rejecting faked untyped escapes. *)
let test_chaos_report () =
  let report = T.Chaos.run ~sessions:1 ~requests:12 ~seed:11 ~scale:60 () in
  (match report.T.Chaos.violations with
   | [] -> ()
   | vs -> Alcotest.failf "transient chaos run violated: %s" (String.concat "; " vs));
  Alcotest.(check bool) "transient faults fired" true (report.T.Chaos.faults_injected > 0);
  Alcotest.(check bool) "retries ran" true (report.T.Chaos.retry_attempts > 0);
  Alcotest.(check bool) "wal retries ran" true (report.T.Chaos.wal_retry_attempts > 0);
  let j = R.chaos_json report in
  (match R.parse (R.to_string j) with
   | Ok reparsed -> Alcotest.check json "survives the wire" j reparsed
   | Error msg -> Alcotest.failf "chaos report does not re-parse: %s" msg);
  (match R.validate_bench j with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "chaos report invalid: %s" msg);
  let rec rewrite f = function
    | R.Obj fields -> R.Obj (List.map (fun (k, v) -> (k, f k (rewrite f v))) fields)
    | R.Arr xs -> R.Arr (List.map (rewrite f) xs)
    | v -> v
  in
  let escaped =
    rewrite (fun k v -> if String.equal k "untyped" then R.Int 1 else v) j
  in
  (match R.validate_bench escaped with
   | Ok () -> Alcotest.fail "untyped escapes accepted"
   | Error _ -> ());
  let hard = T.Chaos.run ~profile:T.Chaos.Hard ~sessions:1 ~requests:12 ~seed:11 ~scale:60 () in
  (match hard.T.Chaos.violations with
   | [] -> ()
   | vs -> Alcotest.failf "hard chaos run violated: %s" (String.concat "; " vs));
  Alcotest.(check bool) "hard faults surfaced typed" true (hard.T.Chaos.chaos.T.Chaos.io_errors > 0)

(* --- grading system (Section 3) ------------------------------------------------ *)

let test_grading () =
  (* A small course: three teams with working engines of different
     quality, one team whose "engine" is so misconfigured it fails the
     public tests (we fake that by grading it as never submitting a
     runnable engine through an always-late record and a failing exam). *)
  let submissions =
    [ Grading.submission ~exam_points:90 "ada" Config.engine1;
      Grading.submission ~exam_points:80 ~weeks_late:[| 0; 0; 1; 0 |] "bob" Config.engine3;
      Grading.submission ~exam_points:45 "cyn" Config.engine5 ]
  in
  let grades =
    Grading.grade_course ~scale:150
      ~budget:200_000 submissions
  in
  Alcotest.(check int) "all graded" 3 (List.length grades);
  (* Everyone's engine is runnable (they share the correct code base). *)
  List.iter (fun g -> Alcotest.(check bool) "admitted" true g.Grading.admitted) grades;
  (* Milestone points: early bird everywhere = 8; one week late on one
     milestone = 2+2+2-1 = 5. *)
  let find team = List.find (fun g -> String.equal g.Grading.team team) grades in
  Alcotest.(check int) "early-bird points" 8 (find "ada").Grading.milestone_points;
  Alcotest.(check int) "late penalty" 5 (find "bob").Grading.milestone_points;
  (* cyn fails the exam (< 50 points). *)
  Alcotest.(check bool) "cyn fails" false (find "cyn").Grading.passed;
  Alcotest.(check bool) "ada passes" true (find "ada").Grading.passed;
  (* The leaderboard is sorted by total, best first. *)
  let totals = List.map (fun g -> g.Grading.total) grades in
  Alcotest.(check bool) "sorted" true (totals = List.sort (fun a b -> compare b a) totals);
  (* The rendering mentions all teams. *)
  let rendered = Grading.render grades in
  let contains s sub =
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun team -> Alcotest.(check bool) (team ^ " on leaderboard") true (contains rendered team))
    ["ada"; "bob"; "cyn"]

let test_submission_report () =
  (* engine-5 runs with the small efficiency pool, so its report shows
     real page I/O. *)
  let sub = Grading.submission "solo" Config.engine5 in
  let report = Grading.test_submission ~scale:150 ~budget:200_000 sub in
  Alcotest.(check (list (triple string string string))) "no failures" []
    report.Grading.correctness_failures;
  Alcotest.(check bool) "efficiency measured" true (report.Grading.efficiency_total > 0);
  let contains s sub' =
    let n = String.length sub' and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub' || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report is the notification e-mail" true
    (contains report.Grading.body "All public correctness tests passed")

let () =
  Alcotest.run "testbed"
    [ ("queries", [Alcotest.test_case "parse and check" `Quick test_queries_parse]);
      ("correctness", [Alcotest.test_case "all engines, all documents" `Slow test_correctness_suite]);
      ( "efficiency",
        [ Alcotest.test_case "harness and censoring" `Slow test_efficiency_harness;
          Alcotest.test_case "determinism" `Slow test_efficiency_deterministic ] );
      ("plan lab", [Alcotest.test_case "QP2 < QP1 < QP0" `Slow test_plan_lab]);
      ( "differential",
        [ Alcotest.test_case "clean oracle run" `Quick test_differential_clean;
          Alcotest.test_case "seeded generation" `Quick test_differential_deterministic;
          Alcotest.test_case "fault sweep" `Quick test_differential_fault_sweep ] );
      ( "reports",
        [ Alcotest.test_case "json roundtrip" `Quick test_report_roundtrip;
          Alcotest.test_case "parser is strict" `Quick test_report_parser_strict;
          Alcotest.test_case "member" `Quick test_report_member;
          Alcotest.test_case "validator" `Slow test_report_validates;
          Alcotest.test_case "file io" `Slow test_report_file_io;
          Alcotest.test_case "kind gates" `Quick test_report_kind_gates;
          Alcotest.test_case "lint report validation" `Quick test_lint_report_validation ] );
      ( "traffic",
        [ Alcotest.test_case "report round trip and gates" `Slow test_traffic_report ] );
      ( "chaos",
        [ Alcotest.test_case "both profiles pass and gate" `Slow test_chaos_report ] );
      ( "crash sweep",
        [ Alcotest.test_case "first, middle and last event recover" `Quick
            test_crash_sweep;
          Alcotest.test_case "json report" `Quick test_crash_report_json ] );
      ( "grading (Section 3)",
        [ Alcotest.test_case "course grades" `Slow test_grading;
          Alcotest.test_case "submission report" `Slow test_submission_report ] ) ]
