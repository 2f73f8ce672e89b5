(* Tests for the course testbed: the public correctness suite across all
   engines and documents, the efficiency harness with its censoring
   rule, and the Example 6 plan laboratory. *)

module T = Xqdb_testbed
module Config = Xqdb_core.Engine_config
module Engine = Xqdb_core.Engine
module Grading = T.Grading
module Wire = Xqdb_server.Wire

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

(* A written file parses back to the value written — the benchmark's
   result files go through this pair. *)
let test_report_file_io () =
  let value =
    R.Obj [("workload", R.Str "serve-hot"); ("runs", R.Arr [R.Float 2.5; R.Int 3])]
  in
  let file = Filename.temp_file "xqdb_report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      R.write_file file value;
      match R.parse_file file with
      | Ok v -> Alcotest.check json "re-reads" value v
      | Error msg -> Alcotest.failf "written file does not parse: %s" msg)

(* --- structural indexes: the page-I/O payoff ------------------------------------ *)

(* On deep Treebank data behind a pool smaller than the document, the
   staircase/twig plans answer every deep query with strictly less page
   I/O than the same engine with the structural index family off, and
   with the same output. *)
let test_structural_gain () =
  let forest = [Xqdb_workload.Treebank_gen.generate (Xqdb_workload.Treebank_gen.scaled 25)] in
  let measure config query =
    let engine =
      Engine.load_forest ~config:{ config with Config.pool_capacity = 16 } forest
    in
    let r = Engine.run engine query in
    Alcotest.(check bool) (config.Config.name ^ " succeeds") true
      (r.Engine.status = Engine.Ok);
    r
  in
  List.iter
    (fun (test, query) ->
      let with_struct = measure Config.m4 query in
      let without = measure Config.m4_nostruct query in
      Alcotest.(check string) (test ^ ": same output") without.Engine.output
        with_struct.Engine.output;
      Alcotest.(check bool)
        (Printf.sprintf "%s: m4 %d < m4-nostruct %d page I/Os" test
           with_struct.Engine.page_ios without.Engine.page_ios)
        true
        (with_struct.Engine.page_ios < without.Engine.page_ios))
    (T.Queries.parsed T.Queries.deep_queries)

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

(* Page budgets under concurrency: a cap that censors some requests but
   not all.  Which ones trip depends on the interleaving (one shared
   pool), so the gate is per response — an Ok answer is the unbudgeted
   oracle's within the cap, a censor stops in (cap, cap + 2] — plus the
   run's own check that Σ response page I/Os equals the disk's delta. *)
let test_traffic_budgets () =
  let report = T.Traffic.run ~max_page_ios:3 ~sessions:2 ~requests:6 ~seed:7 ~scale:60 () in
  let total = report.T.Traffic.total in
  Alcotest.(check (list string)) "every response conforms" [] report.T.Traffic.violations;
  Alcotest.(check bool) "some requests censored" true
    (T.Traffic.count total Wire.Budget_exceeded > 0);
  Alcotest.(check bool) "some requests answered" true (T.Traffic.count total Wire.Ok > 0)

(* Lockdep no-false-positive gate: a full traffic run (sanitized in CI's
   lockdep legs via XQDB_PIN_SANITIZE=1) must not record a single
   latch-order violation, and passes its own verdict. *)
let test_traffic_lockdep () =
  let order_violations = Xqdb_storage.Metrics.counter "latch.order_violations" in
  let violations_before = Xqdb_storage.Metrics.value order_violations in
  let report = T.Traffic.run ~sessions:2 ~requests:6 ~seed:7 ~scale:60 () in
  Alcotest.(check int) "no lock-order violations under traffic" 0
    (Xqdb_storage.Metrics.value order_violations - violations_before);
  Alcotest.(check (list string)) "no violations" [] report.T.Traffic.violations;
  Alcotest.(check int) "all sessions reported" 2 (Array.length report.T.Traffic.per_session)

(* The driver's oracle check has teeth: the same session replayed
   against an oracle with one payload changed diverges on exactly the
   slots that ask that query. *)
let test_tampered_oracle () =
  let db = T.Traffic.load ~scale:60 () in
  let oracle = T.Traffic.record_oracle db in
  let sched = T.Traffic.schedule ~abuse:false ~seed:7 ~requests:6 0 in
  let clean = T.Traffic.play_session ~oracle db sched in
  Alcotest.(check (list string)) "true oracle: no violations" []
    (T.Traffic.violations ~label:"session" clean);
  let first = match sched.(0) with T.Traffic.Normal i -> i | _ -> assert false in
  let text = snd (List.nth (T.Traffic.mix ()) first) in
  let tampered = Hashtbl.copy oracle in
  let status, payload = Hashtbl.find oracle text in
  Hashtbl.replace tampered text (status, payload ^ "<tampered/>");
  let o = T.Traffic.play_session ~oracle:tampered db sched in
  let asks = Array.fold_left (fun n s -> if s = sched.(0) then n + 1 else n) 0 sched in
  Alcotest.(check int) "every slot asking the query diverges" asks o.T.Traffic.mismatches;
  Alcotest.(check (list string)) "one mismatch violation"
    [Printf.sprintf "session: %d response(s) diverged from the oracle" asks]
    (T.Traffic.violations ~label:"session" o)

(* Abusive slots get their typed answers: a stale version byte and a
   hostile frame one Bad_request each, a dead deadline a Timeout (the
   oracle check counts any other answer as a mismatch); the status
   counts partition the requests. *)
let test_abusive_slots () =
  let db = T.Traffic.load ~scale:60 () in
  let oracle = T.Traffic.record_oracle db in
  let seen = Array.make 3 0 in
  for seed = 1 to 5 do
    let sched = T.Traffic.schedule ~abuse:true ~seed ~requests:20 0 in
    let o = T.Traffic.play_session ~oracle db sched in
    let slots p = Array.fold_left (fun n s -> if p s then n + 1 else n) 0 sched in
    let stale = slots (function T.Traffic.Stale_version _ -> true | _ -> false) in
    let hostile = slots (function T.Traffic.Hostile _ -> true | _ -> false) in
    let expired = slots (function T.Traffic.Expired _ -> true | _ -> false) in
    seen.(0) <- seen.(0) + stale;
    seen.(1) <- seen.(1) + hostile;
    seen.(2) <- seen.(2) + expired;
    let label = Printf.sprintf "seed %d" seed in
    Alcotest.(check (list string)) (label ^ ": no violations") []
      (T.Traffic.violations ~label o);
    Alcotest.(check int) (label ^ ": stale and hostile frames get Bad_request")
      (stale + hostile) (T.Traffic.count o Wire.Bad_request);
    Alcotest.(check int) (label ^ ": dead deadlines get Timeout") expired
      (T.Traffic.count o Wire.Timeout);
    Alcotest.(check int) (label ^ ": counts partition the requests") 20
      (Array.fold_left ( + ) o.T.Traffic.untyped o.T.Traffic.counts)
  done;
  Alcotest.(check bool) "every abusive slot kind drawn" true (Array.for_all (fun n -> n > 0) seen)

(* A small chaos run end to end: both profiles must come back with no
   violations. *)
let test_chaos_report () =
  let report = T.Chaos.run ~sessions:1 ~requests:12 ~seed:11 ~scale:60 () in
  (match report.T.Chaos.violations with
   | [] -> ()
   | vs -> Alcotest.failf "transient chaos run violated: %s" (String.concat "; " vs));
  Alcotest.(check bool) "transient faults fired" true (report.T.Chaos.faults_injected > 0);
  Alcotest.(check bool) "retries ran" true (report.T.Chaos.retry_attempts > 0);
  Alcotest.(check bool) "wal retries ran" true (report.T.Chaos.wal_retry_attempts > 0);
  let hard = T.Chaos.run ~profile:T.Chaos.Hard ~sessions:1 ~requests:12 ~seed:11 ~scale:60 () in
  (match hard.T.Chaos.violations with
   | [] -> ()
   | vs -> Alcotest.failf "hard chaos run violated: %s" (String.concat "; " vs));
  Alcotest.(check bool) "hard faults surfaced typed" true
    (T.Traffic.count hard.T.Chaos.chaos Wire.Io_error > 0)

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
      ( "structural gain",
        [Alcotest.test_case "m4 beats m4-nostruct on deep Treebank" `Slow test_structural_gain] );
      ( "differential",
        [ Alcotest.test_case "clean oracle run" `Quick test_differential_clean;
          Alcotest.test_case "seeded generation" `Quick test_differential_deterministic;
          Alcotest.test_case "fault sweep" `Quick test_differential_fault_sweep ] );
      ( "reports",
        [ Alcotest.test_case "json roundtrip" `Quick test_report_roundtrip;
          Alcotest.test_case "parser is strict" `Quick test_report_parser_strict;
          Alcotest.test_case "member" `Quick test_report_member;
          Alcotest.test_case "file io" `Quick test_report_file_io ] );
      ( "traffic",
        [ Alcotest.test_case "lockdep-clean run passes" `Slow test_traffic_lockdep;
          Alcotest.test_case "page budgets under concurrency" `Quick test_traffic_budgets;
          Alcotest.test_case "tampered oracle is a mismatch" `Quick test_tampered_oracle;
          Alcotest.test_case "abusive slots get typed answers" `Quick test_abusive_slots ] );
      ( "chaos",
        [ Alcotest.test_case "both profiles pass and gate" `Slow test_chaos_report ] );
      ( "crash sweep",
        [ Alcotest.test_case "first, middle and last event recover" `Quick
            test_crash_sweep ] );
      ( "grading (Section 3)",
        [ Alcotest.test_case "course grades" `Slow test_grading;
          Alcotest.test_case "submission report" `Slow test_submission_report ] ) ]
