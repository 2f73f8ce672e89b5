(* The course's submission & test system, batch mode.

   [run] (the default) replays the public correctness tests for every
   engine preset on every testbed document, then the efficiency tests
   for the five Figure-7 engines.  [differential] runs the randomized
   cross-milestone oracle harness, optionally under disk-fault
   injection. *)

open Cmdliner
module T = Xqdb_testbed

(* --- run: the original batch testbed ------------------------------------ *)

let correctness_only =
  Arg.(value & flag & info ["correctness-only"] ~doc:"Skip the efficiency tests.")

let efficiency_only =
  Arg.(value & flag & info ["efficiency-only"] ~doc:"Skip the correctness tests.")

let scale =
  Arg.(value & opt int 2500 & info ["scale"] ~docv:"N" ~doc:"DBLP scale for efficiency tests.")

let grade =
  Arg.(value & flag & info ["grade"] ~doc:"Also run the Section-3 grading demo course.")

let run_action correctness_only efficiency_only scale grade =
  let failed = ref false in
  if not efficiency_only then begin
    let outcomes = T.Correctness.run () in
    print_string (T.Correctness.summary outcomes);
    if T.Correctness.failures outcomes <> [] then failed := true
  end;
  if not correctness_only then begin
    let table = T.Efficiency.run ~scale () in
    print_newline ();
    print_string (T.Efficiency.render table);
    print_string (T.Efficiency.shape table)
  end;
  if grade then begin
    let module Config = Xqdb_core.Engine_config in
    let submissions =
      List.mapi
        (fun i config ->
          T.Grading.submission
            ~exam_points:(92 - (10 * i))
            (Printf.sprintf "team-%d" (i + 1))
            config)
        Config.figure7_engines
    in
    print_newline ();
    print_string (T.Grading.render (T.Grading.grade_course ~scale:250 submissions))
  end;
  if !failed then exit 1

let run_term =
  Term.(const run_action $ correctness_only $ efficiency_only $ scale $ grade)

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Public correctness and efficiency tests (the default).")
    run_term

(* --- differential: randomized cross-milestone oracle -------------------- *)

let seed =
  Arg.(value & opt int 42 & info ["seed"] ~docv:"N" ~doc:"Generator seed.")

let count =
  Arg.(value & opt int 100 & info ["count"] ~docv:"N" ~doc:"Number of random trials.")

let fault_rate =
  Arg.(
    value
    & opt float 0.
    & info ["fault-rate"] ~docv:"P"
        ~doc:"Per-operation disk fault probability; 0 disables the fault sweep.")

let fault_seeds =
  Arg.(
    value
    & opt int 1
    & info ["fault-seeds"] ~docv:"N"
        ~doc:"Injector seeds swept per trial when $(b,--fault-rate) is positive.")

let differential_action seed count fault_rate fault_seeds =
  let report = T.Differential.run ~seed ~count ~fault_rate ~fault_seeds () in
  print_string (T.Differential.render report);
  if not (T.Differential.ok report) then exit 1

let differential_cmd =
  Cmd.v
    (Cmd.info "differential"
       ~doc:
         "Randomized differential oracle: every milestone against the \
          milestone-1 reference, optionally under injected disk faults.")
    Term.(const differential_action $ seed $ count $ fault_rate $ fault_seeds)

(* --- crash: crash-point recovery sweep ----------------------------------- *)

let crash_seed =
  Arg.(value & opt int 42 & info ["seed"] ~docv:"N" ~doc:"Workload generator seed.")

let crash_count =
  Arg.(value & opt int 3 & info ["count"] ~docv:"N" ~doc:"Number of workload trials.")

let crash_points =
  Arg.(
    value
    & opt int 10
    & info ["points"] ~docv:"N"
        ~doc:
          "Crash points checked per trial, spread evenly over the workload's \
           observed durability events (always including the first and last).")

let crash_json_file =
  Arg.(
    value
    & opt (some string) None
    & info ["json"] ~docv:"FILE"
        ~doc:"Write the sweep as a machine-readable JSON report to $(docv).")

let crash_action seed count points json_file =
  let report = T.Differential.crash_sweep ~seed ~count ~points () in
  print_string (T.Differential.render_crash report);
  (match json_file with
   | Some file ->
     T.Report.write_file file (T.Report.crash_json report);
     Printf.printf "wrote %s\n" file
   | None -> ());
  if not (T.Differential.crash_ok report) then exit 1

let crash_cmd =
  Cmd.v
    (Cmd.info "crash"
       ~doc:
         "Crash-point recovery sweep: run a checkpointed load/drop workload, \
          simulate a crash at every sampled durability event (page write, WAL \
          append, WAL sync — alternately torn mid-write), recover from the \
          durable state alone, and check catalog, index invariants and \
          cross-milestone query agreement after each recovery.")
    Term.(const crash_action $ crash_seed $ crash_count $ crash_points $ crash_json_file)

(* --- traffic: concurrent multi-session load generator --------------------- *)

let traffic_sessions =
  Arg.(value & opt int 8 & info ["sessions"] ~docv:"N" ~doc:"Concurrent client sessions.")

let traffic_requests =
  Arg.(value & opt int 50 & info ["requests"] ~docv:"N" ~doc:"Requests per session.")

let traffic_seed =
  Arg.(value & opt int 42 & info ["seed"] ~docv:"N" ~doc:"Query-mix schedule seed.")

let traffic_scale =
  Arg.(value & opt int 250 & info ["scale"] ~docv:"N" ~doc:"DBLP scale of the shared document.")

let traffic_mode =
  Arg.(
    value
    & opt (enum [("closed", `Closed); ("open", `Open)]) `Closed
    & info ["mode"] ~docv:"MODE"
        ~doc:
          "$(b,closed): each session fires its next request on completion. \
           $(b,open): requests fire on a fixed schedule (see $(b,--rate)), so \
           latencies include client-visible queueing.")

let traffic_rate =
  Arg.(
    value
    & opt float 20.
    & info ["rate"] ~docv:"R"
        ~doc:"Open-loop request rate per session, in requests per second.")

let traffic_max_page_ios =
  Arg.(
    value
    & opt (some int) None
    & info ["max-page-ios"] ~docv:"N"
        ~doc:
          "Per-request page-I/O cap every session admits under. An uncensored \
           response must stay within it; a censored one must stop within two \
           page I/Os past it.")

let traffic_max_seconds =
  Arg.(
    value
    & opt (some float) None
    & info ["max-seconds"] ~docv:"S"
        ~doc:"Per-request wall-clock cap every session admits under.")

let traffic_json_file =
  Arg.(
    value
    & opt (some string) None
    & info ["json"] ~docv:"FILE"
        ~doc:"Write the run as a machine-readable JSON report to $(docv).")

let traffic_action sessions requests seed scale mode rate max_page_ios max_seconds
    json_file =
  let mode =
    match mode with
    | `Closed -> T.Traffic.Closed
    | `Open -> T.Traffic.Open_rate rate
  in
  let report =
    T.Traffic.run ~mode ?max_page_ios ?max_seconds ~sessions ~requests ~seed ~scale ()
  in
  print_string (T.Traffic.render report);
  (match json_file with
   | Some file ->
     T.Report.write_file file (T.Report.traffic_json report);
     Printf.printf "wrote %s\n" file
   | None -> ());
  if report.T.Traffic.total_mismatches <> 0 then exit 1

let traffic_cmd =
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Concurrent traffic harness: N client sessions (one domain each) replay \
          a seeded query mix through the full wire path over one shared \
          database, report throughput and p50/p95/p99 latency, and compare \
          every response against an unbudgeted single-session oracle. Exits \
          nonzero on any mismatch.")
    Term.(
      const traffic_action $ traffic_sessions $ traffic_requests $ traffic_seed
      $ traffic_scale $ traffic_mode $ traffic_rate $ traffic_max_page_ios
      $ traffic_max_seconds $ traffic_json_file)

(* --- chaos: traffic under seeded fault injection --------------------------- *)

let chaos_sessions =
  Arg.(value & opt int 4 & info ["sessions"] ~docv:"N" ~doc:"Concurrent client sessions per leg.")

let chaos_requests =
  Arg.(value & opt int 50 & info ["requests"] ~docv:"N" ~doc:"Requests per session per leg.")

let chaos_seed =
  Arg.(value & opt int 42 & info ["seed"] ~docv:"N" ~doc:"Schedule and fault-injection seed.")

let chaos_scale =
  Arg.(value & opt int 250 & info ["scale"] ~docv:"N" ~doc:"DBLP scale of the shared document.")

let chaos_profile =
  Arg.(
    value
    & opt (enum [("transient", T.Chaos.Transient); ("hard", T.Chaos.Hard)])
        T.Chaos.Transient
    & info ["profile"] ~docv:"PROFILE"
        ~doc:
          "$(b,transient): every injected fault clears after one failure, so the \
           retry must make the chaos leg's outcomes equal the baseline's. \
           $(b,hard): half the faults persist per page and must surface as typed \
           I/O errors.")

let chaos_max_p99_ratio =
  Arg.(
    value
    & opt float 200.
    & info ["max-p99-ratio"] ~docv:"R"
        ~doc:"Tolerated chaos-leg p99 latency degradation over the baseline.")

let chaos_json_file =
  Arg.(
    value
    & opt (some string) None
    & info ["json"] ~docv:"FILE"
        ~doc:"Write the run as a machine-readable JSON report to $(docv).")

let chaos_action sessions requests seed scale profile max_p99_ratio json_file =
  let report = T.Chaos.run ~profile ~max_p99_ratio ~sessions ~requests ~seed ~scale () in
  print_string (T.Chaos.render report);
  (match json_file with
   | Some file ->
     T.Report.write_file file (T.Report.chaos_json report);
     Printf.printf "wrote %s\n" file
   | None -> ());
  if report.T.Chaos.violations <> [] then exit 1

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos harness: replay the same seeded traffic schedules (well-formed \
          requests, stale-version frames, already-expired deadlines, hostile \
          frames) fault-free and again under seeded disk-fault injection, then \
          hammer the WAL of a scratch file database with injected append/sync \
          faults. \
          Checks that no failure escapes untyped, no Ok payload diverges from \
          the fault-free oracle, transient faults stay invisible to clients, \
          hard faults surface as typed I/O errors, the storage retry actually \
          runs, recovery reopens the scratch file, and p99 degradation stays \
          bounded. Exits nonzero on any violation.")
    Term.(
      const chaos_action $ chaos_sessions $ chaos_requests $ chaos_seed $ chaos_scale
      $ chaos_profile $ chaos_max_p99_ratio $ chaos_json_file)

(* --- explain: golden EXPLAIN rendering ----------------------------------- *)

let explain_config =
  Arg.(
    value
    & opt string "m4"
    & info ["config"] ~docv:"NAME"
        ~doc:"Milestone configuration to explain under: m1, m2, m3 or m4.")

let explain_action name =
  match T.Explain_suite.render name with
  | Ok text -> print_string text
  | Error msg ->
    prerr_endline msg;
    exit 1

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Render the staged compilation pipeline (EXPLAIN) of all 16 public queries \
          over the fixed Figure-2 document — the text the golden tests diff.")
    Term.(const explain_action $ explain_config)

(* --- check-bench: CI's sanity check over harness reports ----------------- *)

let bench_files =
  Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc:"Report file to validate.")

let check_bench_action files =
  let failed = ref false in
  List.iter
    (fun file ->
      match T.Report.validate_file file with
      | Ok () -> Printf.printf "%s: ok\n" file
      | Error msg ->
        Printf.printf "%s: INVALID: %s\n" file msg;
        failed := true)
    files;
  if !failed then exit 1

let check_bench_cmd =
  Cmd.v
    (Cmd.info "check-bench"
       ~doc:
         "Validate the machine-readable reports of the crash, traffic and chaos \
          harnesses: the current schema_version, one of those three kinds, and \
          the kind's result checks and gate — a crash point within the observed \
          events; for traffic and chaos, outcome counts that partition the \
          requests, zero oracle mismatches and ordered latency percentiles; for \
          chaos, zero untyped escapes.")
    Term.(const check_bench_action $ bench_files)

(* --- lint: the storage-safety static analyzer, testbed form ------------- *)

let lint_root =
  Arg.(
    value & opt string "."
    & info ["root"] ~docv:"DIR" ~doc:"Repository root to analyze (default: $(b,.)).")

let lint_format =
  Arg.(
    value
    & opt (enum [("text", `Text); ("json", `Json)]) `Text
    & info ["format"] ~docv:"FMT" ~doc:"Output format: $(b,text) or $(b,json).")

let lint_allow =
  Arg.(
    value
    & opt string Xqdb_lint.Driver.default_allow_file
    & info ["allow"] ~docv:"FILE"
        ~doc:"Checked allowlist, relative to $(b,--root).")

let lint_action root format allow =
  let findings = Xqdb_lint.Driver.run ~allow ~root () in
  (match format with
  | `Text -> print_string (Xqdb_lint.Driver.render_text findings)
  | `Json -> print_string (Xqdb_lint.Driver.render_json findings));
  if findings <> [] then exit 1

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the storage-safety static analyzer (same rule registry as \
          $(b,xqdb-lint)): L1 typed errors, L2 no catch-all handlers, L3 no \
          polymorphic compare on storage data, L4 interfaces everywhere, L5 \
          metric-name hygiene, L6 no server stdout, L7 no unprotected shared \
          mutable state near domains, L8 sanctioned Domain.spawn sites only, \
          L9 no blocking calls under a held latch.")
    Term.(const lint_action $ lint_root $ lint_format $ lint_allow)

(* --- check-lint: CI's sanity check over lint-report.json ------------------ *)

let lint_report_files =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"FILE" ~doc:"Lint JSON report to validate.")

let check_lint_action files =
  let failed = ref false in
  List.iter
    (fun file ->
      match
        Result.bind (T.Report.parse_file file)
          (T.Report.validate_lint ~schema_version:Xqdb_lint.Driver.schema_version)
      with
      | Ok () -> Printf.printf "%s: ok\n" file
      | Error msg ->
        Printf.printf "%s: INVALID: %s\n" file msg;
        failed := true)
    files;
  if !failed then exit 1

let check_lint_cmd =
  Cmd.v
    (Cmd.info "check-lint"
       ~doc:
         "Validate machine-readable lint reports the way $(b,check-bench) \
          validates benchmark reports: well-formed JSON, the current \
          schema_version, tool stamp, count matching the findings array, and \
          complete rule/file/line/col/message on every finding.")
    Term.(const check_lint_action $ lint_report_files)

let () =
  let info =
    Cmd.info "xqdb-testbed" ~doc:"Correctness and efficiency testbed for the XQ engines"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:run_term info
          [ run_cmd; differential_cmd; crash_cmd; traffic_cmd; chaos_cmd;
            explain_cmd; check_bench_cmd; lint_cmd; check_lint_cmd ]))
