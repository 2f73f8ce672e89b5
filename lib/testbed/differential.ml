module Engine = Xqdb_core.Engine
module Engine_config = Xqdb_core.Engine_config
module Database = Xqdb_core.Database
module Disk = Xqdb_storage.Disk
module Buffer_pool = Xqdb_storage.Buffer_pool
module Fault_disk = Xqdb_storage.Fault_disk
module Wal = Xqdb_storage.Wal
module Crash_point = Xqdb_storage.Crash_point
module Xqdb_error = Xqdb_storage.Xqdb_error
module Node_store = Xqdb_xasr.Node_store
module Doc_stats = Xqdb_xasr.Doc_stats
module Path_summary = Xqdb_xasr.Path_summary
module Xq_print = Xqdb_xq.Xq_print
module Xml_print = Xqdb_xml.Xml_print

(* The milestone engines the harness differentiates; milestone 1 is the
   oracle, exactly as it was for the students.  [m4-nostruct] is the
   index-vs-scan axis: the same cost-based engine with the structural
   index family forced off, so any divergence between it and m4 is a
   wrong struct-join/twig answer, not a milestone difference. *)
let milestone_configs =
  [Engine_config.m2; Engine_config.m3; Engine_config.m4; Engine_config.m4_nostruct]

(* Tiny random documents fit in the default pool and would never touch
   the disk, making fault injection vacuous — so differential engines
   run over a deliberately small pool and drop it cold before every
   faulted run. *)
let pool_frames = 8

type trial = {
  index : int;
  query : string;
  ok : bool;
  detail : string;
}

type fault_report = {
  fault_seed : int;
  trial_index : int;
  injected : int;  (** faults the injector fired across the engine runs *)
  crashes : (string * string) list;  (** (config, exception) — must stay [] *)
  io_errors : int;  (** runs censored as [Io_error] *)
  rerun_ok : bool;  (** fault-free rerun reproduced the oracle answer *)
  rerun_detail : string;
}

type report = {
  seed : int;
  count : int;
  fault_rate : float;
  trials : trial list;
  fault_reports : fault_report list;
}

let truncate s =
  if String.length s <= 80 then s else String.sub s 0 77 ^ "..."

let status_name = function
  | Engine.Ok -> "ok"
  | Engine.Budget_exceeded _ -> "budget_exceeded"
  | Engine.Timeout _ -> "timeout"
  | Engine.Error _ -> "error"
  | Engine.Io_error _ -> "io_error"

(* --- deterministic generation ------------------------------------------- *)

(* Each trial owns an RNG keyed on (seed, index), so trial [i] of a run
   is reproducible on its own: the CLI can replay one failing index
   without regenerating the whole sweep. *)
let generate ~seed ~index =
  let rand = Random.State.make [| 0x9e3779b9; seed; index |] in
  let forest = QCheck2.Gen.generate1 ~rand Gen.forest_gen in
  let query = QCheck2.Gen.generate1 ~rand Gen.xq_gen in
  (forest, query)

(* --- clean differential pass -------------------------------------------- *)

(* Compare one engine's result against the milestone-1 oracle.  With no
   faults and no budget, only [Ok] and [Error] (the runtime type error
   the paper allows) are legitimate. *)
let compare_to_oracle name (oracle : Engine.result) (result : Engine.result) =
  match oracle.Engine.status, result.Engine.status with
  | Engine.Ok, Engine.Ok ->
    if String.equal oracle.Engine.output result.Engine.output then None
    else
      Some
        (Printf.sprintf "%s output diverges: oracle %S, got %S" name
           (truncate oracle.Engine.output)
           (truncate result.Engine.output))
  | Engine.Error _, Engine.Error _ -> None
  | o, r ->
    Some
      (Printf.sprintf "%s status diverges: oracle %s, got %s" name
         (status_name o) (status_name r))

let clean_trial ~index engine oracle =
  let query_text = Xq_print.to_string (snd oracle) in
  let oracle_result, query = fst oracle, snd oracle in
  let failure = ref None in
  let record msg = if !failure = None then failure := Some msg in
  (match oracle_result.Engine.status with
  | Engine.Ok | Engine.Error _ -> ()
  | s -> record (Printf.sprintf "oracle status %s without a budget or faults" (status_name s)));
  (* One checked step: run, compare against the oracle, and require the
     engine's self-reported accounting to match what the harness
     observes on the raw disk counters.  Skipped once a failure is on
     record. *)
  let check label e run =
    if !failure = None then begin
      let before = Disk.total_ios (Engine.disk e) in
      match run () with
      | result ->
        (match compare_to_oracle label oracle_result result with
        | Some msg -> record msg
        | None ->
          let observed = Disk.total_ios (Engine.disk e) - before in
          if result.Engine.page_ios <> observed then
            record
              (Printf.sprintf "%s accounting diverges: reported %d page I/Os, disk saw %d"
                 label result.Engine.page_ios observed)
          else if result.Engine.page_ios < 0 then
            record (Printf.sprintf "%s negative page I/O count" label))
      | exception exn ->
        record (Printf.sprintf "%s crashed: %s" label (Printexc.to_string exn))
    end
  in
  (* Engines are derived only while no failure is on record: after a
     crash the run stops at its first failure. *)
  let with_config config k = if !failure = None then k (Engine.with_config config engine) in
  List.iter
    (fun config ->
      let name = config.Engine_config.name in
      with_config config (fun e ->
          check name e (fun () -> Engine.run e query);
          (* Prepared-template axis: the same query compiled once and
             executed repeatedly through parameter rebinding must keep
             reproducing the fresh compilation's answer. *)
          if !failure = None then
            match Engine.compile e query with
            | prepared ->
              List.iter
                (fun tag ->
                  check (Printf.sprintf "%s (%s)" name tag) e (fun () ->
                      Engine.execute e prepared))
                ["prepared run 1"; "prepared run 2"]
            | exception exn ->
              record (Printf.sprintf "%s prepare crashed: %s" name (Printexc.to_string exn)));
      (* Batch-vs-tuple axis: the same engine at batch_size 1 runs the
         identical operator code one row per batch — any divergence is
         a vectorization bug, not a plan difference. *)
      with_config { config with Engine_config.batch_size = 1 } (fun e ->
          check (name ^ " (batch=1)") e (fun () -> Engine.run e query)))
    milestone_configs;
  match !failure with
  | None -> { index; query = query_text; ok = true; detail = "" }
  | Some detail -> { index; query = query_text; ok = false; detail }

(* --- fault sweep --------------------------------------------------------- *)

(* Flush and empty the pool with the injector muted: the drop itself is
   harness bookkeeping, not workload I/O under test. *)
let quiet_drop injector pool =
  Fault_disk.set_active injector false;
  Buffer_pool.drop_all pool;
  Fault_disk.set_active injector true

let fault_trial ~fault_seed ~fault_rate ~trial_index engine oracle query =
  let disk = Engine.disk engine in
  let pool = Engine.pool engine in
  let injector =
    Fault_disk.attach ~policy:(Fault_disk.uniform ~rate:fault_rate) ~seed:fault_seed disk
  in
  let crashes = ref [] in
  let io_errors = ref 0 in
  List.iter
    (fun config ->
      let e = Engine.with_config config engine in
      quiet_drop injector pool;
      match Engine.run e query with
      | result ->
        (match result.Engine.status with
        | Engine.Io_error _ -> incr io_errors
        | Engine.Ok | Engine.Error _ | Engine.Budget_exceeded _ | Engine.Timeout _ -> ())
      | exception exn ->
        crashes :=
          (config.Engine_config.name, Printexc.to_string exn) :: !crashes)
    milestone_configs;
  let injected = (Fault_disk.counts injector).Fault_disk.injected in
  Fault_disk.set_active injector false;
  Buffer_pool.drop_all pool;
  Fault_disk.detach injector;
  (* The disk has recovered: every engine must reproduce the oracle
     answer from the same store, or the faults corrupted it. *)
  let rerun_failure = ref None in
  List.iter
    (fun config ->
      if !rerun_failure = None then begin
        let e = Engine.with_config config engine in
        Buffer_pool.drop_all pool;
        match Engine.run e query with
        | result ->
          (match compare_to_oracle config.Engine_config.name oracle result with
          | Some msg -> rerun_failure := Some ("rerun: " ^ msg)
          | None -> ())
        | exception exn ->
          rerun_failure :=
            Some
              (Printf.sprintf "rerun: %s crashed: %s" config.Engine_config.name
                 (Printexc.to_string exn))
      end)
    milestone_configs;
  { fault_seed;
    trial_index;
    injected;
    crashes = List.rev !crashes;
    io_errors = !io_errors;
    rerun_ok = !rerun_failure = None;
    rerun_detail = (match !rerun_failure with None -> "" | Some d -> d) }

(* --- driver -------------------------------------------------------------- *)

let run ?(seed = 42) ?(count = 100) ?(fault_rate = 0.) ?(fault_seeds = 1) () =
  let config = { Engine_config.m1 with Engine_config.pool_capacity = pool_frames } in
  let trials = ref [] in
  let fault_reports = ref [] in
  for index = 0 to count - 1 do
    let forest, query = generate ~seed ~index in
    (* One load per trial: every configuration, clean and faulted, runs
       over the same shredded store, exactly like the testbed's grading
       runs share a database. *)
    let engine = Engine.load_forest ~config forest in
    let oracle = Engine.run engine query in
    trials := clean_trial ~index engine (oracle, query) :: !trials;
    if fault_rate > 0. then
      for fs = 0 to fault_seeds - 1 do
        let fault_seed = (seed * 1021) + (index * fault_seeds) + fs in
        fault_reports :=
          fault_trial ~fault_seed ~fault_rate ~trial_index:index engine oracle query
          :: !fault_reports
      done
  done;
  { seed;
    count;
    fault_rate;
    trials = List.rev !trials;
    fault_reports = List.rev !fault_reports }

(* --- reporting ----------------------------------------------------------- *)

let agreed report = List.filter (fun t -> t.ok) report.trials |> List.length
let crash_count report =
  List.fold_left (fun n fr -> n + List.length fr.crashes) 0 report.fault_reports
let rerun_failures report =
  List.filter (fun fr -> not fr.rerun_ok) report.fault_reports |> List.length
let injected_total report =
  List.fold_left (fun n fr -> n + fr.injected) 0 report.fault_reports

let ok report =
  agreed report = report.count
  && crash_count report = 0
  && rerun_failures report = 0

let render report =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line
    "differential oracle: %d/%d trials byte-identical across m1 m2 m3 m4 m4-nostruct (seed %d)"
    (agreed report) report.count report.seed;
  List.iter
    (fun t -> if not t.ok then line "  trial %d FAILED: %s [%s]" t.index t.detail (truncate t.query))
    report.trials;
  if report.fault_rate > 0. then begin
    let censored =
      List.fold_left (fun n fr -> n + fr.io_errors) 0 report.fault_reports
    in
    line "fault sweep: %d fault runs at rate %g: %d faults injected, %d runs censored as io_error, %d crashes, %d rerun failures"
      (List.length report.fault_reports)
      report.fault_rate (injected_total report) censored (crash_count report)
      (rerun_failures report);
    List.iter
      (fun fr ->
        List.iter
          (fun (cfg, exn) ->
            line "  fault seed %d trial %d: %s CRASHED: %s" fr.fault_seed
              fr.trial_index cfg (truncate exn))
          fr.crashes;
        if not fr.rerun_ok then
          line "  fault seed %d trial %d: %s" fr.fault_seed fr.trial_index
            (truncate fr.rerun_detail))
      report.fault_reports
  end;
  line "verdict: %s" (if ok report then "PASS" else "FAIL");
  Buffer.contents buf

(* --- crash-point sweep ---------------------------------------------------

   A fixed durability workload — load alpha, checkpoint, load beta,
   checkpoint, drop beta, checkpoint — is first run once under an
   observing {!Crash_point} to count its durability events, then
   replayed with a simulated crash at a spread of those events.  After
   each crash the database is recovered from (disk, durable log) alone
   and must be consistent: only known documents, checkpointed documents
   still present, dropped documents not resurrected, every index
   structurally sound, and every surviving document answering the
   trial's query identically across milestones. *)

type crash_point_report = {
  point : int;  (** the 1-based durability event the crash hit *)
  torn : bool;
  crashed : bool;  (** whether the workload reached the crash point at all *)
  point_ok : bool;
  point_detail : string;
}

type crash_trial = {
  crash_trial_index : int;
  crash_query : string;
  events_total : int;  (** durability events in the crash-free workload *)
  points : crash_point_report list;
}

type crash_report = {
  crash_seed : int;
  crash_trial_count : int;
  points_per_trial : int;
  crash_trials : crash_trial list;
}

let crash_docs = ["alpha"; "beta"]

let crash_config = { Engine_config.m4 with Engine_config.pool_capacity = pool_frames }

(* [progress] records the last fully-checkpointed phase, which bounds
   what recovery must reproduce: redo recovery may additionally surface
   work the crash interrupted (whose log records were already durable),
   so only checkpointed facts are asserted, monotonically. *)
let crash_workload db ~alpha ~beta progress =
  ignore (Database.load_forest db ~name:"alpha" alpha);
  Database.checkpoint db;
  progress := 1;
  ignore (Database.load_forest db ~name:"beta" beta);
  Database.checkpoint db;
  progress := 2;
  Database.drop_document db ~name:"beta";
  Database.checkpoint db;
  progress := 3

let validate_recovery ~progress ~query db =
  let failure = ref None in
  let record msg = if !failure = None then failure := Some msg in
  let names = Database.document_names db in
  (match List.filter (fun n -> not (List.mem n crash_docs)) names with
   | [] -> ()
   | bad -> record (Printf.sprintf "unknown documents after recovery: %s" (String.concat ", " bad)));
  if progress >= 1 && not (List.mem "alpha" names) then
    record "checkpointed document alpha lost by recovery";
  if progress >= 3 && List.mem "beta" names then
    record "dropped document beta resurrected by recovery";
  List.iter
    (fun name ->
      (match Node_store.check_invariants (Engine.store (Database.engine db ~name)) with
       | () -> ()
       | exception Xqdb_error.Corrupt msg ->
         record (Printf.sprintf "%s: recovered index corrupt: %s" name msg));
      (* The recovered catalog's path summary must agree with one
         rebuilt by rescanning the recovered primary: the planner's
         provably-empty and per-path selectivity decisions ride on it,
         so a stale summary silently corrupts plans, not answers. *)
      if !failure = None then begin
        let e = Database.engine db ~name in
        let persisted = (Engine.doc_stats e).Doc_stats.paths in
        let rebuilt = Path_summary.of_scan (Node_store.scan_all (Engine.store e)) in
        if not (Path_summary.equal persisted rebuilt) then
          record
            (Printf.sprintf
               "%s: recovered path summary disagrees with a from-scratch rescan" name)
      end;
      if !failure = None then begin
        (* The recovered store is its own oracle: milestone 1 evaluates
           in memory from it, and the disk-based milestones must agree. *)
        let oracle = Engine.run (Database.engine ~config:Engine_config.m1 db ~name) query in
        List.iter
          (fun config ->
            if !failure = None then begin
              let label = Printf.sprintf "%s/%s" name config.Engine_config.name in
              match Engine.run (Database.engine ~config db ~name) query with
              | result ->
                (match compare_to_oracle label oracle result with
                 | Some msg -> record ("post-recovery " ^ msg)
                 | None -> ())
              | exception exn ->
                record
                  (Printf.sprintf "post-recovery %s crashed: %s" label
                     (Printexc.to_string exn))
            end)
          [Engine_config.m2; Engine_config.m4; Engine_config.m4_nostruct]
      end)
    names;
  !failure

let crash_at_point ~alpha ~beta ~query ~point ~torn =
  let disk = Disk.in_memory () in
  let wal = Wal.in_memory () in
  let progress = ref 0 in
  let cp = Crash_point.install ~crash_at:point ~torn ~disk ~wal () in
  let run_workload () =
    let db = Database.create_on ~config:crash_config ~wal disk in
    crash_workload db ~alpha ~beta progress
  in
  let crashed, crash_failure =
    match run_workload () with
    | () -> (false, None)
    | exception Crash_point.Crash _ -> (true, None)
    | exception Disk.Disk_error _ when Crash_point.crashed cp ->
      (* The torn crashing write surfaced as an ordinary disk error on a
         path without a retry around it; the storage is dead either way. *)
      (true, None)
    | exception exn ->
      (Crash_point.crashed cp,
       Some (Printf.sprintf "workload died of %s instead of the crash" (Printexc.to_string exn)))
  in
  Crash_point.disarm cp;
  (* The crash loses everything the log had not synced. *)
  Wal.crash_discard wal;
  match crash_failure with
  | Some msg -> { point; torn; crashed; point_ok = false; point_detail = msg }
  | None ->
    (match Database.open_disk ~config:crash_config ~wal disk with
     | db ->
       let detail = validate_recovery ~progress:!progress ~query db in
       { point;
         torn;
         crashed;
         point_ok = detail = None;
         point_detail = (match detail with None -> "" | Some d -> d) }
     | exception exn ->
       { point;
         torn;
         crashed;
         point_ok = false;
         point_detail = Printf.sprintf "recovery crashed: %s" (Printexc.to_string exn) })

(* Evenly spaced 1-based crash points, always including the first and
   last event, without duplicates. *)
let select_points ~total ~wanted =
  if total <= 0 || wanted <= 0 then []
  else if total <= wanted then List.init total (fun i -> i + 1)
  else if wanted = 1 then [1]
  else
    List.init wanted (fun i -> 1 + (i * (total - 1) / (wanted - 1)))
    |> List.sort_uniq compare

let crash_sweep ?(seed = 42) ?(count = 3) ?(points = 10) () =
  let crash_trials =
    List.init count (fun index ->
        let alpha, query = generate ~seed ~index in
        (* A distinct forest for beta, still keyed on (seed, index). *)
        let beta, _ = generate ~seed ~index:(index + 7919) in
        (* Observe run: count the workload's durability events. *)
        let disk = Disk.in_memory () in
        let wal = Wal.in_memory () in
        let progress = ref 0 in
        let cp = Crash_point.install ~disk ~wal () in
        let db = Database.create_on ~config:crash_config ~wal disk in
        crash_workload db ~alpha ~beta progress;
        let events_total = Crash_point.events cp in
        Crash_point.disarm cp;
        let pts = select_points ~total:events_total ~wanted:points in
        let reports =
          List.mapi
            (fun i point ->
              crash_at_point ~alpha ~beta ~query ~point ~torn:(i mod 2 = 1))
            pts
        in
        { crash_trial_index = index;
          crash_query = Xq_print.to_string query;
          events_total;
          points = reports })
  in
  { crash_seed = seed;
    crash_trial_count = count;
    points_per_trial = points;
    crash_trials }

let crash_points_checked r =
  List.fold_left (fun n t -> n + List.length t.points) 0 r.crash_trials

let crash_failures r =
  List.fold_left
    (fun n t -> n + List.length (List.filter (fun p -> not p.point_ok) t.points))
    0 r.crash_trials

let crash_ok r =
  r.crash_trials <> []
  && List.for_all (fun t -> t.events_total > 0) r.crash_trials
  && crash_failures r = 0

let render_crash r =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "crash-point sweep: %d trials, %d crash points recovered, %d failures (seed %d)"
    r.crash_trial_count (crash_points_checked r) (crash_failures r) r.crash_seed;
  List.iter
    (fun t ->
      line "  trial %d: %d durability events, %d points checked [%s]" t.crash_trial_index
        t.events_total (List.length t.points) (truncate t.crash_query);
      List.iter
        (fun p ->
          if not p.point_ok then
            line "    point %d%s FAILED: %s" p.point
              (if p.torn then " (torn)" else "")
              (truncate p.point_detail))
        t.points)
    r.crash_trials;
  line "verdict: %s" (if crash_ok r then "PASS" else "FAIL");
  Buffer.contents buf
