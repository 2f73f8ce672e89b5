module Database = Xqdb_core.Database
module Engine_config = Xqdb_core.Engine_config
module Wire = Xqdb_server.Wire
module Storage = Xqdb_storage
module Metrics = Xqdb_storage.Metrics
module Wal = Xqdb_storage.Wal
module Disk = Xqdb_storage.Disk

(* The chaos harness: the traffic driver re-run under seeded faults,
   with the fault-free run as its own oracle.

   Both traffic legs replay the *same* seeded per-session schedules —
   a mix of well-formed requests, stale-version frames, already-expired
   deadlines and hostile byte strings.  The baseline leg runs them
   fault-free; the chaos leg re-runs them with a seeded Fault_disk
   injector armed.  Deliberate abuse (hostile frames, dead deadlines)
   therefore produces identical typed outcomes in both legs, which is
   what lets the transient profile assert the strongest property: the
   chaos leg's outcome counts must equal the baseline's — transient
   faults are invisible to clients, absorbed entirely by the storage
   retry.

   The third leg exercises the WAL path single-threaded: load/drop
   cycles on a scratch file database under injected append/sync faults
   (including one torn sync), asserting the retry absorbed them and a
   fresh [open_file] recovers the file. *)

type profile =
  | Transient
  | Hard

let profile_label = function
  | Transient -> "transient"
  | Hard -> "hard"

type wal_faults = {
  append_faults : int;
  sync_faults : int;
  torn_syncs : int;
}

type report = {
  profile : profile;
  seed : int;
  sessions : int;
  requests : int;
  scale : int;
  faults_injected : int;
  retry_attempts : int;
  retry_giveups : int;
  wal_rounds : int;
  wal_retry_attempts : int;
  wal_faults : wal_faults;
  baseline : Traffic.outcome;
  chaos : Traffic.outcome;
  p99_ratio : float;
  violations : string list;
}

(* Deep retries for the chaos database: at the fault rates the harness
   injects, the default 3-attempt policy would give up on back-to-back
   transient faults a few times per million reads — real flakiness for a
   CI gate.  Eight attempts put a giveup past 1e-10 per read while hard
   faults still surface (they defeat any retry depth). *)
let chaos_config =
  { Engine_config.m4 with
    Engine_config.retry_policy = { Storage.Retry.default with Storage.Retry.attempts = 8 } }

(* A global counter's value; each leg reports the growth of the retry
   counters {!Storage.Retry} bumps. *)
let global name = Metrics.get (Metrics.snapshot ()) name

let fault_policy = function
  | Transient ->
    (* High enough that a leg's cold reads (a small document is only a
       few dozen pages, even across [waves] cold starts) are all but
       certain to fault at least once — the run asserts the injector
       fired.  Giving up still needs [attempts] consecutive faults on
       one read, i.e. 0.15^8 — negligible. *)
    { Storage.Fault_disk.read_fault_rate = 0.15;
      write_fault_rate = 0.;
      alloc_fault_rate = 0.;
      transient_fraction = 1.0;
      torn_fraction = 0. }
  | Hard ->
    (* A much higher rate than the transient profile: the leg's cold
       reads only touch on the order of a hundred pages, and at least
       one fault must come up hard for the typed-Io_error assertion to
       have teeth. *)
    { Storage.Fault_disk.read_fault_rate = 0.3;
      write_fault_rate = 0.;
      alloc_fault_rate = 0.;
      transient_fraction = 0.5;
      torn_fraction = 0. }

(* Cold starts per leg.  One cold read sweep over a small document is
   only a few dozen faultable page reads; repeating the schedules from
   a dropped pool multiplies the disk traffic the injector sees, so
   "the injector fired" holds for any seed at realistic rates.  Both
   legs start each wave from disk, so the chaos leg's reads actually
   traverse the (possibly faulting) disk and the latency comparison is
   like against like. *)
let waves = 3

let run_leg ~label ~faults ~db ~oracle scheds =
  let after = Printf.sprintf "the chaos harness's %s leg" label in
  Traffic.merge
    (List.concat_map
       (fun _ ->
         let outcomes, _, _ = Traffic.wave ~faults ~oracle ~after db scheds in
         Array.to_list outcomes)
       (List.init waves Fun.id))

(* --- the WAL-fault leg ----------------------------------------------------- *)

let scratch_doc =
  "<scratch><a>one</a><b>two</b><c>three</c><d><e>deep</e></d></scratch>"

(* Single-threaded load/drop/checkpoint cycles on a scratch file
   database with WAL append/sync faults injected.  The pool logs only
   when it syncs, so the leg sees few appends; one fault of each kind is
   therefore deterministic — the first append fails, the second sync is
   torn (exercising the write-back re-append) and the fourth fails — and
   seeded transient failures come on top.  Returns (rounds,
   retry.attempts delta, faults injected, violations). *)
let wal_leg ~seed ~rounds =
  let path = Filename.temp_file "xqdb_chaos" ".db" in
  let wal_path = path ^ ".wal" in
  let cleanup () =
    (try Sys.remove path with Sys_error _ -> ());
    try Sys.remove wal_path with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      let attempts0 = global "retry.attempts" in
      let violations = ref [] in
      let append_faults = ref 0 and sync_faults = ref 0 and torn_syncs = ref 0 in
      let db = Database.create ~config:chaos_config ~on_file:path () in
      (match Database.wal db with
       | None ->
         violations := "WAL leg: file database came up without a log" :: !violations;
         Database.close db
       | Some wal ->
         let rng = Random.State.make [| seed; 0x3a1f |] in
         let draw p = Random.State.float rng 1.0 < p in
         let syncs = ref 0 and appends = ref 0 in
         let fail counter msg =
           incr counter;
           Wal.Fail msg
         in
         Wal.set_injector wal
           (Some
              (fun op ->
                match op with
                | Wal.Sync ->
                  incr syncs;
                  (* The torn sync drops its whole group, so the
                     write-back must re-append before its retried sync. *)
                  if !syncs = 2 then begin
                    incr torn_syncs;
                    Wal.Torn "chaos: torn sync"
                  end
                  else if draw 0.1 || !syncs = 4 then
                    fail sync_faults "chaos: transient sync fault"
                  else Wal.No_fault
                | Wal.Append ->
                  incr appends;
                  if draw 0.05 || !appends = 1 then
                    fail append_faults "chaos: transient append fault"
                  else Wal.No_fault));
         (try
            for round = 1 to rounds do
              let name = Printf.sprintf "scratch%d" round in
              ignore (Database.load_document db ~name scratch_doc);
              Database.checkpoint db;
              Database.drop_document db ~name
            done
          with Disk.Disk_error msg ->
            violations :=
              Printf.sprintf "WAL leg: a fault escaped the retry: %s" msg :: !violations);
         Wal.set_injector wal None;
         Database.close db;
         (* The recovery check: a fresh open must replay to a consistent
            catalog — this is also what CI runs after a SIGTERM drain. *)
         (match Database.open_file path with
          | db2 ->
            ignore (Database.document_names db2);
            Database.close db2
          | exception e ->
            violations :=
              Printf.sprintf "WAL leg: post-fault open_file failed: %s"
                (Printexc.to_string e)
              :: !violations));
      ( rounds,
        global "retry.attempts" - attempts0,
        { append_faults = !append_faults; sync_faults = !sync_faults; torn_syncs = !torn_syncs },
        List.rev !violations ))

(* --- the full run ---------------------------------------------------------- *)

(* The tolerated chaos-leg p99 degradation over the baseline. *)
let max_p99_ratio = 200.0

let run ?(profile = Transient) ~sessions ~requests ~seed ~scale () =
  if sessions < 1 then invalid_arg "Chaos.run: sessions must be positive";
  if requests < 1 then invalid_arg "Chaos.run: requests must be positive";
  let db = Traffic.load ~config:chaos_config ~scale () in
  let scheds = Array.init sessions (Traffic.schedule ~abuse:true ~seed ~requests) in
  let oracle = Traffic.record_oracle db in
  let baseline = run_leg ~label:"baseline" ~faults:false ~db ~oracle scheds in
  (* Same schedules again, now with the disk faulting underneath. *)
  let injector =
    Storage.Fault_disk.attach ~policy:(fault_policy profile) ~seed (Database.disk db)
  in
  let attempts0 = global "retry.attempts" in
  let giveups0 = global "retry.giveups" in
  let chaos = run_leg ~label:"chaos" ~faults:true ~db ~oracle scheds in
  let injected = (Storage.Fault_disk.counts injector).Storage.Fault_disk.injected in
  Storage.Fault_disk.detach injector;
  let retry_attempts = global "retry.attempts" - attempts0 in
  let retry_giveups = global "retry.giveups" - giveups0 in
  let wal_rounds, wal_retry_attempts, wal_faults, wal_violations = wal_leg ~seed ~rounds:8 in
  let p99 o = Traffic.percentile_ms o 0.99 in
  let p99_ratio = if p99 baseline > 0. then p99 chaos /. p99 baseline else 1.0 in
  let violations =
    Traffic.violations ~label:"baseline leg" baseline
    @ Traffic.violations ~label:"chaos leg" chaos
    @ (if injected = 0 then ["chaos leg: the fault injector never fired"] else [])
    @ (match profile with
       | Transient ->
         (if chaos.Traffic.counts <> baseline.Traffic.counts then
            ["transient faults leaked to clients: the chaos leg's status counts differ from \
              the baseline's"]
          else [])
         @
         if retry_attempts = 0 then
           ["transient profile: retry.attempts stayed 0 — the retry never ran"]
         else []
       | Hard ->
         (if Traffic.count chaos Wire.Io_error = 0 then
            ["hard profile: no hard fault surfaced as a typed Io_error"]
          else [])
         @
         if retry_giveups = 0 then
           ["hard profile: retry.giveups stayed 0 — hard faults never defeated the retry"]
         else [])
    @ (if p99_ratio > max_p99_ratio then
         [Printf.sprintf "chaos p99 degraded %.1fx (bound %.1fx)" p99_ratio max_p99_ratio]
       else [])
    @ wal_violations
    @ (if wal_faults.append_faults = 0 || wal_faults.sync_faults = 0 || wal_faults.torn_syncs = 0
       then
         [Printf.sprintf
            "WAL leg: a fault kind never fired (append %d, sync %d, torn sync %d)"
            wal_faults.append_faults wal_faults.sync_faults wal_faults.torn_syncs]
       else [])
    @
    (* Each injected fault the leg survived cost at least one retry; any
       fewer attempts means some fault was absorbed without one. *)
    let injected = wal_faults.append_faults + wal_faults.sync_faults + wal_faults.torn_syncs in
    if wal_retry_attempts < injected then
      [Printf.sprintf "WAL leg: %d log fault(s) injected but only %d retry attempt(s)"
         injected wal_retry_attempts]
    else []
  in
  { profile;
    seed;
    sessions;
    requests;
    scale;
    faults_injected = injected;
    retry_attempts;
    retry_giveups;
    wal_rounds;
    wal_retry_attempts;
    wal_faults;
    baseline;
    chaos;
    p99_ratio;
    violations }

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "chaos: %d session(s) x %d request(s), %s faults, DBLP scale %d, seed %d\n"
       r.sessions r.requests (profile_label r.profile) r.scale r.seed);
  Buffer.add_string buf (Traffic.render_outcome "baseline" r.baseline);
  Buffer.add_string buf (Traffic.render_outcome "chaos" r.chaos);
  Buffer.add_string buf
    (Printf.sprintf
       "  faults injected %d  retry attempts %d  giveups %d  p99 ratio %.1fx\n"
       r.faults_injected r.retry_attempts r.retry_giveups r.p99_ratio);
  Buffer.add_string buf
    (Printf.sprintf
       "  wal leg: %d round(s), faults: append %d  sync %d  torn sync %d, retry attempts %d\n"
       r.wal_rounds r.wal_faults.append_faults r.wal_faults.sync_faults
       r.wal_faults.torn_syncs r.wal_retry_attempts);
  Buffer.add_string buf (Traffic.render_verdict r.violations);
  Buffer.contents buf
