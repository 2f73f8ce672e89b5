module Database = Xqdb_core.Database
module Engine = Xqdb_core.Engine
module Engine_config = Xqdb_core.Engine_config
module Session = Xqdb_server.Session
module Server = Xqdb_server.Server
module Wire = Xqdb_server.Wire
module Storage = Xqdb_storage
module Metrics = Xqdb_storage.Metrics
module Wal = Xqdb_storage.Wal
module Disk = Xqdb_storage.Disk
module Dblp = Xqdb_workload.Dblp_gen

(* The chaos harness: the traffic generator re-run under seeded faults,
   with the fault-free run as its own oracle.

   Both traffic legs replay the *same* seeded per-session schedules —
   a mix of well-formed requests, stale-version frames, already-expired
   deadlines and hostile byte strings — through the
   server's real connection loop.  The baseline leg runs them
   fault-free; the chaos leg re-runs them with a seeded Fault_disk
   injector armed.  Deliberate abuse (hostile frames, dead deadlines)
   therefore produces identical typed outcomes in both legs, which is
   what lets the transient profile assert the strongest property in the
   issue: the chaos leg's outcome counts must equal the baseline's —
   transient faults are invisible to clients, absorbed entirely by the
   storage retry.

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

type leg = {
  leg : string;
  requests : int;
  ok : int;
  budget_exceeded : int;
  timeouts : int;
  errors : int;
  io_errors : int;
  bad_requests : int;
  unavailable : int;
  mismatches : int;
  untyped : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

type wal_faults = {
  append_faults : int;
  sync_faults : int;
  torn_syncs : int;
}

type report = {
  chaos_seed : int;
  chaos_sessions : int;
  chaos_requests : int;
  chaos_scale : int;
  profile_label : string;
  faults_injected : int;
  retry_attempts : int;
  retry_giveups : int;
  wal_rounds : int;
  wal_retry_attempts : int;
  wal_faults : wal_faults;
  baseline : leg;
  chaos : leg;
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

(* --- request plans --------------------------------------------------------- *)

(* What one slot of a session's schedule does.  Drawn once per (seed,
   session) and replayed identically by both legs. *)
type plan =
  | Normal of int  (* mix entry *)
  | Stale_version of int  (* mix entry under an unsupported version byte *)
  | Expired of int  (* mix entry with an already-dead deadline *)
  | Hostile of int  (* one of the hostile byte strings *)

let u32be n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

(* The header defaults to the current version, so each hostile frame
   below reaches the decoder branch it is aimed at. *)
let frame_header ?(magic = "XQDB") ?(version = Wire.version) ?(kind = 1) len =
  magic ^ String.make 1 (Char.chr version) ^ String.make 1 (Char.chr kind) ^ u32be len

(* Every variant must decode to a typed non-[Closed] error, so the
   server loop answers each with exactly one [Bad_request]. *)
let hostile_frames =
  [| frame_header ~magic:"EVIL" 0;  (* garbage magic *)
     "XQ";  (* header truncated mid-magic *)
     frame_header ~kind:9 0;  (* unknown frame kind *)
     frame_header (Wire.max_payload + 1);  (* oversize declaration *)
     frame_header 64 ^ "not sixty-four bytes" (* payload truncated *) |]

let schedule ~seed ~requests ~mix_size k =
  let rng = Random.State.make [| seed; k; 0xc4a05 |] in
  Array.init requests (fun _ ->
      let d = Random.State.int rng 100 in
      if d < 4 then Hostile (Random.State.int rng (Array.length hostile_frames))
      else if d < 8 then Expired (Random.State.int rng mix_size)
      else if d < 16 then Stale_version (Random.State.int rng mix_size)
      else Normal (Random.State.int rng mix_size))

let make_request ?deadline text =
  { Wire.doc = Traffic.doc_name; query_text = text; max_page_ios = None; max_seconds = None;
    deadline }

(* One plan through the server's real connection loop (one frame, then
   EOF), returning the decoded responses the "client" saw. *)
let play session plan mix =
  let frame =
    match plan with
    | Normal i -> Bytes.to_string (Wire.encode_request (make_request (snd mix.(i))))
    | Stale_version i ->
      (* A well-formed request under the previous version byte: the
         server must reject it with one [Bad_request], not translate it. *)
      let b = Wire.encode_request (make_request (snd mix.(i))) in
      Bytes.set_uint8 b 4 (Wire.version - 1);
      Bytes.to_string b
    | Expired i ->
      (* A deadline already in the past: the session must censor it with
         the typed [Timeout], touching no page. *)
      Bytes.to_string
        (Wire.encode_request (make_request ~deadline:(-1.0) (snd mix.(i))))
    | Hostile i -> hostile_frames.(i)
  in
  let out = Buffer.create 256 in
  Server.handle_connection ~session ~read:(Wire.string_reader frame)
    ~write:(Buffer.add_bytes out) ();
  let read = Wire.string_reader (Buffer.contents out) in
  let rec drain acc =
    match Wire.read_response ~read with
    | Result.Ok r -> drain (r :: acc)
    | Result.Error _ -> List.rev acc
  in
  drain []

(* One session's leg, summarized.  Immutable — each domain builds its
   own from local refs and the spawner only ever reads the results. *)
type outcome = {
  latencies : float array;
  c_ok : int;
  c_budget : int;
  c_timeout : int;
  c_error : int;
  c_io : int;
  c_bad : int;
  c_unavailable : int;
  c_mism : int;
  c_untyped : int;
}

let run_session ~db ~mix ~oracle ~sched =
  let session = Session.create db in
  let n = Array.length sched in
  let latencies = Array.make n 0. in
  let ok = ref 0 and budget = ref 0 and timeout = ref 0 and error = ref 0 in
  let io = ref 0 and bad = ref 0 and unavailable = ref 0 in
  let mism = ref 0 and untyped = ref 0 in
  for i = 0 to n - 1 do
    let t0 = Storage.Monotonic.now () in
    (match play session sched.(i) mix with
     | [resp] ->
       (* Faults may never corrupt an answer: an [Ok] payload must equal
          the fault-free oracle's, byte for byte, and a frame the decoder
          must reject gets [Bad_request]. *)
       (match sched.(i), resp.Wire.status with
        | (Stale_version _ | Hostile _), Wire.Bad_request -> ()
        | (Stale_version _ | Hostile _), _ -> incr mism
        | Normal q, Wire.Ok ->
          (match Hashtbl.find_opt oracle (snd mix.(q)) with
           | Some payload when String.equal payload resp.Wire.payload -> ()
           | Some _ | None -> incr mism)
        | Expired _, Wire.Ok -> incr mism
        | (Normal _ | Expired _), _ -> ());
       (match resp.Wire.status with
        | Wire.Ok -> incr ok
        | Wire.Budget_exceeded -> incr budget
        | Wire.Timeout -> incr timeout
        | Wire.Error -> incr error
        | Wire.Io_error -> incr io
        | Wire.Bad_request -> incr bad
        | Wire.Unavailable -> incr unavailable)
     | [] | _ :: _ :: _ ->
       (* The loop must answer every frame exactly once; anything else
          is an untyped escape. *)
       incr untyped
     | exception (Storage.Xqdb_error.Internal _ as e) -> raise e
     | exception _ -> incr untyped);
    latencies.(i) <- Storage.Monotonic.elapsed_since t0
  done;
  { latencies;
    c_ok = !ok; c_budget = !budget; c_timeout = !timeout; c_error = !error;
    c_io = !io; c_bad = !bad; c_unavailable = !unavailable; c_mism = !mism;
    c_untyped = !untyped }

let aggregate ~label outcomes =
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let all =
    Array.concat (Array.to_list (Array.map (fun o -> o.latencies) outcomes))
  in
  Array.sort Float.compare all;
  { leg = label;
    requests = Array.length all;
    ok = sum (fun o -> o.c_ok);
    budget_exceeded = sum (fun o -> o.c_budget);
    timeouts = sum (fun o -> o.c_timeout);
    errors = sum (fun o -> o.c_error);
    io_errors = sum (fun o -> o.c_io);
    bad_requests = sum (fun o -> o.c_bad);
    unavailable = sum (fun o -> o.c_unavailable);
    mismatches = sum (fun o -> o.c_mism);
    untyped = sum (fun o -> o.c_untyped);
    p50_ms = 1000. *. Traffic.percentile all 0.50;
    p95_ms = 1000. *. Traffic.percentile all 0.95;
    p99_ms = 1000. *. Traffic.percentile all 0.99 }

(* The oracle: every distinct query answered once, fault-free (the
   caller records it before any injector is armed). *)
let record_oracle ~db mix =
  let oracle = Hashtbl.create 16 in
  let session = Session.create db in
  Array.iter
    (fun (_, text) ->
      let resp = Session.handle session (make_request text) in
      if resp.Wire.status = Wire.Ok then
        Hashtbl.replace oracle text resp.Wire.payload)
    mix;
  oracle

(* Cold starts per leg.  One cold read sweep over a small document is
   only a few dozen faultable page reads; repeating the schedules from
   a dropped pool multiplies the disk traffic the injector sees, so
   "the injector fired" holds for any seed at realistic rates. *)
let waves = 3

let run_leg ~label ~db ~mix ~oracle ~scheds () =
  let pool = Engine.pool (Database.engine db ~name:Traffic.doc_name) in
  let sessions = Array.length scheds in
  let outcomes = ref [] in
  for _wave = 1 to waves do
    (* Cold pool: both legs start each wave from disk, so the chaos
       leg's reads actually traverse the (possibly faulting) disk and
       the latency comparison is like against like. *)
    Storage.Buffer_pool.drop_all pool;
    let os =
      Traffic.run_sessions sessions (fun k -> run_session ~db ~mix ~oracle ~sched:scheds.(k))
    in
    Traffic.assert_quiescent ~after:(Printf.sprintf "the chaos harness's %s leg" label) pool;
    outcomes := os :: !outcomes
  done;
  aggregate ~label (Array.concat (List.rev !outcomes))

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

let leg_violations (l : leg) =
  (if l.untyped > 0 then
     [Printf.sprintf "%s leg: %d failure(s) escaped untyped" l.leg l.untyped]
   else [])
  @
  if l.mismatches > 0 then
    [Printf.sprintf "%s leg: %d response(s) diverged from the fault-free oracle"
       l.leg l.mismatches]
  else []

let counts_of (l : leg) =
  (l.ok, l.budget_exceeded, l.timeouts, l.errors, l.io_errors, l.bad_requests,
   l.unavailable)

let run ?(profile = Transient) ?(max_p99_ratio = 200.0) ~sessions ~requests ~seed ~scale
    () =
  if sessions < 1 then invalid_arg "Chaos.run: sessions must be positive";
  if requests < 1 then invalid_arg "Chaos.run: requests must be positive";
  let db = Database.create ~config:chaos_config () in
  ignore (Database.load_forest db ~name:Traffic.doc_name [Dblp.generate (Dblp.scaled scale)]);
  let mix = Array.of_list (Traffic.mix ()) in
  let scheds =
    Array.init sessions (schedule ~seed ~requests ~mix_size:(Array.length mix))
  in
  let oracle = record_oracle ~db mix in
  let baseline = run_leg ~label:"baseline" ~db ~mix ~oracle ~scheds () in
  (* Same schedules again, now with the disk faulting underneath. *)
  let injector =
    Storage.Fault_disk.attach ~policy:(fault_policy profile) ~seed (Database.disk db)
  in
  let attempts0 = global "retry.attempts" in
  let giveups0 = global "retry.giveups" in
  let chaos = run_leg ~label:"chaos" ~db ~mix ~oracle ~scheds () in
  let injected = (Storage.Fault_disk.counts injector).Storage.Fault_disk.injected in
  Storage.Fault_disk.detach injector;
  let retry_attempts = global "retry.attempts" - attempts0 in
  let retry_giveups = global "retry.giveups" - giveups0 in
  let wal_rounds, wal_retry_attempts, wal_faults, wal_violations = wal_leg ~seed ~rounds:8 in
  let p99_ratio =
    if baseline.p99_ms > 0. then chaos.p99_ms /. baseline.p99_ms else 1.0
  in
  let violations =
    leg_violations baseline @ leg_violations chaos
    @ (if injected = 0 then ["chaos leg: the fault injector never fired"] else [])
    @ (match profile with
       | Transient ->
         (if counts_of chaos <> counts_of baseline then
            [Printf.sprintf
               "transient faults leaked to clients: chaos outcomes \
                (ok %d budget %d timeout %d error %d io %d bad %d unavailable %d) \
                differ from baseline \
                (ok %d budget %d timeout %d error %d io %d bad %d unavailable %d)"
               chaos.ok chaos.budget_exceeded chaos.timeouts chaos.errors chaos.io_errors
               chaos.bad_requests chaos.unavailable baseline.ok
               baseline.budget_exceeded baseline.timeouts baseline.errors
               baseline.io_errors baseline.bad_requests baseline.unavailable]
          else [])
         @
         if retry_attempts = 0 then
           ["transient profile: retry.attempts stayed 0 — the retry never ran"]
         else []
       | Hard ->
         (if chaos.io_errors = 0 then
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
  { chaos_seed = seed;
    chaos_sessions = sessions;
    chaos_requests = requests;
    chaos_scale = scale;
    profile_label = profile_label profile;
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
       r.chaos_sessions r.chaos_requests r.profile_label r.chaos_scale r.chaos_seed);
  List.iter
    (fun (l : leg) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %-8s ok %d  budget %d  timeout %d  error %d  io %d  bad %d  unavail %d  \
            mismatch %d  untyped %d  p99 %.2fms\n"
           l.leg l.ok l.budget_exceeded l.timeouts l.errors l.io_errors l.bad_requests
           l.unavailable l.mismatches l.untyped l.p99_ms))
    [r.baseline; r.chaos];
  Buffer.add_string buf
    (Printf.sprintf
       "  faults injected %d  retry attempts %d  giveups %d  p99 ratio %.1fx\n"
       r.faults_injected r.retry_attempts r.retry_giveups r.p99_ratio);
  Buffer.add_string buf
    (Printf.sprintf
       "  wal leg: %d round(s), faults: append %d  sync %d  torn sync %d, retry attempts %d\n"
       r.wal_rounds r.wal_faults.append_faults r.wal_faults.sync_faults
       r.wal_faults.torn_syncs r.wal_retry_attempts);
  (match r.violations with
   | [] -> Buffer.add_string buf "  PASS: no violations\n"
   | vs ->
     List.iter (fun v -> Buffer.add_string buf (Printf.sprintf "  VIOLATION: %s\n" v)) vs);
  Buffer.contents buf
