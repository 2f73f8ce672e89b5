module Database = Xqdb_core.Database
module Engine = Xqdb_core.Engine
module Session = Xqdb_server.Session
module Wire = Xqdb_server.Wire
module Storage = Xqdb_storage
module Dblp = Xqdb_workload.Dblp_gen

(* The load generator: [sessions] client sessions over one shared
   database, each replaying a seeded query mix.  Every request goes
   through the full wire path in-process — encode, decode, execute,
   encode, decode — so the harness measures what a socket client would,
   minus the kernel.

   Correctness is checked against a single-session oracle: before the
   domains start, one session executes every distinct query of the mix
   and records (status, payload); each concurrent response must match
   exactly.  With the pin sanitizer on, the run also asserts the shared
   pool ends quiescent — no leaked pins, no held latches.

   Accounting is checked by conservation: the concurrent phase starts on
   a cold pool, and the page I/Os its responses report must add up to
   exactly what the disk moved — a request charged for another
   session's I/O would count it twice. *)

type mode =
  | Closed  (* each session fires its next request on completion *)
  | Open_rate of float  (* requests per second per session *)

type session_report = {
  session : int;
  requests : int;
  ok : int;
  budget_exceeded : int;
  timeouts : int;
  errors : int;
  io_errors : int;
  bad_requests : int;
  mismatches : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

type report = {
  sessions : int;
  requests_per_session : int;
  seed : int;
  scale : int;
  mode : mode;
  doc : string;
  wall_seconds : float;
  throughput : float;  (* completed requests per wall-clock second *)
  total_mismatches : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  per_session : session_report list;
}

let doc_name = "dblp"

(* The query mix: the five efficiency queries plus the Section-2 example
   — all meaningful against DBLP-shaped data, with plan costs spanning
   orders of magnitude, so the mix exercises both fast index probes and
   long scans. *)
let mix () =
  Queries.efficiency_queries @ [("example6", Queries.example6)]

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* Client sessions play N remote processes hammering the server, so each
   gets its own domain — outside the engine's sanctioned parallelism
   sites; a lone session stays on the calling domain. *)
let run_sessions n f =
  if n = 1 then [| f 0 |]
  else Array.map Domain.join (Array.init n (fun k -> Domain.spawn (fun () -> f k)))

(* The shared pool must be quiescent once every session has joined: zero
   pins from anyone, every frame latch idle.  Checked unconditionally —
   under the sanitizer a violation inside a run would already have
   raised, but this also covers non-sanitizing runs. *)
let assert_quiescent ~after pool =
  (match Storage.Buffer_pool.pinned_pages pool with
   | [] -> ()
   | leaked ->
     Storage.Xqdb_error.internal "%d page(s) still pinned after %s" (List.length leaked) after);
  match Storage.Buffer_pool.latched_pages pool with
  | [] -> ()
  | leaked ->
    Storage.Xqdb_error.internal "%d frame latch(es) still held after %s" (List.length leaked)
      after

(* Session [k]'s schedule under [seed]: request i runs mix entry
   [schedule.(i)].  Deterministic in (seed, k), independent of timing. *)
let schedule ~seed ~requests ~mix_size k =
  let rng = Random.State.make [| seed; k; 0x7af |] in
  Array.init requests (fun _ -> Random.State.int rng mix_size)

let make_request ~caps:(max_page_ios, max_seconds) text =
  { Wire.doc = doc_name; query_text = text; max_page_ios; max_seconds; deadline = None }

(* One request through the full wire path, returning the decoded
   response.  Any wire error here is a harness bug — the harness only
   feeds frames it encoded itself — so it surfaces as a typed internal
   error rather than a silent skip. *)
let roundtrip session req =
  let feed = Bytes.unsafe_to_string (Wire.encode_request req) in
  match Wire.read_request ~read:(Wire.string_reader feed) with
  | Result.Error e ->
    Storage.Xqdb_error.internal "Traffic: request did not round-trip: %s"
      (Wire.error_to_string e)
  | Result.Ok decoded ->
    let resp = Session.handle session decoded in
    let feed = Bytes.unsafe_to_string (Wire.encode_response resp) in
    (match Wire.read_response ~read:(Wire.string_reader feed) with
     | Result.Error e ->
       Storage.Xqdb_error.internal "Traffic: response did not round-trip: %s"
         (Wire.error_to_string e)
     | Result.Ok decoded -> decoded)

type outcome = {
  latencies : float array;  (* seconds, one per request, schedule order *)
  counts : int * int * int * int * int * int;
  (* ok, budget, timeout, error, io, bad *)
  mism : int;
  page_ios : int;  (* summed over the responses *)
}

let run_session ~db ~caps ~sched ~mode ~oracle =
  let session =
    let max_page_ios, max_seconds = caps in
    Session.create ?max_page_ios ?max_seconds db
  in
  let mix = Array.of_list (mix ()) in
  let n = Array.length sched in
  let latencies = Array.make n 0. in
  let ok = ref 0 and budget = ref 0 and timeout = ref 0 in
  let error = ref 0 and io = ref 0 and bad = ref 0 in
  let mism = ref 0 in
  let page_ios = ref 0 in
  let start = Storage.Monotonic.now () in
  for i = 0 to n - 1 do
    (match mode with
     | Closed -> ()
     | Open_rate rate ->
       (* Fire on the schedule even if the previous request ran long:
          open-loop latencies include the queueing the client sees. *)
       let target = start +. (float_of_int i /. rate) in
       let now = Storage.Monotonic.now () in
       if now < target then Unix.sleepf (target -. now));
    let _, text = mix.(sched.(i)) in
    let t0 = Storage.Monotonic.now () in
    let resp = roundtrip session (make_request ~caps text) in
    latencies.(i) <- Storage.Monotonic.elapsed_since t0;
    page_ios := !page_ios + resp.Wire.page_ios;
    (match resp.Wire.status with
     | Wire.Ok -> incr ok
     | Wire.Budget_exceeded -> incr budget
     | Wire.Timeout -> incr timeout
     | Wire.Error -> incr error
     | Wire.Io_error -> incr io
     | Wire.Bad_request | Wire.Unavailable -> incr bad);
    match Hashtbl.find_opt oracle text with
    | Some (status, payload)
      when status = resp.Wire.status && String.equal payload resp.Wire.payload ->
      ()
    | Some _ | None -> incr mism
  done;
  { latencies; counts = (!ok, !budget, !timeout, !error, !io, !bad); mism = !mism;
    page_ios = !page_ios }

let session_report ~k (o : outcome) =
  let sorted = Array.copy o.latencies in
  Array.sort Float.compare sorted;
  let ok, budget, timeout, error, io, bad = o.counts in
  { session = k;
    requests = Array.length o.latencies;
    ok;
    budget_exceeded = budget;
    timeouts = timeout;
    errors = error;
    io_errors = io;
    bad_requests = bad;
    mismatches = o.mism;
    p50_ms = 1000. *. percentile sorted 0.50;
    p95_ms = 1000. *. percentile sorted 0.95;
    p99_ms = 1000. *. percentile sorted 0.99 }

let run ?(mode = Closed) ?max_page_ios ?max_seconds ~sessions ~requests ~seed ~scale () =
  if sessions < 1 then invalid_arg "Traffic.run: sessions must be positive";
  if requests < 1 then invalid_arg "Traffic.run: requests must be positive";
  let db = Database.create () in
  let forest = [Dblp.generate (Dblp.scaled scale)] in
  ignore (Database.load_forest db ~name:doc_name forest);
  let caps = (max_page_ios, max_seconds) in
  let mix_entries = mix () in
  (* The single-session oracle: every distinct query once, sequentially,
     before any concurrency starts. *)
  let oracle = Hashtbl.create 16 in
  let oracle_session =
    Session.create ?max_page_ios ?max_seconds db
  in
  List.iter
    (fun (_, text) ->
      let resp = roundtrip oracle_session (make_request ~caps text) in
      Hashtbl.replace oracle text (resp.Wire.status, resp.Wire.payload))
    mix_entries;
  let mix_size = List.length mix_entries in
  let scheds = Array.init sessions (schedule ~seed ~requests ~mix_size) in
  (* Cold start, so the concurrent phase really does I/O. *)
  let pool = Engine.pool (Database.engine db ~name:doc_name) in
  Storage.Buffer_pool.drop_all pool;
  let ios_before = Storage.Disk.total_ios (Database.disk db) in
  let start = Storage.Monotonic.now () in
  let outcomes =
    run_sessions sessions (fun k -> run_session ~db ~caps ~sched:scheds.(k) ~mode ~oracle)
  in
  let wall_seconds = Storage.Monotonic.elapsed_since start in
  assert_quiescent ~after:"all traffic sessions joined" pool;
  let charged = Array.fold_left (fun acc o -> acc + o.page_ios) 0 outcomes in
  let moved = Storage.Disk.total_ios (Database.disk db) - ios_before in
  if charged <> moved then
    Storage.Xqdb_error.internal
      "Traffic: responses report %d page I/Os but the disk moved %d" charged moved;
  let per_session =
    List.mapi (fun k o -> session_report ~k o) (Array.to_list outcomes)
  in
  let all =
    Array.concat (Array.to_list (Array.map (fun o -> o.latencies) outcomes))
  in
  Array.sort Float.compare all;
  let total_requests = sessions * requests in
  { sessions;
    requests_per_session = requests;
    seed;
    scale;
    mode;
    doc = doc_name;
    wall_seconds;
    throughput = (if wall_seconds > 0. then float_of_int total_requests /. wall_seconds else 0.);
    total_mismatches = List.fold_left (fun acc s -> acc + s.mismatches) 0 per_session;
    p50_ms = 1000. *. percentile all 0.50;
    p95_ms = 1000. *. percentile all 0.95;
    p99_ms = 1000. *. percentile all 0.99;
    per_session }

let mode_label = function
  | Closed -> "closed"
  | Open_rate _ -> "open"

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "traffic: %d session(s) x %d request(s), %s loop, DBLP scale %d, seed %d\n"
       r.sessions r.requests_per_session (mode_label r.mode) r.scale r.seed);
  Buffer.add_string buf
    (Printf.sprintf "  wall %.2fs  throughput %.1f req/s  mismatches %d\n" r.wall_seconds
       r.throughput r.total_mismatches);
  Buffer.add_string buf
    (Printf.sprintf "  latency p50 %.2fms  p95 %.2fms  p99 %.2fms\n" r.p50_ms r.p95_ms
       r.p99_ms);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           "  session %d: ok %d  budget %d  timeout %d  error %d  io %d  bad %d  mismatch %d  p95 %.2fms\n"
           s.session s.ok s.budget_exceeded s.timeouts s.errors s.io_errors s.bad_requests
           s.mismatches s.p95_ms))
    r.per_session;
  Buffer.contents buf
