module Database = Xqdb_core.Database
module Engine = Xqdb_core.Engine
module Session = Xqdb_server.Session
module Server = Xqdb_server.Server
module Wire = Xqdb_server.Wire
module Storage = Xqdb_storage
module Dblp = Xqdb_workload.Dblp_gen

(* The serving harnesses' one driver: client sessions over one shared
   database, each replaying a seeded schedule of slots through the
   server's real connection loop in-process — one encoded frame in, the
   typed responses out — so the harness sees what a socket client would,
   minus the kernel.  [run] is the traffic harness; Chaos plays the same
   slots with abuse mixed in and the disk faulting underneath.

   Correctness is checked against a single-session oracle: before any
   concurrency starts, one unbudgeted session answers every distinct
   query of the mix and records (status, payload); each response must
   conform to it (see [conforms]).  The shared pool must end every wave
   quiescent — no leaked pins, no held latches.

   Traffic also checks accounting by conservation: its wave starts on a
   cold pool, and the page I/Os its responses report must add up to
   exactly what the disk moved — a request charged for another
   session's I/O would count it twice. *)

let doc_name = "dblp"

(* The query mix: the five efficiency queries plus the Section-2 example
   — all meaningful against DBLP-shaped data, with plan costs spanning
   orders of magnitude, so the mix exercises both fast index probes and
   long scans. *)
let mix () =
  Queries.efficiency_queries @ [("example6", Queries.example6)]

let load ?config ~scale () =
  let db = Database.create ?config () in
  ignore (Database.load_forest db ~name:doc_name [Dblp.generate (Dblp.scaled scale)]);
  db

(* --- slots and frames ------------------------------------------------------ *)

type slot =
  | Normal of int
  | Stale_version of int
  | Expired of int
  | Hostile of int

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

(* The two draws keep their own RNG salts, so a seed replays the same
   schedules whichever harness draws them. *)
let schedule ~abuse ~seed ~requests k =
  let mix_size = List.length (mix ()) in
  if not abuse then
    let rng = Random.State.make [| seed; k; 0x7af |] in
    Array.init requests (fun _ -> Normal (Random.State.int rng mix_size))
  else
    let rng = Random.State.make [| seed; k; 0xc4a05 |] in
    Array.init requests (fun _ ->
        let d = Random.State.int rng 100 in
        if d < 4 then Hostile (Random.State.int rng (Array.length hostile_frames))
        else if d < 8 then Expired (Random.State.int rng mix_size)
        else if d < 16 then Stale_version (Random.State.int rng mix_size)
        else Normal (Random.State.int rng mix_size))

let request ?max_page_ios ?max_seconds ?deadline text =
  Wire.encode_request
    { Wire.doc = doc_name; query_text = text; max_page_ios; max_seconds; deadline }

let frame ?max_page_ios ?max_seconds texts = function
  | Normal i -> Bytes.to_string (request ?max_page_ios ?max_seconds texts.(i))
  | Stale_version i ->
    (* A well-formed request under the previous version byte: the
       server must reject it with one [Bad_request], not translate it. *)
    let b = request ?max_page_ios ?max_seconds texts.(i) in
    Bytes.set_uint8 b 4 (Wire.version - 1);
    Bytes.to_string b
  | Expired i ->
    (* A deadline already in the past: the session must censor it with
       the typed [Timeout], touching no page. *)
    Bytes.to_string (request ?max_page_ios ?max_seconds ~deadline:(-1.0) texts.(i))
  | Hostile i -> hostile_frames.(i)

(* One frame through the server's real connection loop (the frame, then
   EOF), returning the decoded responses the "client" saw. *)
let play session frame =
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

(* --- the oracle ------------------------------------------------------------ *)

type oracle = (string, Wire.status_code * string) Hashtbl.t

let record_oracle db =
  let oracle = Hashtbl.create 16 in
  let session = Session.create db in
  List.iter
    (fun (_, text) ->
      match play session (Bytes.to_string (request text)) with
      | [r] -> Hashtbl.replace oracle text (r.Wire.status, r.Wire.payload)
      | rs ->
        Storage.Xqdb_error.internal "Traffic: the oracle got %d responses to one frame"
          (List.length rs))
    (mix ());
  oracle

(* Whether a capped request trips depends on what the other sessions
   left in the shared pool, so a budgeted oracle's statuses are no gate.
   What holds whatever the interleaving: a response that was not
   censored is the unbudgeted oracle's and stayed within the page cap,
   and a page-cap censor stopped in (cap, cap + 2] — the pool checks the
   cap after each read and the one write-back it may cause.  A time-cap
   censor ([timed]) may stop anywhere up to cap + 2.  Faults may make a
   request fail typed, never corrupt an answer. *)
let conforms ~cap ~timed ~faults oracle texts slot (r : Wire.response) =
  match slot, r.Wire.status with
  | (Stale_version _ | Hostile _), Wire.Bad_request | Expired _, Wire.Timeout -> true
  | (Stale_version _ | Hostile _ | Expired _), _ -> false
  | Normal _, Wire.Budget_exceeded ->
    r.Wire.page_ios - 2 <= cap && (r.Wire.page_ios > cap || timed)
  | Normal _, Wire.Io_error when faults -> true
  | Normal i, status ->
    (match Hashtbl.find_opt oracle texts.(i) with
     | Some (expected, payload) ->
       status = expected && String.equal r.Wire.payload payload && r.Wire.page_ios <= cap
     | None -> false)

(* --- outcomes -------------------------------------------------------------- *)

type outcome = {
  counts : int array;
  untyped : int;
  mismatches : int;
  latencies : float array;
  page_ios : int;
}

let status_labels = [| "ok"; "budget"; "timeout"; "error"; "io"; "bad"; "unavail" |]

let status_index = function
  | Wire.Ok -> 0
  | Wire.Budget_exceeded -> 1
  | Wire.Timeout -> 2
  | Wire.Error -> 3
  | Wire.Io_error -> 4
  | Wire.Bad_request -> 5
  | Wire.Unavailable -> 6

let count o status = o.counts.(status_index status)

let percentile_ms o q =
  let n = Array.length o.latencies in
  if n = 0 then 0.
  else 1000. *. o.latencies.(min (n - 1) (int_of_float (q *. float_of_int n)))

let merge os =
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 os in
  let latencies = Array.concat (List.map (fun o -> o.latencies) os) in
  Array.sort Float.compare latencies;
  { counts = Array.init (Array.length status_labels) (fun s -> sum (fun o -> o.counts.(s)));
    untyped = sum (fun o -> o.untyped);
    mismatches = sum (fun o -> o.mismatches);
    latencies;
    page_ios = sum (fun o -> o.page_ios) }

(* --- sessions and waves ---------------------------------------------------- *)

(* Immutable once returned — each domain builds its own from local state
   and the spawner only ever reads the results. *)
let play_session ?max_page_ios ?max_seconds ?(faults = false) ~oracle db sched =
  let session = Session.create ?max_page_ios ?max_seconds db in
  let texts = Array.of_list (List.map snd (mix ())) in
  let cap = Option.value max_page_ios ~default:max_int in
  let timed = Option.is_some max_seconds in
  let counts = Array.make (Array.length status_labels) 0 in
  let latencies = Array.make (Array.length sched) 0. in
  let untyped = ref 0 and mismatches = ref 0 and page_ios = ref 0 in
  Array.iteri
    (fun i slot ->
      let frame = frame ?max_page_ios ?max_seconds texts slot in
      let t0 = Storage.Monotonic.now () in
      (match play session frame with
       | [r] ->
         let s = status_index r.Wire.status in
         counts.(s) <- counts.(s) + 1;
         page_ios := !page_ios + r.Wire.page_ios;
         if not (conforms ~cap ~timed ~faults oracle texts slot r) then incr mismatches
       | [] | _ :: _ :: _ ->
         (* The loop must answer every frame exactly once; anything else
            is an untyped escape. *)
         incr untyped
       | exception (Storage.Xqdb_error.Internal _ as e) -> raise e
       | exception _ -> incr untyped);
      latencies.(i) <- Storage.Monotonic.elapsed_since t0)
    sched;
  Array.sort Float.compare latencies;
  { counts; untyped = !untyped; mismatches = !mismatches; latencies; page_ios = !page_ios }

(* Client sessions play N remote processes hammering the server, so each
   gets its own domain — outside the engine's sanctioned parallelism
   sites; a lone session stays on the calling domain. *)
let run_sessions n f =
  if n = 1 then [| f 0 |]
  else Array.map Domain.join (Array.init n (fun k -> Domain.spawn (fun () -> f k)))

(* The shared pool must be quiescent once every session has joined: zero
   pins from anyone, every frame latch idle.  The pool's bracket releases
   both on every exit path, so this checks that no session is still
   inside one; it holds in plain and sanitizing runs alike. *)
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

let wave ?max_page_ios ?max_seconds ?faults ~oracle ~after db scheds =
  let pool = Engine.pool (Database.engine db ~name:doc_name) in
  (* Cold start, so the wave really does I/O. *)
  Storage.Buffer_pool.drop_all pool;
  let ios_before = Storage.Disk.total_ios (Database.disk db) in
  let start = Storage.Monotonic.now () in
  let outcomes =
    run_sessions (Array.length scheds) (fun k ->
        play_session ?max_page_ios ?max_seconds ?faults ~oracle db scheds.(k))
  in
  let wall_seconds = Storage.Monotonic.elapsed_since start in
  assert_quiescent ~after pool;
  (outcomes, wall_seconds, Storage.Disk.total_ios (Database.disk db) - ios_before)

(* --- verdicts and rendering ------------------------------------------------ *)

let violations ~label o =
  (if o.untyped > 0 then
     [Printf.sprintf "%s: %d failure(s) escaped untyped" label o.untyped]
   else [])
  @
  if o.mismatches > 0 then
    [Printf.sprintf "%s: %d response(s) diverged from the oracle" label o.mismatches]
  else []

let render_outcome label o =
  let counts =
    Array.to_list (Array.mapi (fun s l -> Printf.sprintf "%s %d" l o.counts.(s)) status_labels)
  in
  Printf.sprintf "  %-10s %s  mismatch %d  untyped %d  p50 %.2fms  p95 %.2fms  p99 %.2fms\n"
    label (String.concat "  " counts) o.mismatches o.untyped (percentile_ms o 0.50)
    (percentile_ms o 0.95) (percentile_ms o 0.99)

let render_verdict = function
  | [] -> "  PASS: no violations\n"
  | vs -> String.concat "" (List.map (Printf.sprintf "  VIOLATION: %s\n") vs)

(* --- the traffic harness --------------------------------------------------- *)

type report = {
  sessions : int;
  requests_per_session : int;
  seed : int;
  scale : int;
  wall_seconds : float;
  throughput : float;
  per_session : outcome array;
  total : outcome;
  violations : string list;
}

let run ?max_page_ios ?max_seconds ~sessions ~requests ~seed ~scale () =
  if sessions < 1 then invalid_arg "Traffic.run: sessions must be positive";
  if requests < 1 then invalid_arg "Traffic.run: requests must be positive";
  let db = load ~scale () in
  let oracle = record_oracle db in
  let scheds = Array.init sessions (schedule ~abuse:false ~seed ~requests) in
  let per_session, wall_seconds, moved =
    wave ?max_page_ios ?max_seconds ~oracle ~after:"all traffic sessions joined" db scheds
  in
  let total = merge (Array.to_list per_session) in
  { sessions;
    requests_per_session = requests;
    seed;
    scale;
    wall_seconds;
    throughput =
      (if wall_seconds > 0. then float_of_int (requests * sessions) /. wall_seconds else 0.);
    per_session;
    total;
    violations =
      violations ~label:"traffic" total
      @
      if total.page_ios <> moved then
        [Printf.sprintf "responses report %d page I/Os but the disk moved %d" total.page_ios
           moved]
      else [] }

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "traffic: %d session(s) x %d request(s), DBLP scale %d, seed %d\n"
       r.sessions r.requests_per_session r.scale r.seed);
  Buffer.add_string buf
    (Printf.sprintf "  wall %.2fs  throughput %.1f req/s\n" r.wall_seconds r.throughput);
  Array.iteri
    (fun k o -> Buffer.add_string buf (render_outcome (Printf.sprintf "session %d" k) o))
    r.per_session;
  Buffer.add_string buf (render_outcome "all" r.total);
  Buffer.add_string buf (render_verdict r.violations);
  Buffer.contents buf
