(* serve-hot and serve-cold: closed-loop clients against the query
   server.

   Untraced, the server is [Server.serve] on a loopback port inside this
   process and two client threads each hold one TCP connection, sending
   their next request as soon as the previous answer arrives.  Traced,
   two domains replay the same seeded request streams in-process through
   the chain of public calls a request passes through, with a span
   around each call: the wire codec, the XQ parser and checker, compile,
   execute.

   serve-hot's document fits the default pool and its six query texts
   stay in every plan cache; serve-cold's document is several times the
   pool and half its requests are parameterized texts drawn from more
   distinct values than a plan cache holds. *)

module Engine = Xqdb_core.Engine
module Config = Xqdb_core.Engine_config
module Database = Xqdb_core.Database
module Server = Xqdb_server.Server
module Session = Xqdb_server.Session
module Wire = Xqdb_server.Wire
module Queries = Xqdb_testbed.Queries
module Storage = Xqdb_storage
module Dblp = Xqdb_workload.Dblp_gen
module Tree = Xqdb_xml.Xml_tree
module J = Xqdb_testbed.Report

type variant =
  | Hot
  | Cold

let doc = "dblp"
let clients = 2

(* The traffic harness's mix: the five efficiency queries plus the
   Section-2 example. *)
let fixed = Array.of_list (Queries.efficiency_queries @ [("example6", Queries.example6)])

(* --- serve-cold's parameterized templates ------------------------------ *)

let author_eq v =
  Printf.sprintf
    "for $a in //author return for $t in $a/text() return if ($t = \"%s\") then $a else ()" v

let volume_eq v =
  Printf.sprintf
    "for $x in //article return for $v in $x/volume return for $t in $v/text() return if ($t \
     = \"%s\") then $x/title else ()"
    v

let year_titles v =
  Printf.sprintf
    "for $p in //inproceedings return for $y in $p/year return for $t in $y/text() return if \
     ($t = \"%s\") then $p/title else ()"
    v

(* Distinct texts of [child] elements directly under [parent] elements. *)
let values forest ~parent ~child =
  let acc = Hashtbl.create 64 in
  let rec walk = function
    | Tree.Text _ -> ()
    | Tree.Elem (label, kids) ->
      if String.equal label parent then
        List.iter
          (function
            | Tree.Elem (l, [Tree.Text v]) when String.equal l child -> Hashtbl.replace acc v ()
            | _ -> ())
          kids;
      List.iter walk kids
  in
  List.iter walk forest;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) acc [])

(* Zipf(1.0) over the values in a seeded rank order. *)
type zipf = {
  ranked : string array;
  cdf : float array;
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let zipf rng values =
  let ranked = Array.of_list values in
  let n = Array.length ranked in
  shuffle rng ranked;
  let cdf = Array.make n 0. in
  let total = ref 0. in
  Array.iteri
    (fun i _ ->
      total := !total +. (1. /. float_of_int (i + 1));
      cdf.(i) <- !total)
    cdf;
  Array.iteri (fun i c -> cdf.(i) <- c /. !total) cdf;
  { ranked; cdf }

let draw z rng =
  let u = Random.State.float rng 1.0 in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if z.cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  z.ranked.(search 0 (Array.length z.ranked - 1))

type templates = {
  authors : zipf;
  volumes : zipf;
  years : zipf;
}

let templates seed forest =
  let rng = Random.State.make [| seed; 0x21bf |] in
  let authors = zipf rng (values forest ~parent:"article" ~child:"author") in
  let volumes = zipf rng (values forest ~parent:"article" ~child:"volume") in
  let years = zipf rng (values forest ~parent:"inproceedings" ~child:"year") in
  { authors; volumes; years }

type slot =
  | Fixed of int
  | Author
  | Volume
  | Year

(* One block of a client's schedule.  serve-hot sends each fixed text
   once per block; serve-cold's 60-slot block is half fixed texts (5
   each) and otherwise author (25%), volume (20%) and year (5%)
   templates.  Whole blocks keep every run's mix exactly the same. *)
let block variant =
  let fixed_slots n =
    List.concat (List.init n (fun _ -> List.init (Array.length fixed) (fun i -> Fixed i)))
  in
  match variant with
  | Hot -> fixed_slots 1
  | Cold ->
    fixed_slots 5 @ List.init 15 (fun _ -> Author) @ List.init 12 (fun _ -> Volume)
    @ List.init 3 (fun _ -> Year)

(* Client [k]'s request stream of (kind, text): seeded shuffles of the
   block, with template constants drawn Zipf from the document. *)
let stream variant templates ~seed k =
  let rng = Random.State.make [| seed; k; 0x5e7e |] in
  let slots = Array.of_list (block variant) in
  let next = ref (Array.length slots) in
  fun () ->
    if !next = Array.length slots then begin
      shuffle rng slots;
      next := 0
    end;
    let slot = slots.(!next) in
    incr next;
    match (slot, templates) with
    | Fixed i, _ -> fixed.(i)
    | Author, Some t -> ("author-eq", author_eq (draw t.authors rng))
    | Volume, Some t -> ("volume-eq", volume_eq (draw t.volumes rng))
    | Year, Some t -> ("year-titles", year_titles (draw t.years rng))
    | (Author | Volume | Year), None -> invalid_arg "Serve.stream: templates need a document"

let request text =
  { Wire.doc; query_text = text; max_page_ios = None; max_seconds = None; deadline = None }

(* --- per-client state and the closed loop ----------------------------- *)

type client = {
  lat : Outcome.Samples.t;
  ends : Outcome.Samples.t;  (* completion instants, from the window's start *)
  by_kind : (string, Outcome.Samples.t) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : int;
  mutable errors : string list;
  mutable last_end : float;
  mutable engine_s : float;  (* summed server-side [elapsed] *)
  mutable client_s : float;  (* summed client-observed latency *)
  mutable minor_words : float;  (* allocated by this thread's domain while timed *)
  counts : (string, int) Hashtbl.t;  (* timed requests per text *)
  seen : (string, Wire.status_code * Digest.t) Hashtbl.t;
      (* first answer to each parameterized text *)
  lane : Trace.lane;
  prof : Outcome.profiles;
}

let client k =
  { lat = Outcome.Samples.create ();
    ends = Outcome.Samples.create ();
    by_kind = Hashtbl.create 16;
    attempted = 0;
    failed = 0;
    mismatches = 0;
    errors = [];
    last_end = 0.;
    engine_s = 0.;
    client_s = 0.;
    minor_words = 0.;
    counts = Hashtbl.create 64;
    seen = Hashtbl.create 256;
    lane = Trace.lane k;
    prof = Outcome.profiles () }

(* Fixed texts must match the set-up oracle exactly; a parameterized
   text must get the same answer every time (and, after the run, the
   same answer again from a fresh sequential session). *)
let matches st ~oracle text (resp : Wire.response) =
  match Hashtbl.find_opt oracle text with
  | Some (status, payload) -> status = resp.Wire.status && String.equal payload resp.Wire.payload
  | None -> (
    let answer = (resp.Wire.status, Digest.string resp.Wire.payload) in
    match Hashtbl.find_opt st.seen text with
    | None ->
      Hashtbl.add st.seen text answer;
      true
    | Some first -> first = answer)

(* The closed loop: [send ~timed text] performs one request; requests
   started before [t_warm] warm caches and are checked but not timed. *)
let drive st ~next ~oracle ~t_warm ~t_end send =
  let words_at_warm = ref None in
  let rec loop () =
    if Clock.now () < t_end then begin
      let kind, text = next () in
      let t0 = Clock.now () in
      let timed = t0 >= t_warm in
      if timed && !words_at_warm = None then words_at_warm := Some (Gc.minor_words ());
      match send ~timed text with
      | Error msg -> st.errors <- msg :: st.errors
      | Ok (resp : Wire.response) ->
        let t1 = Clock.now () in
        let same = matches st ~oracle text resp in
        if not same then st.mismatches <- st.mismatches + 1;
        if timed then begin
          Outcome.Samples.add st.lat (t1 -. t0);
          Outcome.Samples.add st.ends (t1 -. t_warm);
          (match Hashtbl.find_opt st.by_kind kind with
           | Some s -> Outcome.Samples.add s (t1 -. t0)
           | None ->
             let s = Outcome.Samples.create () in
             Outcome.Samples.add s (t1 -. t0);
             Hashtbl.add st.by_kind kind s);
          st.attempted <- st.attempted + 1;
          if (not same) || resp.Wire.status <> Wire.Ok then st.failed <- st.failed + 1;
          st.last_end <- t1;
          st.engine_s <- st.engine_s +. resp.Wire.elapsed;
          st.client_s <- st.client_s +. (t1 -. t0);
          Hashtbl.replace st.counts text
            (1 + Option.value ~default:0 (Hashtbl.find_opt st.counts text))
        end;
        loop ()
    end
  in
  (try loop () with e -> st.errors <- Printexc.to_string e :: st.errors);
  Option.iter (fun w0 -> st.minor_words <- Gc.minor_words () -. w0) !words_at_warm

(* --- untraced: real sockets against an in-process server ---------------- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let over_socket fd ~timed:_ text =
  let frame = Wire.encode_request (request text) in
  ignore (Unix.write fd frame 0 (Bytes.length frame));
  match Wire.read_response ~read:(fun b off len -> Unix.read fd b off len) with
  | Ok resp -> Ok resp
  | Error e -> Error ("wire: " ^ Wire.error_to_string e)

let run_sockets db ~nexts ~oracle ~warmup ~seconds =
  let port = Atomic.make 0 in
  let config =
    { Server.default_config with port = 0; max_sessions = clients; queue_timeout = 60. }
  in
  let server = Domain.spawn (fun () -> Server.serve ~on_ready:(Atomic.set port) config db) in
  let give_up = Clock.now () +. 10. in
  while Atomic.get port = 0 && Clock.now () < give_up do
    Unix.sleepf 0.001
  done;
  if Atomic.get port = 0 then failwith "serve: the server did not start listening";
  let port = Atomic.get port in
  let t_warm = Clock.now () +. warmup in
  let t_end = t_warm +. seconds in
  let states = List.init clients client in
  let threads =
    List.mapi
      (fun k st ->
        Thread.create
          (fun () ->
            let fd = connect port in
            drive st ~next:(List.nth nexts k) ~oracle ~t_warm ~t_end (over_socket fd);
            Unix.close fd)
          ())
      states
  in
  List.iter Thread.join threads;
  (* Drain: a shutdown frame on a fresh connection; [serve] returns
     after its final checkpoint. *)
  let fd = connect port in
  let frame = Wire.encode_shutdown () in
  ignore (Unix.write fd frame 0 (Bytes.length frame));
  Unix.close fd;
  Domain.join server;
  (states, t_warm)

(* --- traced: the same streams through the public calls, in-process ------ *)

let wire_status = function
  | Engine.Ok -> Wire.Ok
  | Engine.Budget_exceeded _ -> Wire.Budget_exceeded
  | Engine.Timeout _ -> Wire.Timeout
  | Engine.Error _ -> Wire.Error
  | Engine.Io_error _ -> Wire.Io_error

let traced_request st view ~timed text =
  Trace.root (if timed then Some st.lane else None) "request" (fun ctx ->
      let span name f = Trace.span ctx name f in
      let frame =
        span "wire.encode_request" (fun () ->
            Bytes.unsafe_to_string (Wire.encode_request (request text)))
      in
      match span "wire.read_request" (fun () -> Wire.read_request ~read:(Wire.string_reader frame)) with
      | Error e -> Error ("wire: " ^ Wire.error_to_string e)
      | Ok req -> (
        match Outcome.run_query ctx view req.Wire.query_text with
        | Error msg -> Error msg
        | Ok r -> (
          if timed then Outcome.add_profile st.prof r.Engine.profile;
          let resp =
            { Wire.status = wire_status r.Engine.status;
              payload = r.Engine.output;
              elapsed = r.Engine.elapsed;
              page_ios = r.Engine.page_ios;
              retry_after = None }
          in
          let frame =
            span "wire.encode_response" (fun () -> Bytes.unsafe_to_string (Wire.encode_response resp))
          in
          match
            span "wire.read_response" (fun () -> Wire.read_response ~read:(Wire.string_reader frame))
          with
          | Ok resp -> Ok resp
          | Error e -> Error ("wire: " ^ Wire.error_to_string e))))

let run_traced db ~nexts ~oracle ~warmup ~seconds =
  let base = Database.engine db ~name:doc in
  let t_warm = Clock.now () +. warmup in
  let t_end = t_warm +. seconds in
  let domains =
    List.mapi
      (fun k next ->
        Domain.spawn (fun () ->
            let st = client k in
            let view = Engine.session base in
            drive st ~next ~oracle ~t_warm ~t_end (traced_request st view);
            st))
      nexts
  in
  Clock.sleep_until t_warm;
  let before = Probe.take [Database.disk db] in
  let states = List.map Domain.join domains in
  let counters = Probe.diff (Probe.take [Database.disk db]) before in
  (* Minor-heap allocation is counted per domain: the clients', not this
     idle one's. *)
  let words = List.fold_left (fun acc st -> acc +. st.minor_words) 0. states in
  let counters =
    List.map (fun (name, v) -> if name = "gc.minor_words" then (name, words) else (name, v)) counters
  in
  (states, t_warm, counters)

(* --- set-up, gates, and the outcome ------------------------------------ *)

(* serve-cold's pool: the 48 frames the Figure-7 engines get, the
   paper's memory cap. *)
let cold_config = { Config.m4 with Config.pool_capacity = Config.engine1.Config.pool_capacity }

let load variant path forest =
  match variant with
  | Hot ->
    let db = Database.create () in
    ignore (Database.load_forest db ~name:doc forest);
    db
  | Cold ->
    (* Written once, then reopened, so the window starts with a cold
       pool over a real file.  The load runs with a pool that holds the
       whole document: a file disk can serve a page written back during
       the load from a stale read buffer (see README.md, open findings). *)
    Outcome.remove_file path;
    let db =
      Database.create_on
        ~config:{ cold_config with Config.pool_capacity = 4096 }
        (Storage.Disk.on_file path)
    in
    ignore (Database.load_forest db ~name:doc forest);
    Database.close db;
    Database.open_disk ~config:cold_config (Storage.Disk.open_existing path)

(* One sequential session answers every fixed text before the run. *)
let oracle db =
  let session = Session.create db in
  let table = Hashtbl.create 8 in
  Array.iter
    (fun (_, text) ->
      let r = Session.handle session (request text) in
      Hashtbl.replace table text (r.Wire.status, r.Wire.payload))
    fixed;
  table

(* Every parameterized text seen, replayed by a fresh sequential session
   after the run: status and payload digest must match what the clients
   got, and the clients must agree with each other.  Returns the number
   of distinct texts and of disagreements. *)
let replay db states =
  let merged = Hashtbl.create 256 in
  let disagreements = ref 0 in
  List.iter
    (fun st ->
      Hashtbl.iter
        (fun text answer ->
          match Hashtbl.find_opt merged text with
          | Some first when first <> answer -> incr disagreements
          | Some _ -> ()
          | None -> Hashtbl.add merged text answer)
        st.seen)
    states;
  let session = Session.create db in
  Hashtbl.iter
    (fun text answer ->
      let r = Session.handle session (request text) in
      if (r.Wire.status, Digest.string r.Wire.payload) <> answer then incr disagreements)
    merged;
  (Hashtbl.length merged, !disagreements)

(* Serialization is inside [Engine.execute]'s time, so it is timed on
   its own: [forest_to_string] on each distinct text's result forest,
   weighted by how often the window sent that text. *)
let serialize_seconds db states =
  let view = Engine.session (Database.engine db ~name:doc) in
  let counts = Hashtbl.create 256 in
  List.iter
    (fun st ->
      Hashtbl.iter
        (fun text n ->
          Hashtbl.replace counts text (n + Option.value ~default:0 (Hashtbl.find_opt counts text)))
        st.counts)
    states;
  Hashtbl.fold
    (fun text n acc ->
      let forest = Engine.eval view (Xqdb_xq.Xq_parser.parse text) in
      let times =
        List.init 3 (fun _ ->
            snd (Clock.time (fun () -> Xqdb_xml.Xml_print.forest_to_string forest)))
      in
      acc +. (float_of_int n *. Stats.median times))
    counts 0.

(* Requests and latency quartiles per query kind, over both clients. *)
let by_kind states =
  let kinds =
    List.sort_uniq compare
      (List.concat_map (fun st -> Hashtbl.fold (fun k _ acc -> k :: acc) st.by_kind []) states)
  in
  List.map
    (fun kind ->
      let lat =
        Stats.sorted
          (Array.concat
             (List.filter_map
                (fun st -> Option.map Outcome.Samples.to_array (Hashtbl.find_opt st.by_kind kind))
                states))
      in
      ( kind,
        J.Obj
          [ ("requests", J.Int (Array.length lat));
            ("p25_ms", J.Float (1e3 *. Stats.percentile lat 0.25));
            ("p50_ms", J.Float (1e3 *. Stats.percentile lat 0.50));
            ("p75_ms", J.Float (1e3 *. Stats.percentile lat 0.75));
            ("p99_ms", J.Float (1e3 *. Stats.percentile lat 0.99)) ] ))
    kinds

let run variant (cfg : Outcome.config) =
  let scale =
    match (variant, cfg.Outcome.tiny) with
    | _, true -> 60
    | Hot, false -> 400
    | Cold, false -> 1000
  in
  let forest = [Dblp.generate (Dblp.scaled scale)] in
  let xml_bytes = String.length (Xqdb_xml.Xml_print.forest_to_string forest) in
  let path = Filename.concat cfg.Outcome.tmp_dir "serve-cold.db" in
  let db, setup_s =
    Outcome.repeat_setup ~release:Database.close (fun () -> load variant path forest)
  in
  let disk = Database.disk db in
  let pages = Storage.Disk.page_count disk in
  let pool_frames = Storage.Buffer_pool.capacity (Engine.pool (Database.engine db ~name:doc)) in
  let space_amp =
    float_of_int (pages * Storage.Disk.page_size disk) /. float_of_int xml_bytes
  in
  let oracle = oracle db in
  let templates =
    match variant with
    | Hot -> None
    | Cold -> Some (templates cfg.Outcome.seed forest)
  in
  let nexts = List.init clients (stream variant templates ~seed:cfg.Outcome.seed) in
  let warmup = cfg.Outcome.warmup and seconds = cfg.Outcome.seconds in
  Outcome.settle ();
  let before = Probe.take [] in
  let states, t_warm, counters =
    if cfg.Outcome.trace then run_traced db ~nexts ~oracle ~warmup ~seconds
    else
      let states, t_warm = run_sockets db ~nexts ~oracle ~warmup ~seconds in
      (states, t_warm, [])
  in
  let server = Probe.diff (Probe.take []) before in
  let distinct, disagreements = replay db states in
  let serialize_s = if cfg.Outcome.trace then serialize_seconds db states else 0. in
  Database.close db;
  if variant = Cold then Outcome.remove_file path;
  let sum f = List.fold_left (fun acc st -> acc +. f st) 0. states in
  let mismatches = int_of_float (sum (fun st -> float_of_int st.mismatches)) in
  let sheds = List.assoc "server.sheds" server +. List.assoc "server.wire_errors" server in
  let gate_failures =
    List.concat_map (fun st -> st.errors) states
    @ (if mismatches > 0 then [Printf.sprintf "%d responses differ from the oracle" mismatches]
       else [])
    @ (if disagreements > 0 then
         [Printf.sprintf "%d parameterized answers differ on replay" disagreements]
       else [])
    @ if sheds > 0. then [Printf.sprintf "%.0f connections shed or refused" sheds] else []
  in
  let ops =
    Array.concat
      (List.map
         (fun st ->
           Array.map2 (fun e l -> (e, l)) (Outcome.Samples.to_array st.ends)
             (Outcome.Samples.to_array st.lat))
         states)
  in
  { Outcome.attempted = int_of_float (sum (fun st -> float_of_int st.attempted));
    failed = int_of_float (sum (fun st -> float_of_int st.failed));
    gate_failures;
    window_s = List.fold_left (fun acc st -> Float.max acc st.last_end) t_warm states -. t_warm;
    ops;
    setup_s;
    space_amp;
    root = "request";
    spans = List.concat_map (fun st -> st.lane.Trace.spans) states;
    counters;
    profiles = Outcome.merge_profiles (List.map (fun st -> st.prof) states);
    serialize_s;
    results = [];
    info =
      [ ("dblp_scale", J.Int scale);
        ("xml_bytes", J.Int xml_bytes);
        ("pages", J.Int pages);
        ("pool_frames", J.Int pool_frames);
        ("backing", J.Str (match variant with Hot -> "memory" | Cold -> "file"));
        ("clients", J.Int clients);
        ("loop", J.Str "closed, no think time");
        ("warmup_s", J.Float warmup);
        ("samples", J.Int (Array.length ops));
        ("distinct_parameterized_texts", J.Int distinct);
        ( "engine_share",
          J.Float (sum (fun st -> st.engine_s) /. Float.max 1e-9 (sum (fun st -> st.client_s))) );
        ("by_kind", J.Obj (by_kind states)) ] }
