(* ingest: the write side.  A cycle creates a fresh file database with
   its write-ahead log, parses and loads a DBLP and a Treebank document,
   checkpoints, runs one verification query per document, closes,
   reopens with [Database.open_file] and runs the queries again.  Cycles
   repeat until the window is used up.

   The flush policy is the library's own: the log is synced before every
   dirty page is written back, a checkpoint runs automatically once the
   log passes about 1 MB, and each cycle checkpoints explicitly after
   loading.  The 64-frame pool is smaller than the DBLP document, so
   loading writes pages back (and syncs the log) while it runs.

   Set-up makes the inputs (both documents generated and printed) and
   the answers every cycle must reproduce, before close and after
   reopen: the verification queries over an in-memory database loaded
   from the same text. *)

module Engine = Xqdb_core.Engine
module Config = Xqdb_core.Engine_config
module Database = Xqdb_core.Database
module Storage = Xqdb_storage
module Dblp = Xqdb_workload.Dblp_gen
module Treebank = Xqdb_workload.Treebank_gen
module J = Xqdb_testbed.Report

let pool_frames = 64

let verification =
  [ ("dblp", "for $x in //article return for $t in $x/title return $t");
    ("treebank", "for $np in //NP return for $nn in $np//NN return $nn") ]

(* The verification answers ([None] for a run that did not succeed). *)
let verify ctx prof db =
  List.map
    (fun (name, text) ->
      match Outcome.run_query ctx (Database.engine db ~name) text with
      | Error _ -> None
      | Ok r ->
        Option.iter (fun p -> Outcome.add_profile p r.Engine.profile) prof;
        if r.Engine.status = Engine.Ok then Some r.Engine.output else None)
    verification

let quiescent db =
  List.for_all
    (fun (name, _) ->
      let pool = Engine.pool (Database.engine db ~name) in
      Storage.Buffer_pool.pinned_pages pool = [] && Storage.Buffer_pool.latched_pages pool = [])
    verification

(* The inputs, the answers every cycle must reproduce and the time
   printing those answers takes ([Engine.execute] prints inside its own
   time, so serialization is timed on its own, on the answers' forests). *)
let setup ~dblp_scale ~treebank_scale () =
  let docs =
    [ ("dblp", Dblp.generate_string (Dblp.scaled dblp_scale));
      ("treebank", Treebank.generate_string (Treebank.scaled treebank_scale)) ]
  in
  let db = Database.create () in
  List.iter (fun (name, xml) -> ignore (Database.load_document db ~name xml)) docs;
  let answers = verify None None db in
  let serialize_s =
    List.fold_left
      (fun acc (name, text) ->
        let forest = Engine.eval (Database.engine db ~name) (Xqdb_xq.Xq_parser.parse text) in
        let times =
          List.init 3 (fun _ ->
              snd (Clock.time (fun () -> Xqdb_xml.Xml_print.forest_to_string forest)))
        in
        acc +. Stats.median times)
      0. verification
  in
  Database.close db;
  (docs, answers, serialize_s)

type cycle = {
  load_s : float;  (* parsing and loading *)
  open_s : float;  (* [Database.open_file] *)
  reads : int;
  writes : int;
  failures : string list;
}

let disk_ios db =
  let c = Storage.Disk.counters (Database.disk db) in
  (c.Storage.Disk.reads, c.Storage.Disk.writes)

let cycle ~config ~path ~docs ~answers lane prof =
  Trace.root lane "cycle" (fun ctx ->
      Outcome.remove_file path;
      Outcome.remove_file (path ^ ".wal");
      let db = Database.create ~config ~on_file:path () in
      let (), load_s =
        Clock.time (fun () ->
            List.iter
              (fun (name, xml) ->
                let forest =
                  Trace.span ctx "xml.parse" (fun () -> Xqdb_xml.Xml_parser.parse_forest xml)
                in
                ignore (Trace.span ctx "xasr.load" (fun () -> Database.load_forest db ~name forest)))
              docs)
      in
      Trace.span ctx "database.checkpoint" (fun () -> Database.checkpoint db);
      let before = verify ctx prof db in
      let r1, w1 = disk_ios db in
      Trace.span ctx "database.close" (fun () -> Database.close db);
      let db, open_s =
        Clock.time (fun () ->
            Trace.span ctx "database.open" (fun () -> Database.open_file ~config path))
      in
      let after = verify ctx prof db in
      let idle = quiescent db in
      let r2, w2 = disk_ios db in
      Trace.span ctx "database.close" (fun () -> Database.close db);
      let check phase got =
        List.concat
          (List.map2
             (fun (name, _) (got, want) ->
               if got = want then [] else [Printf.sprintf "%s: wrong answer %s" name phase])
             verification (List.combine got answers))
      in
      { load_s;
        open_s;
        reads = r1 + r2;
        writes = w1 + w2;
        failures =
          check "before close" before @ check "after reopen" after
          @ if idle then [] else ["pool not quiescent after the verification queries"] })

let run (cfg : Outcome.config) =
  let dblp_scale, treebank_scale = if cfg.Outcome.tiny then (40, 2) else (200, 5) in
  let (docs, answers, serialize_s), setup_s =
    Outcome.repeat_setup ~release:(fun _ -> ()) (setup ~dblp_scale ~treebank_scale)
  in
  let xml_bytes = List.fold_left (fun acc (_, xml) -> acc + String.length xml) 0 docs in
  let config = { Config.m4 with Config.pool_capacity = pool_frames } in
  let path = Filename.concat cfg.Outcome.tmp_dir "ingest.db" in
  let lane = if cfg.Outcome.trace then Some (Trace.lane 0) else None in
  let prof = if cfg.Outcome.trace then Some (Outcome.profiles ()) else None in
  let cycles = ref [] and lat = ref [] and file_bytes = ref 0 and counters = ref [] in
  let busy () = List.fold_left ( +. ) 0. !lat in
  while !cycles = [] || busy () < cfg.Outcome.seconds do
    Outcome.settle ();
    let before = Probe.take [] in
    let c, dt = Clock.time (fun () -> cycle ~config ~path ~docs ~answers lane prof) in
    counters := Probe.add !counters (Probe.diff (Probe.take []) before);
    lat := dt :: !lat;
    cycles := c :: !cycles;
    file_bytes := (Unix.stat path).Unix.st_size
  done;
  let cycles = List.rev !cycles and n = List.length !lat in
  let sum f = float_of_int (List.fold_left (fun acc c -> acc + f c) 0 cycles) in
  let counters =
    (* The disks live one cycle each, so their counters are summed per cycle. *)
    List.map
      (fun (name, v) ->
        match name with
        | "disk.reads" -> (name, sum (fun c -> c.reads))
        | "disk.writes" -> (name, sum (fun c -> c.writes))
        | _ -> (name, v))
      !counters
  in
  Outcome.remove_file path;
  Outcome.remove_file (path ^ ".wal");
  let input_bytes = float_of_int (n * xml_bytes) in
  let load_s = List.fold_left (fun acc c -> acc +. c.load_s) 0. cycles in
  { Outcome.attempted = n;
    failed = List.length (List.filter (fun c -> c.failures <> []) cycles);
    gate_failures = List.concat_map (fun c -> c.failures) cycles;
    window_s = busy ();
    ops = Outcome.sequential (List.rev !lat);
    setup_s;
    space_amp = float_of_int !file_bytes /. float_of_int xml_bytes;
    root = "cycle";
    spans = (match lane with Some l -> l.Trace.spans | None -> []);
    counters;
    profiles = Option.value prof ~default:(Outcome.profiles ());
    (* The answers are printed twice a cycle: before close and after reopen. *)
    serialize_s = 2. *. serialize_s *. float_of_int n;
    results = [("io.wchar_per_input_byte", List.assoc "io.wchar" counters /. input_bytes)];
    info =
      [ ("dblp_scale", J.Int dblp_scale);
        ("treebank_scale", J.Int treebank_scale);
        ("xml_bytes", J.Int xml_bytes);
        ("data_file_bytes", J.Int !file_bytes);
        ("pool_frames", J.Int pool_frames);
        ( "flush_policy",
          J.Str
            "WAL synced before every dirty write-back; automatic checkpoint past ~1 MB of \
             log; explicit checkpoint after each cycle's loads" );
        ("cycles", J.Int n);
        ("load_mb_s", J.Float (input_bytes /. 1e6 /. load_s));
        ("reopen_s", J.Float (Stats.median (List.map (fun c -> c.open_s) cycles))) ] }
