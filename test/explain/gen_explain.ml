module Engine = Xqdb_core.Engine
module Config = Xqdb_core.Engine_config
module Planner = Xqdb_optimizer.Planner
module T = Xqdb_testbed
module W = Xqdb_workload
module S = Xqdb_storage
module Database = Xqdb_core.Database

(* The operator-profile golden: every operator's rows, batches and page
   I/Os over runs that together build every physical operator kind.
   Times are never printed, so the file is byte-stable. *)

let rec print_op indent (p : Engine.op_profile) =
  Printf.printf "%s%s%s  rows %d  batches %d  ios %d  own %d\n" indent p.Engine.op
    (if String.equal p.Engine.args "" then "" else " [" ^ p.Engine.args ^ "]")
    p.Engine.rows p.Engine.batches p.Engine.ios p.Engine.own_ios;
  List.iter (print_op (indent ^ "  ")) p.Engine.inputs

let print_cell ?max_page_ios title engine text =
  let r = Engine.run ?max_page_ios engine (Xqdb_xq.Xq_parser.parse text) in
  let status =
    match r.Engine.status with
    | Engine.Ok -> "ok"
    | Engine.Budget_exceeded _ -> "censored"
    | Engine.Timeout _ -> "timeout"
    | Engine.Error msg -> "error: " ^ msg
    | Engine.Io_error msg -> "i/o error: " ^ msg
  in
  Printf.printf "===== %s =====\n%s  page_ios %d  operators %d  other %d\n" title status
    r.Engine.page_ios r.Engine.profile.Engine.operator_ios r.Engine.profile.Engine.other_ios;
  List.iter (print_op "  ") r.Engine.profile.Engine.operators

(* The Figure-7 cells as grade-fig7 runs them at DBLP 400: each engine
   on its own fresh database, the tests in order, budgets scaled from
   60k (8k for tests 3 and 5) at DBLP 2500. *)
let fig7 () =
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled 400)] in
  let budget = function
    | "test3-semijoin" | "test5-unrelated" -> 8_000 * 400 / 2500
    | _ -> 60_000 * 400 / 2500
  in
  List.iter
    (fun config ->
      let engine = Engine.load_forest ~config forest in
      List.iter
        (fun (test, text) ->
          print_cell ~max_page_ios:(budget test)
            (Printf.sprintf "fig7 / %s / %s" config.Config.name test)
            engine text)
        T.Queries.efficiency_queries)
    Config.figure7_engines

(* Example 6 under every ordering strategy, and without indexes so the
   plans hold NL and BNL joins. *)
let example6 () =
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled 400)] in
  let base = { Config.m4 with Config.pool_capacity = 48 } in
  let no_indexes = { base.Config.planner with Planner.use_indexes = false } in
  List.iter
    (fun (name, planner) ->
      let engine = Engine.load_forest ~config:{ base with Config.planner } forest in
      print_cell ("example6 / " ^ name) engine T.Queries.example6)
    [ ("preserve", base.Config.planner);
      ("ext-sort", { base.Config.planner with Planner.order = `Ext_sort });
      ("mem-sort", { base.Config.planner with Planner.order = `Mem_sort });
      ("btree-sort", { base.Config.planner with Planner.order = `Btree_sort });
      ("no-index nl", no_indexes);
      ("no-index mem-sort", { no_indexes with Planner.order = `Mem_sort }) ]

(* The structural operators: staircase joins and twig matching. *)
let deep () =
  let forest = [W.Treebank_gen.generate (W.Treebank_gen.scaled 25)] in
  let config = { Config.m4 with Config.pool_capacity = 16 } in
  List.iter
    (fun (name, text) ->
      print_cell ("deep / m4 / " ^ name) (Engine.load_forest ~config forest) text)
    T.Queries.deep_queries

(* The load golden: what loading leaves on disk and in the log, and the
   I/O it took.  A storage change that claims to leave every page byte
   unchanged must keep this file identical.  Pool hits and latch counts
   are left out: they fall when a redundant re-pin is dropped. *)
let load_counters =
  [ "pool.misses"; "pool.evictions"; "disk.reads"; "disk.writes"; "wal.appends";
    "wal.syncs"; "btree.splits"; "btree.node_reads"; "btree.inserts" ]

let print_load title ~counters disk =
  let pages = S.Disk.page_count disk in
  let digest =
    Digest.string
      (String.concat "" (List.init pages (fun id -> Bytes.to_string (S.Disk.read_page_raw disk id))))
  in
  Printf.printf "===== load / %s =====\npages %d  md5 %s\n" title pages (Digest.to_hex digest);
  List.iter
    (fun name -> Printf.printf "  %s %d\n" name (S.Metrics.get counters name))
    load_counters

(* The log's digest: every committed after-image, in LSN order.  The
   automatic checkpoint truncates the log during the load, so the
   durable log is read at every page write: a write-back always follows
   the sync that logged it, so no group is missed. *)
let digest_wal disk wal =
  let buf = Buffer.create 4096 and seen = ref 0 and records = ref 0 in
  let collect () =
    ignore
      (S.Wal.replay wal ~apply:(fun ~lsn ~page_id data ->
           if lsn > !seen then begin
             seen := lsn;
             incr records;
             Buffer.add_string buf (Printf.sprintf "%d %d " lsn page_id);
             Buffer.add_bytes buf data
           end))
  in
  S.Disk.set_injector disk
    (Some
       (fun op _ ->
         (match op with
          | S.Disk.Write -> collect ()
          | S.Disk.Read | S.Disk.Alloc -> ());
         S.Disk.No_fault));
  fun () ->
    S.Disk.set_injector disk None;
    collect ();
    Printf.sprintf "wal records %d  md5 %s\n" !records
      (Digest.to_hex (Digest.string (Buffer.contents buf)))

let scoped f =
  let scope = S.Metrics.scope () in
  let r = S.Metrics.with_scope scope f in
  (r, S.Metrics.scope_snapshot scope)

(* The Figure-7 load (DBLP 400 into a 48-frame in-memory pool), and an
   ingest-like one: DBLP 200 and Treebank 5 through a 64-frame pool,
   write-ahead logged, then checkpointed. *)
let load () =
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled 400)] in
  let config = { Config.m4 with Config.pool_capacity = 48 } in
  let engine, counters = scoped (fun () -> Engine.load_forest ~config forest) in
  let pool = Engine.pool engine in
  S.Buffer_pool.flush_all pool;
  print_load "fig7 dblp 400, 48 frames" ~counters (S.Buffer_pool.disk pool);
  let docs =
    [ ("dblp", W.Dblp_gen.generate (W.Dblp_gen.scaled 200));
      ("treebank", W.Treebank_gen.generate (W.Treebank_gen.scaled 5)) ]
  in
  let disk = S.Disk.in_memory () in
  let wal = S.Wal.in_memory () in
  let wal_digest = digest_wal disk wal in
  let config = { Config.m4 with Config.pool_capacity = 64 } in
  let (), counters =
    scoped (fun () ->
        let db = Database.create_on ~config ~wal disk in
        List.iter (fun (name, doc) -> ignore (Database.load_forest db ~name [doc])) docs;
        Database.checkpoint db)
  in
  let wal_line = wal_digest () in
  print_load "ingest dblp 200 + treebank 5, 64 frames, logged" ~counters disk;
  print_string wal_line

let () =
  match Sys.argv with
  | [| _; "profiles" |] ->
    fig7 ();
    example6 ();
    deep ()
  | [| _; "load" |] -> load ()
  | [| _; name |] -> (
    match T.Explain_suite.render name with
    | Ok text -> print_string text
    | Error msg ->
      prerr_endline msg;
      exit 1)
  | _ ->
    prerr_endline "usage: gen_explain <m1|m2|m3|m4|structural|profiles|load>";
    exit 1
