(* What one workload run hands back, and the two metric sets computed
   from it: the end-to-end metrics of an untraced run and the per-layer
   metrics of a traced one.  Every workload reports every metric.

   A per-layer time is reported in microseconds per operation only for
   the layers every workload crosses (XQ parse and check, compile,
   execute, serialization); a layer only some workloads cross (the wire
   codec, XML parsing, loading, checkpoint, reopen, each operator kind)
   is reported as its share of the traced operations' time, which reads
   0 where the layer is not on the path.  Counts are per operation: a
   request (serve-hot, serve-cold), a grading pass of 25 cells
   (grade-fig7) or a load-and-reopen cycle (ingest). *)

module J = Xqdb_testbed.Report
module Engine = Xqdb_core.Engine

type config = {
  seed : int;
  seconds : float;  (* the timed window *)
  warmup : float;  (* untimed load before the window (serve-* only) *)
  trace : bool;
  tiny : bool;  (* smoke-test scale *)
  tmp_dir : string;  (* where file-backed databases live *)
}

(* --- operator profiles ------------------------------------------------- *)

(* The operator kinds per-layer time is reported for.  Variants of one
   algorithm share a kind: semi-joins with their join, products with the
   nested-loop join, every sort strategy with "sort". *)
let kinds =
  ["scan"; "idx-scan"; "nl-join"; "inl-join"; "struct-join"; "filter"; "project"; "sort";
   "materialize"; "other"]

let kind op =
  let word = List.hd (String.split_on_char ' ' op) in
  let word =
    if String.starts_with ~prefix:"semi-" word then String.sub word 5 (String.length word - 5)
    else word
  in
  match word with
  | "scan" | "par-scan" -> "scan"
  | "idx-scan" | "sidx-scan" -> "idx-scan"
  | "nl-join" | "product" | "bnl-join" | "bnl-product" -> "nl-join"
  | "inl-join" -> "inl-join"
  | "struct-join" | "twig-match" -> "struct-join"
  | "filter" | "project" | "materialize" -> word
  | "sort" | "ext-sort" | "btree-sort" -> "sort"
  | _ -> "other"

type profiles = {
  mutable other_ios : int;
  mutable rows : int;
  mutable batches : int;
  own : (string, float) Hashtbl.t;  (* kind -> own seconds *)
}

let profiles () = { other_ios = 0; rows = 0; batches = 0; own = Hashtbl.create 16 }

let add_own tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let add_profile acc (p : Engine.profile) =
  let rec walk (op : Engine.op_profile) =
    add_own acc.own (kind op.Engine.op) op.Engine.own_seconds;
    acc.rows <- acc.rows + op.Engine.rows;
    acc.batches <- acc.batches + op.Engine.batches;
    List.iter walk op.Engine.inputs
  in
  acc.other_ios <- acc.other_ios + p.Engine.other_ios;
  List.iter walk p.Engine.operators

let merge_profiles parts =
  let acc = profiles () in
  List.iter
    (fun p ->
      acc.other_ios <- acc.other_ios + p.other_ios;
      acc.rows <- acc.rows + p.rows;
      acc.batches <- acc.batches + p.batches;
      Hashtbl.iter (add_own acc.own) p.own)
    parts;
  acc

(* --- the outcome -------------------------------------------------------- *)

type t = {
  attempted : int;  (* operations attempted in the timed window *)
  failed : int;  (* of those, the ones that failed *)
  gate_failures : string list;  (* correctness gates that did not hold *)
  window_s : float;
  ops : (float * float) array;
      (* one per operation in the window: when it ended, in seconds from
         the window's start, and how long it took *)
  setup_s : float list;  (* one sample per repeated set-up *)
  space_amp : float;  (* stored bytes per input XML byte *)
  root : string;  (* the name of the per-operation root span *)
  spans : Trace.span list;  (* traced runs only, as the rest below *)
  counters : (string * float) list;  (* {!Probe.diff} over the window *)
  profiles : profiles;
  serialize_s : float;  (* serialization time attributable to the window's ops *)
  results : (string * float) list;  (* workload-specific per-layer results *)
  info : (string * J.json) list;  (* sizes, policies and details for the JSON *)
}

(* Per-layer results only some workloads produce; 0 elsewhere. *)
let result_metrics = ["fig7.page_ios"; "fig7.censored_cells"; "io.wchar_per_input_byte"]

(* Operations run one at a time end when the ones before them have
   taken their time. *)
let sequential latencies =
  let t = ref 0. in
  Array.of_list
    (List.map
       (fun dt ->
         t := !t +. dt;
         (!t, dt))
       latencies)

(* The window cut into [stretches] consecutive parts holding equal
   numbers of operations; each part's throughput and sorted latencies.
   Throughput and latency are reported as the median over the parts, so
   a burst of interference from outside the process moves one part and
   not the result. *)
let stretches = 5

let parts ops =
  let ops = Array.copy ops in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) ops;
  let n = Array.length ops in
  let k = min stretches n in
  List.init k (fun g ->
      let lo = g * n / k and hi = (g + 1) * n / k in
      let start = if lo = 0 then 0. else fst ops.(lo - 1) in
      ( float_of_int (hi - lo) /. Float.max 1e-9 (fst ops.(hi - 1) -. start),
        Stats.sorted (Array.init (hi - lo) (fun i -> snd ops.(lo + i))) ))

let end_to_end o =
  let parts = parts o.ops in
  let median f = Stats.median (List.map f parts) in
  [ ("throughput_ops_s", median fst);
    ("latency_p50_ms", median (fun (_, lat) -> 1e3 *. Stats.percentile lat 0.50));
    ("latency_p99_ms", median (fun (_, lat) -> 1e3 *. Stats.percentile lat 0.99));
    ("setup_s", Stats.median o.setup_s);
    ("peak_rss_mb", Probe.peak_rss_mb ());
    ("space_amp", o.space_amp) ]

let per_layer o =
  let s = Trace.summarize o.spans in
  let ops = float_of_int (max 1 s.Trace.roots) in
  let c name = Option.value ~default:0. (List.assoc_opt name o.counters) in
  let per name = c name /. ops in
  let ratio a b = if b = 0. then 0. else a /. b in
  let self names = List.fold_left (fun acc n -> acc +. Trace.self_ns s n) 0. names in
  let us names = self names /. 1e3 /. ops in
  let share names = ratio (self names) s.Trace.root_ns in
  let own k = Option.value ~default:0. (Hashtbl.find_opt o.profiles.own k) in
  [ ( "wire.codec_share",
      share ["wire.encode_request"; "wire.read_request"; "wire.encode_response"; "wire.read_response"] );
    ("xq.parse_us_per_op", us ["xq.parse"]);
    ("xq.check_us_per_op", us ["xq.check"]);
    ("core.compile_us_per_op", us ["core.compile"]);
    ("core.execute_us_per_op", us ["core.execute"]);
    ( "core.plan_cache_hit_ratio",
      ratio (c "engine.prepared_cache_hits") (float_of_int (Trace.count s "core.compile")) );
    ("core.plan_cache_evictions_per_op", per "engine.prepared_cache_evictions");
    ("core.other_ios_per_op", float_of_int o.profiles.other_ios /. ops);
    ("planner.templates_built_per_op", per "planner.templates_built");
    ("planner.template_binds_per_op", per "planner.template_binds");
    ( "physical.rows_per_batch",
      ratio (float_of_int o.profiles.rows) (float_of_int o.profiles.batches) ) ]
  @ List.map
      (fun k -> (Printf.sprintf "physical.%s.share" k, ratio (own k *. 1e9) s.Trace.root_ns))
      kinds
  @ [ ("xml.serialize_us_per_op", o.serialize_s *. 1e6 /. ops);
      ("xml.parse_share", share ["xml.parse"]);
      ("xasr.load_share", share ["xasr.load"]);
      ("database.checkpoint_share", share ["database.checkpoint"]);
      ("database.reopen_share", share ["database.open"]);
      ("pool.hit_ratio", ratio (c "pool.hits") (c "pool.hits" +. c "pool.misses"));
      ("pool.misses_per_op", per "pool.misses");
      ("pool.evictions_per_op", per "pool.evictions");
      ("disk.reads_per_op", per "disk.reads");
      ("disk.writes_per_op", per "disk.writes");
      ("btree.node_reads_per_op", per "btree.node_reads");
      ("btree.splits_per_op", per "btree.splits");
      ("latch.acquisitions_per_op", per "latch.acquisitions");
      ("latch.waits_per_op", per "latch.waits");
      ("ext_sort.runs_per_op", per "ext_sort.runs");
      ("heap.appends_per_op", per "heap.appends");
      ("wal.appends_per_op", per "wal.appends");
      ("wal.syncs_per_op", per "wal.syncs");
      ("gc.minor_collections_per_op", per "gc.minor_collections");
      ("gc.major_collections_per_op", per "gc.major_collections");
      ("gc.minor_words_per_op", per "gc.minor_words");
      ("trace.unattributed_share", Trace.unattributed s o.root);
      ("trace.throughput_ops_s", Stats.median (List.map fst (parts o.ops))) ]
  @ List.map
      (fun name -> (name, Option.value ~default:0. (List.assoc_opt name o.results)))
      result_metrics

(* Correct when every gate held and no operation failed. *)
let correct o = o.gate_failures = [] && o.failed = 0

(* Growable float buffer for latency samples. *)
module Samples = struct
  type t = {
    mutable data : float array;
    mutable len : int;
  }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* Every timed stretch starts from the same heap: the garbage before it
   collected and the heap compacted.  Without this, where earlier work
   left the major heap decides when major cycles land in the window,
   and serve-hot's throughput wanders by several percent between runs. *)
let settle () = Gc.compact ()

(* Set up [setup_reps] times from a settled heap, timing each; every
   result but the last is released (untimed).  Returns the last result
   and the times, whose median is the reported set-up time. *)
let setup_reps = 9

let repeat_setup ~release f =
  let rec go i times =
    settle ();
    let r, dt = Clock.time f in
    if i = setup_reps then (r, List.rev (dt :: times))
    else begin
      release r;
      go (i + 1) (dt :: times)
    end
  in
  go 1 []

let remove_file path = if Sys.file_exists path then Sys.remove path

(* One query text through the public calls every workload shares, with
   a span around each: parse, check, compile, execute. *)
let run_query ctx ?max_page_ios engine text =
  match Trace.span ctx "xq.parse" (fun () -> Xqdb_xq.Xq_parser.parse_result text) with
  | Error msg -> Error ("parse: " ^ msg)
  | Ok query -> (
    match Trace.span ctx "xq.check" (fun () -> Xqdb_xq.Xq_check.check query) with
    | Error e -> Error ("check: " ^ Xqdb_xq.Xq_check.error_to_string e)
    | Ok () ->
      let prepared = Trace.span ctx "core.compile" (fun () -> Engine.compile engine query) in
      Ok (Trace.span ctx "core.execute" (fun () -> Engine.execute ?max_page_ios engine prepared)))
