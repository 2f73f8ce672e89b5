(* Counters read from outside the library around a timed window: the
   storage-structure registry ([Metrics]), the disks' read/write
   counters, the runtime's GC counters and the kernel's per-process I/O
   accounting.  [diff] turns two snapshots into named deltas. *)

module Storage = Xqdb_storage

type t = {
  metrics : Storage.Metrics.snapshot;
  disk_reads : int;
  disk_writes : int;
  gc : Gc.stat;
  io : (string * int) list;
}

(* "key: value" lines of a /proc/self file, values as integers. *)
let proc_fields path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | text ->
    List.filter_map
      (fun line ->
        match String.index_opt line ':' with
        | None -> None
        | Some i ->
          let key = String.sub line 0 i in
          let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          let digits = List.hd (String.split_on_char ' ' rest) in
          Option.map (fun v -> (key, v)) (int_of_string_opt digits))
      (String.split_on_char '\n' text)

let take disks =
  let reads, writes =
    List.fold_left
      (fun (r, w) d ->
        let c = Storage.Disk.counters d in
        (r + c.Storage.Disk.reads, w + c.Storage.Disk.writes))
      (0, 0) disks
  in
  { metrics = Storage.Metrics.snapshot ();
    disk_reads = reads;
    disk_writes = writes;
    gc = Gc.quick_stat ();
    io = proc_fields "/proc/self/io" }

let diff later earlier =
  let m name = float_of_int (Storage.Metrics.get later.metrics name - Storage.Metrics.get earlier.metrics name) in
  let io name =
    match (List.assoc_opt name later.io, List.assoc_opt name earlier.io) with
    | Some a, Some b -> float_of_int (a - b)
    | _ -> 0.
  in
  [ ("pool.hits", m "pool.hits");
    ("pool.misses", m "pool.misses");
    ("pool.evictions", m "pool.evictions");
    ("btree.node_reads", m "btree.node_reads");
    ("btree.splits", m "btree.splits");
    ("latch.acquisitions", m "latch.shared_acquisitions" +. m "latch.exclusive_acquisitions");
    ("latch.waits", m "latch.waits");
    ("ext_sort.runs", m "ext_sort.runs");
    ("heap.appends", m "heap.appends");
    ("wal.appends", m "wal.appends");
    ("wal.syncs", m "wal.syncs");
    ("planner.templates_built", m "planner.templates_built");
    ("planner.template_binds", m "planner.template_binds");
    ("engine.prepared_cache_hits", m "engine.prepared_cache_hits");
    ("engine.prepared_cache_evictions", m "engine.prepared_cache_evictions");
    ("server.sheds", m "server.sheds");
    ("server.wire_errors", m "server.wire_errors");
    ("disk.reads", float_of_int (later.disk_reads - earlier.disk_reads));
    ("disk.writes", float_of_int (later.disk_writes - earlier.disk_writes));
    ("gc.minor_collections",
     float_of_int (later.gc.Gc.minor_collections - earlier.gc.Gc.minor_collections));
    ("gc.major_collections",
     float_of_int (later.gc.Gc.major_collections - earlier.gc.Gc.major_collections));
    ("gc.minor_words", later.gc.Gc.minor_words -. earlier.gc.Gc.minor_words);
    ("io.wchar", io "wchar") ]

(* Deltas of several windows summed; [[]] is the empty sum. *)
let add a b = if a = [] then b else List.map2 (fun (name, x) (_, y) -> (name, x +. y)) a b

(* The process's resident-set high-water mark (VmHWM), in MB. *)
let peak_rss_mb () =
  match List.assoc_opt "VmHWM" (proc_fields "/proc/self/status") with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "peak_rss_mb: /proc/self/status has no VmHWM"

(* --- host metadata for the per-run JSON ------------------------------- *)

let read_line path =
  match In_channel.with_open_text path In_channel.input_line with
  | exception Sys_error _ -> None
  | line -> Option.map String.trim line

(* The checked-out commit, read from .git without running git; a source
   tree without .git reports "none". *)
let git_rev () =
  match read_line ".git/HEAD" with
  | None -> "none"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read_line (Filename.concat ".git" ref_) with
    | Some rev -> rev
    | None -> (
      match In_channel.with_open_text ".git/packed-refs" In_channel.input_all with
      | exception Sys_error _ -> ref_
      | packed ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [rev; name] when String.equal name ref_ -> Some rev
            | _ -> None)
          (String.split_on_char '\n' packed)
        |> Option.value ~default:ref_))
  | Some rev -> rev

(* The filesystem type of the mount holding [dir], from mountinfo: the
   longest mount point that is a prefix of the absolute path. *)
let fs_type dir =
  let abs = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  match In_channel.with_open_text "/proc/self/mountinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
    let best = ref ("", "unknown") in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | _ :: _ :: _ :: _ :: mount :: rest -> (
          let rec after_dash = function
            | "-" :: fstype :: _ -> Some fstype
            | _ :: tl -> after_dash tl
            | [] -> None
          in
          match after_dash rest with
          | Some fstype
            when String.starts_with ~prefix:mount abs
                 && String.length mount > String.length (fst !best) ->
            best := (mount, fstype)
          | _ -> ())
        | _ -> ())
      (String.split_on_char '\n' text);
    snd !best

let host ~tmp_dir =
  let module J = Xqdb_testbed.Report in
  J.Obj
    [ ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("git_rev", J.Str (git_rev ()));
      ("tmp_dir", J.Str tmp_dir);
      ("tmp_fs", J.Str (fs_type tmp_dir)) ]
