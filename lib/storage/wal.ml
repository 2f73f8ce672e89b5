(* A redo-only physical write-ahead log, written in atomic groups.

   Records are page after-images.  The buffer pool logs at sync time:
   before a dirty frame is written back it appends one after-image for
   every dirty page not yet logged, then syncs.  Each sync makes its
   pending records durable as one group, closed by a commit record, and
   recovery applies a group only once its commit record verifies.  A
   page therefore costs one record per sync however often it changed
   in between, and a sync that is torn part-way loses exactly its own
   group: a surviving prefix of a group could make one page durable
   (say, the catalog) without the pages it points to.

   Recovery is a blind, idempotent rewrite of every committed
   after-image in LSN order — no undo, because a page write-back never
   happens before its record is durable, so the database file can only
   be {e behind} the log, never ahead of it.

   The log distinguishes durable bytes (survive a crash) from pending
   bytes (appended but not yet synced; a crash drops them).  For the
   file backend "durable" means handed to the OS: it survives a process
   crash, not a power cut (there is no fsync).  For the in-memory
   backend — used by the crash-point harness — the split is explicit so
   a simulated crash can discard exactly the unsynced suffix. *)

type op =
  | Append
  | Sync

type fault =
  | No_fault
  | Fail of string
  | Torn of string

type backend =
  | Mem of { durable : Buffer.t }
  | File of {
      path : string;
      fd : Unix.file_descr;
    }

type t = {
  backend : backend;
  mutable next_lsn : int;
  mutable last_lsn : int;
  mutable synced_lsn : int;
  (* Encoded records appended but not yet durable, newest first. *)
  mutable pending : bytes list;
  mutable pending_bytes : int;
  (* The end of the last committed group.  Bytes past it are a torn
     group's remains; the next sync writes over them. *)
  mutable durable_size : int;
  mutable injector : (op -> fault) option;
  mutable no_sync : bool;
}
(* Append/sync run under the owning pool's table mutex (write-back
   logs and syncs inside the pool's bracket). *)
[@@guarded_by pool_table_lock]

type replay_stats = {
  applied : int;
  discarded_bytes : int;
  torn_tail : bool;
}

let m_appends = Metrics.counter "wal.appends"
let m_syncs = Metrics.counter "wal.syncs"
let m_checkpoints = Metrics.counter "wal.checkpoints"
let m_replayed = Metrics.counter "wal.recovery_replayed"

let make backend durable_size =
  { backend;
    next_lsn = 1;
    last_lsn = 0;
    synced_lsn = 0;
    pending = [];
    pending_bytes = 0;
    durable_size;
    injector = None;
    no_sync = false }

let in_memory () = make (Mem { durable = Buffer.create 4096 }) 0

let on_file path =
  make (File { path; fd = Unix.openfile path [Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC] 0o644 }) 0

let open_existing path =
  let fd = Unix.openfile path [Unix.O_RDWR; Unix.O_CREAT] 0o644 in
  make (File { path; fd }) (Unix.fstat fd).Unix.st_size

let set_injector t injector = t.injector <- injector

let consult t op =
  match t.injector with
  | None -> No_fault
  | Some f -> f op

let last_lsn t = t.last_lsn
let synced_lsn t = t.synced_lsn
let size_bytes t = t.durable_size + t.pending_bytes
let unsafe_no_sync t flag = t.no_sync <- flag

(* --- record encoding ---------------------------------------------------

   [ kind:u8 | lsn:i64 LE | page_id:u32 | len:u32 | payload | crc:u32 ]

   kind 1 is a page after-image; kind 2 closes a group (page id 0, no
   payload, the LSN of the group's last record).  The CRC covers
   everything before it, so a record whose tail never reached the disk
   — a torn log write — fails verification and ends the replayable
   prefix. *)

let page_kind = 1
let commit_kind = 2
let header_len = 17

let encode ~kind ~lsn ~page_id ~data =
  let plen = Bytes.length data in
  let buf = Bytes.create (header_len + plen + 4) in
  Bytes.set_uint8 buf 0 kind;
  Bytes.set_int64_le buf 1 (Int64.of_int lsn);
  Page.set_u32 buf 9 page_id;
  Page.set_u32 buf 13 plen;
  Bytes.blit data 0 buf header_len plen;
  let crc = Crc32.finish (Crc32.feed Crc32.start buf 0 (header_len + plen)) in
  Page.set_u32 buf (header_len + plen) crc;
  buf

let append t ~page_id ~data =
  (match consult t Append with
   | No_fault -> ()
   | Fail msg | Torn msg -> raise (Disk.Disk_error msg));
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  t.last_lsn <- lsn;
  let record = encode ~kind:page_kind ~lsn ~page_id ~data in
  t.pending <- record :: t.pending;
  t.pending_bytes <- t.pending_bytes + Bytes.length record;
  Metrics.incr m_appends;
  lsn

(* --- durability --------------------------------------------------------- *)

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

(* Write [chunks] at the end of the last committed group, replacing
   whatever a torn sync left there. *)
let write_tail t chunks =
  match t.backend with
  | Mem m ->
    Buffer.truncate m.durable t.durable_size;
    List.iter (Buffer.add_bytes m.durable) chunks
  | File f ->
    Unix.ftruncate f.fd t.durable_size;
    ignore (Unix.lseek f.fd t.durable_size Unix.SEEK_SET);
    List.iter (fun c -> write_all f.fd c 0 (Bytes.length c)) chunks

let clear_pending t =
  t.pending <- [];
  t.pending_bytes <- 0

let sync t =
  if (not t.no_sync) && t.pending <> [] then begin
    let commit =
      encode ~kind:commit_kind ~lsn:t.last_lsn ~page_id:0 ~data:Bytes.empty
    in
    let group = List.rev_append t.pending [commit] in
    match consult t Sync with
    | Fail msg -> raise (Disk.Disk_error msg)
    | Torn msg ->
      (* A torn sync: the older half of the group reaches the disk
         whole, plus a damaged prefix of the next record; the commit
         record never does, so recovery drops the whole group.  The rest
         is lost, as it would be in a crash moments later. *)
      let keep = List.length group / 2 in
      let torn = List.nth group keep in
      write_tail t
        (List.filteri (fun i _ -> i < keep) group
         @ [Bytes.sub torn 0 (Bytes.length torn / 2)]);
      t.last_lsn <- t.synced_lsn;
      clear_pending t;
      raise (Disk.Disk_error msg)
    | No_fault ->
      write_tail t group;
      t.durable_size <- t.durable_size + t.pending_bytes + Bytes.length commit;
      clear_pending t;
      t.synced_lsn <- t.last_lsn;
      Metrics.incr m_syncs
  end

let crash_discard t =
  clear_pending t;
  t.last_lsn <- t.synced_lsn

let checkpoint t =
  t.durable_size <- 0;
  write_tail t [];
  clear_pending t;
  t.synced_lsn <- t.last_lsn;
  Metrics.incr m_checkpoints

(* --- recovery ----------------------------------------------------------- *)

let durable_bytes t =
  match t.backend with
  | Mem m -> Buffer.to_bytes m.durable
  | File f -> Bytes.of_string (In_channel.with_open_bin f.path In_channel.input_all)

(* The record at [pos] as (kind, lsn, page_id, payload length, end), or
   [None] when the bytes there are not a whole, verified record of a
   known kind.  Explicit bounds and CRC checks, not exception handling. *)
let decode data pos =
  let len = Bytes.length data in
  if pos + header_len + 4 > len then None
  else begin
    let kind = Bytes.get_uint8 data pos in
    let plen = Page.get_u32 data (pos + 13) in
    let body = header_len + plen in
    if (kind <> page_kind && kind <> commit_kind) || pos + body + 4 > len then None
    else if
      not
        (Int.equal (Page.get_u32 data (pos + body))
           (Crc32.finish (Crc32.feed Crc32.start data pos body)))
    then None
    else
      Some
        ( kind,
          Int64.to_int (Bytes.get_int64_le data (pos + 1)),
          Page.get_u32 data (pos + 9),
          plen,
          pos + body + 4 )
end

let replay t ~apply =
  let data = durable_bytes t in
  let applied = ref 0 in
  let commit group =
    List.iter
      (fun (lsn, page_id, pos, plen) ->
        apply ~lsn ~page_id (Bytes.sub data (pos + header_len) plen);
        incr applied;
        Metrics.incr m_replayed;
        if lsn > t.last_lsn then begin
          t.last_lsn <- lsn;
          t.synced_lsn <- lsn;
          t.next_lsn <- lsn + 1
        end)
      (List.rev group)
  in
  (* [group]: the open group's records, newest first; they are applied
     only when its commit record verifies.  Returns the end of the last
     committed group. *)
  let rec scan pos committed group =
    match decode data pos with
    | Some (kind, lsn, page_id, plen, next) when kind = page_kind ->
      scan next committed ((lsn, page_id, pos, plen) :: group)
    | Some (_, _, _, _, next) ->
      commit group;
      scan next next []
    | None -> committed
  in
  let discarded = Bytes.length data - scan 0 0 [] in
  { applied = !applied; discarded_bytes = discarded; torn_tail = discarded > 0 }

let close t =
  match t.backend with
  | Mem _ -> ()
  | File f -> Unix.close f.fd
