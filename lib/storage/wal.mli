(** A redo-only physical write-ahead log, written in atomic groups.

    The {!Buffer_pool} logs at sync time: before writing a dirty page
    back it appends one full after-image for every dirty page not yet
    logged, then syncs, so the database file is never ahead of the
    durable log.  Each {!sync} makes its pending records durable as one
    group closed by a commit record, and recovery ({!replay}) applies a
    group only once its commit record verifies, so a torn sync loses
    exactly its own group.  Replay blindly rewrites every committed
    after-image in LSN order — idempotent, so recovering twice (or
    crashing during recovery and recovering again) is safe.

    Record layout, little-endian:

    {v
    [ kind:u8 | lsn:i64 | page_id:u32 | len:u32 | payload | crc:u32 ]
    v}

    Kind 1 is a page after-image; kind 2 is a group's commit record
    (page id 0, empty payload, the LSN of the group's last record).
    The trailing CRC-32 covers everything before it; a record that fails
    it (a torn log write) ends the replayable prefix, and the bytes
    after the last commit record are discarded.  A log holding no
    commit record (as every log written before groups existed) replays
    as empty.

    "Durable" means handed to the OS: a synced group survives a process
    crash, not a power cut — there is no [fsync].

    Like {!Disk}, a log can misbehave on demand via {!set_injector} —
    the seam the {!Crash_point} harness uses to crash a workload between
    any two log operations. *)

type t

type op =
  | Append
  | Sync

type fault =
  | No_fault
  | Fail of string  (** raise {!Disk.Disk_error} without logging *)
  | Torn of string
      (** sync only: persist the older half of the group (its pending
          records and commit record) plus a damaged prefix of the next
          record, drop the rest, then raise {!Disk.Disk_error}; the
          commit record never lands, so replay drops the group.
          Treated as [Fail] on append *)

val in_memory : unit -> t
(** A log whose "durable" store is a buffer in this process — the
    crash-point harness's backend, where {!crash_discard} plays the
    crash. *)

val on_file : string -> t
(** Create or truncate a log file. *)

val open_existing : string -> t
(** Open a log left by an earlier process ({e the} recovery entry
    point); a missing file is treated as an empty log. *)

val set_injector : t -> (op -> fault) option -> unit

val append : t -> page_id:int -> data:bytes -> int
(** Append an after-image and return its LSN (LSNs start at 1 and
    increase).  The record is {e pending} — not durable — until the next
    {!sync}.  @raise Disk.Disk_error on an injected fault (nothing is
    appended). *)

val sync : t -> unit
(** Make every pending record durable as one group, closed by a commit
    record.  No-op when nothing is pending.  The group is written where
    the last committed group ends, over any torn remains.
    @raise Disk.Disk_error on an injected fault; a torn sync leaves an
    uncommitted prefix of the group (ending mid-record) that replay
    skips, and drops the pending records. *)

val last_lsn : t -> int
(** The LSN of the newest appended record; 0 for an empty log. *)

val synced_lsn : t -> int
(** The LSN up to which the log is durable; [synced_lsn <= last_lsn].
    The buffer pool's write-back sanitizer checks a page's record LSN
    against this. *)

val size_bytes : t -> int
(** Durable plus pending bytes — what the auto-checkpoint threshold
    watches. *)

val checkpoint : t -> unit
(** Truncate the log.  Callers must first make the database file itself
    durable (flush the pool, {!Disk.sync}); see
    [Xqdb_core.Database.checkpoint] for the full protocol. *)

type replay_stats = {
  applied : int;  (** records replayed *)
  discarded_bytes : int;  (** bytes after the last committed group *)
  torn_tail : bool;  (** whether the log ended in anything but a commit record *)
}

val replay : t -> apply:(lsn:int -> page_id:int -> bytes -> unit) -> replay_stats
(** Decode the durable log and feed each committed after-image to
    [apply] in LSN order, stopping at the first record that is
    truncated or fails its CRC; the records of a group whose commit
    record never verified are not applied.  Also advances this log's
    LSN counters past the highest LSN applied, so appends after
    recovery do not reuse LSNs. *)

val crash_discard : t -> unit
(** Simulate the crash: drop every pending (unsynced) record, leaving
    only the durable prefix.  In-memory harness use; a real crash does
    this for free. *)

val unsafe_no_sync : t -> bool -> unit
(** Test seam: while set, {!sync} does nothing, so the WAL-before-data
    invariant can be made to fail and the pool sanitizer's check
    exercised. *)

val close : t -> unit
(** Close the backing file, if any. *)
