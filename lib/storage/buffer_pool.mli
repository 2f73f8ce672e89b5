(** The buffer pool: a fixed number of page frames over a {!Disk}, with
    pin counts, dirty tracking and LRU replacement.

    The frame capacity is the knob behind the paper's "20 MB of memory"
    constraint in the efficiency tests: an engine configured with a small
    pool pays real page I/O for plans with poor locality.

    All access goes through [with_page]/[with_page_mut], the only place
    a pin is taken or released: the frame is pinned for the duration of
    the callback and unpinned on every way out of it, a raise included.
    Nesting accesses to {e distinct} pages is allowed as long as at most
    [capacity] pages are pinned at once.  When a fetch finds every
    frame pinned, {!Pool_exhausted} is raised.

    Replacement is strict LRU over an intrusive doubly-linked frame
    list: victim selection is O(1) amortized (a tail-ward walk skipping
    pinned frames) and fully deterministic.  Hits, misses, evictions and
    retries are counted as [pool.*] {!Metrics} counters.

    {2 Concurrency}

    The pool is safe to share across domains.  A single table mutex
    guards the frame table, the LRU list, pin counts and all
    disk/WAL traffic; frame {e contents} are guarded by a per-frame
    readers-writer {!Latch} instead, so callbacks overlap: any number of
    [with_page] readers may work on the same frame at once, while a
    [with_page_mut] callback holds its frame exclusively.  Lock order is
    fixed — table mutex first, frame latch second — and the table mutex
    is never held while a callback runs or a latch is awaited, so the
    two layers cannot deadlock against each other.  The latch is not
    reentrant: a nested access to the {e same} page from the same domain
    self-deadlocks, and under the sanitizer {!Lock_order} reports it as
    a {!Lock_order.Lock_order_violation} before it blocks.  {!drop_all}
    is the one global quiescent point — it requires zero pins from
    everyone.

    Disk faults ({!Disk.Disk_error}) are retried through {!Retry} — a
    bounded exponential-backoff window with deterministic jitter
    (transient faults injected by {!Fault_disk} clear on retry); a
    checksum {!Xqdb_error.Corrupt} is a {e hard} fault and is never
    retried.  A fault that persists propagates to the caller with the
    pool left consistent.  In particular a dirty frame whose write-back keeps
    failing stays cached and dirty — it is never dropped silently — so
    once the disk recovers, the next eviction or [flush_all] persists
    it.

    {2 Page-I/O budgets}

    Every frame the pool brings in — a miss's read, or {!alloc_page}'s
    new frame, together with the write-back its eviction caused — ends
    with {!Budget.check_page_ios}.  Under a {!Budget.run} whose cap
    those I/Os crossed, the access raises {!Budget.Exhausted} with the
    frame cached and unpinned and the mutex released, as a
    {!Disk.Disk_error} from the same path leaves it.

    {2 Write-ahead logging}

    A pool created with [~wal] logs at sync time, not at mutation time:
    a mutation only marks its frame dirty and unlogged.  Before a dirty
    frame is written back, the pool appends one after-image for it and
    for every other dirty, unlogged frame no [with_page_mut] has pinned,
    then syncs them as one atomic group (WAL before data).  A page thus
    costs one record per sync however often it changed in between.  A
    frame records the LSN of its logged contents, so a write-back
    retried after a fault does not append a duplicate record.  Under
    the sanitizer, writing back a page whose record is not yet durable
    raises {!Sanitizer_violation}.

    {2 Sanitizer}

    A pool created with [~sanitize:true] (or with [XQDB_PIN_SANITIZE=1]
    in the environment) checks the disciplines a caller can break:

    - callbacks work on a {e shadow copy} of the frame which is blitted
      back on unpin and filled with {!poison_byte} once the last pin
      drops — a callback that retained the buffer past its pin window
      (use-after-unpin) reads poison instead of silently-stale data;
    - every latch and table-mutex acquisition goes through
      {!Lock_order}, which reports an order cycle or a same-page
      nesting before it deadlocks;
    - a write-back ahead of its WAL record raises
      {!Sanitizer_violation}.

    The fault-injection and differential suites run under the sanitizer
    in CI. *)

type t

exception Pool_exhausted of string
(** Raised when a page must be brought in but every frame is pinned.
    Like {!Disk.Disk_error} — and unlike a caller bug — this is a
    runtime resource condition the engine is expected to absorb: it maps
    to an [Io_error] run status, never to an escaped [Failure]. *)

exception Sanitizer_violation of string
(** Sanitize mode only: a write-back of a page whose WAL record is not
    yet durable (WAL-before-data). *)

val create :
  ?capacity:int -> ?sanitize:bool -> ?retry_policy:Retry.policy -> ?wal:Wal.t -> Disk.t -> t
(** Default capacity is 64 frames.  [sanitize] defaults to the
    [XQDB_PIN_SANITIZE] environment variable ([1]/[true]/[yes]).
    [retry_policy] governs the transient-fault backoff (see {!Retry});
    it must keep the whole window short — retries sleep under the
    table mutex.  [wal], when given, enables write-ahead logging of
    every page this pool writes back. *)

val disk : t -> Disk.t

val wal : t -> Wal.t option
(** The log this pool writes ahead to, if any. *)

val capacity : t -> int

val sanitizing : t -> bool
(** Whether this pool was created in sanitize mode. *)

val alloc_page : t -> int
(** Allocate a fresh page on the disk and cache it (dirty) in the pool. *)

val with_page : t -> int -> (bytes -> 'a) -> 'a
(** Read access: the frame is pinned and latched shared while the
    callback runs.  The callback must not retain the buffer, nor access
    the same page again. *)

val with_page_mut : t -> int -> (bytes -> 'a) -> 'a
(** Write access: as {!with_page}, but latched exclusive; the frame is
    marked dirty and flushed on eviction or {!flush_all}. *)

val flush_all : t -> unit
(** Write back all dirty frames (they stay cached). *)

val drop_all : t -> unit
(** Flush and forget every frame; the next access re-reads from disk.
    Used by benches to measure cold-cache behaviour.  Raises
    [Invalid_argument] if any frame is still pinned, by any domain — a
    drop with outstanding pins would invalidate live buffers. *)

val poison_byte : char
(** The byte ([0xde]) the sanitizer fills released shadow buffers with. *)

val pinned_pages : t -> (int * int) list
(** Frames with a nonzero pin count, as [(page_id, pins)] — works in
    both modes. *)

val latched_pages : t -> (int * int) list
(** Frames whose latch is not idle, as [(page_id, holders)] where
    [holders] follows {!Latch.holders} ([> 0] readers, [-1] writer). *)
