(** The buffer pool: a fixed number of page frames over a {!Disk}, with
    pin counts, dirty tracking and LRU replacement.

    The frame capacity is the knob behind the paper's "20 MB of memory"
    constraint in the efficiency tests: an engine configured with a small
    pool pays real page I/O for plans with poor locality.

    All access goes through [with_page]/[with_page_mut], which pin the
    frame for the duration of the callback; nesting is allowed as long as
    at most [capacity] distinct pages are pinned at once.  When a fetch
    finds every frame pinned, {!Pool_exhausted} is raised.

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
    reentrant, but the pool tracks which domain holds each frame's latch:
    a nested access to the {e same} page from the same domain rides on
    the hold it already has rather than self-deadlocking.  The one
    unsupported shape is a latch {e upgrade} — [with_page_mut] nested
    inside [with_page] on the same page — which raises
    {!Latch.Latch_error} instead of deadlocking.

    Pin-balance accounting ({!assert_unpinned}, {!pin_baseline} /
    {!assert_balanced}) is {e per domain}: a session's quiescent-point
    checks see only its own outstanding pins, not other sessions'
    in-flight ones.  {!drop_all} is the one global quiescent point — it
    requires zero pins from {e everyone}.

    Disk faults ({!Disk.Disk_error}) are retried through {!Retry} — a
    bounded exponential-backoff window with deterministic jitter
    (transient faults injected by {!Fault_disk} clear on retry); a
    checksum {!Xqdb_error.Corrupt} is a {e hard} fault and is never
    retried.  A fault that persists propagates to the caller with the
    pool left consistent.  In particular a dirty frame whose write-back keeps
    failing stays cached and dirty — it is never dropped silently — so
    once the disk recovers, the next eviction or [flush_all] persists
    it.

    {2 Write-ahead logging}

    A pool created with [~wal] logs every page mutation to the {!Wal}:
    the after-image is appended when [with_page_mut] completes, and
    before a dirty frame is written back the log is synced at least to
    that frame's record (WAL before data).  A frame records the LSN of
    its logged contents, so a write-back retried after a fault does not
    append a duplicate record.  Under the sanitizer, writing back a page
    whose record is not yet durable raises {!Sanitizer_violation}.

    {2 Pin sanitizer}

    A pool created with [~sanitize:true] (or with [XQDB_PIN_SANITIZE=1]
    in the environment) becomes a dynamic oracle for the pin discipline:

    - every pin records its acquisition backtrace, so {!assert_unpinned}
      and {!live_pins} can say {e who} leaked;
    - a double {!unpin} of the same pin raises {!Sanitizer_violation},
      as does an unpin while the pin's frame latch is still held (a
      latch leak); {!assert_unpinned} additionally checks that no frame
      latch is held at the quiescent point;
    - callbacks work on a {e shadow copy} of the frame which is blitted
      back on unpin and filled with {!poison_byte} once the last pin
      drops — a callback that retained the buffer past its pin window
      (use-after-unpin) reads poison instead of silently-stale data.

    The engine asserts zero outstanding pins at the end of every
    measured run and at [with_config]; the fault-injection and
    differential suites run under the sanitizer in CI. *)

type t

exception Pool_exhausted of string
(** Raised when a page must be brought in but every frame is pinned.
    Like {!Disk.Disk_error} — and unlike a caller bug — this is a
    runtime resource condition the engine is expected to absorb: it maps
    to an [Io_error] run status, never to an escaped [Failure]. *)

exception Sanitizer_violation of string
(** Sanitize mode only: a discipline the pool can observe directly was
    broken — a double unpin (the message carries the offending pin's
    acquisition backtrace), or a write-back of a page whose WAL record
    is not yet durable (WAL-before-data). *)

exception Pin_leak of string
(** Raised by {!assert_unpinned} when frames are still pinned at a point
    where the caller asserts none should be; under the sanitizer the
    message carries each leaked pin's acquisition backtrace. *)

val create :
  ?capacity:int -> ?sanitize:bool -> ?retry_policy:Retry.policy -> ?wal:Wal.t -> Disk.t -> t
(** Default capacity is 64 frames.  [sanitize] defaults to the
    [XQDB_PIN_SANITIZE] environment variable ([1]/[true]/[yes]).
    [retry_policy] governs the transient-fault backoff (see {!Retry});
    it must keep the whole window short — retries sleep under the
    table mutex.  [wal], when given, enables write-ahead logging of
    every mutation. *)

val disk : t -> Disk.t

val wal : t -> Wal.t option
(** The log this pool writes ahead to, if any. *)

val capacity : t -> int

val sanitizing : t -> bool
(** Whether this pool was created in sanitize mode. *)

val alloc_page : t -> int
(** Allocate a fresh page on the disk and cache it (dirty) in the pool. *)

val with_page : t -> int -> (bytes -> 'a) -> 'a
(** Read access.  The callback must not retain the buffer. *)

val with_page_mut : t -> int -> (bytes -> 'a) -> 'a
(** Write access; the frame is marked dirty and flushed on eviction or
    {!flush_all}. *)

val flush_all : t -> unit
(** Write back all dirty frames (they stay cached). *)

val drop_all : t -> unit
(** Flush and forget every frame; the next access re-reads from disk.
    Used by benches to measure cold-cache behaviour.  Under the
    sanitizer, raises {!Pin_leak} if any frame is still pinned — a drop
    with outstanding pins would invalidate live buffers. *)

(** {2 Low-level pins}

    [with_page]/[with_page_mut] are the normal interface; the explicit
    pin API exists for callers that need a pin to outlive a single
    callback and for the sanitizer's own tests.  Every [pin] must be
    matched by exactly one [unpin] on the same token. *)

type pin
(** A single pin of a single frame. *)

val pin : t -> int -> pin
(** Pin the page's frame (faulting it in if needed).  The frame cannot
    be evicted until every pin on it is released. *)

val unpin : t -> pin -> unit
(** Release a pin.  Sanitize mode: a second [unpin] of the same token
    raises {!Sanitizer_violation} carrying the acquisition backtrace. *)

val pin_buffer : pin -> bytes
(** The pinned frame's buffer — the shadow copy under the sanitizer,
    the frame itself otherwise.  Invalid after [unpin] (the sanitizer
    poisons it with {!poison_byte}). *)

val poison_byte : char
(** The byte ([0xde]) the sanitizer fills released shadow buffers with. *)

val live_pins : t -> (int * string) list
(** Sanitize mode: the outstanding pins as [(page_id, backtrace)] pairs;
    [[]] when not sanitizing or nothing is pinned. *)

val pinned_pages : t -> (int * int) list
(** Frames with a nonzero pin count, as [(page_id, pins)] — works in
    both modes. *)

val latched_pages : t -> (int * int) list
(** Frames whose latch is not idle, as [(page_id, holders)] where
    [holders] follows {!Latch.holders} ([> 0] readers, [-1] writer). *)

val assert_unpinned : where:string -> t -> unit
(** Raise {!Pin_leak} (tagged with [where]) unless the {e calling
    domain} holds no pins.  Under the sanitizer, also raise
    {!Sanitizer_violation} if any frame latch is still held.  The engine
    calls this at [with_config]; harnesses call it between trials. *)

type pin_baseline
(** A snapshot of the outstanding pins at some instant, for balance
    checks across a window in which the {e caller} may legitimately hold
    pins of its own. *)

val pin_baseline : t -> pin_baseline

val assert_balanced : where:string -> baseline:pin_baseline -> t -> unit
(** Raise {!Pin_leak} if the {e baseline's domain} holds more pins now
    than at [baseline] — i.e. the window acquired pins it never
    released.  Under
    the sanitizer the message carries the acquisition backtraces of
    exactly the pins taken since the baseline.  [Engine.run] brackets
    every measured run with this, so a query must release everything it
    pinned even when the caller holds pins across the call. *)
