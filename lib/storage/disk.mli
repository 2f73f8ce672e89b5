(** The disk abstraction under the storage manager.

    A disk is an array of fixed-size pages addressed by page id, with
    read/write/alloc counters.  Two backends are provided: a real file
    (what a deployment would use) and an in-memory page table (what the
    benchmarks use, so that page-I/O counts — the currency of the cost
    model of milestone 4 — are measured without OS-cache noise).

    Page 0 is reserved for the {!Catalog} and is allocated eagerly.

    Disks can misbehave on demand: an installed {e fault injector}
    (see {!set_injector} and the {!Fault_disk} policy driver) may make
    any operation raise {!Disk_error}, or tear a write so that only a
    damaged prefix of the page is persisted before the failure is
    reported.  This is the machinery behind the robustness half of the
    testbed's differential harness.

    Every page carries a CRC-32 in its header ({!Page.stamp_checksum}):
    {!write_page} and {!alloc} stamp it, {!read_page} verifies it and
    raises {!Xqdb_error.Corrupt} on a mismatch, so a torn page that
    reaches a reader is detected rather than returned as data. *)

type t

exception Disk_error of string
(** An injected (or, conceptually, real) I/O failure.  Unlike
    [Invalid_argument] — which flags caller bugs such as out-of-range
    page ids — this is an environmental fault callers are expected to
    handle: the {!Buffer_pool} retries a bounded number of times, and the
    engine surfaces what remains as an [Io_error] run status. *)

type op =
  | Read
  | Write
  | Alloc

type fault =
  | No_fault
  | Fail of string  (** raise {!Disk_error} without touching the disk *)
  | Torn of string
      (** writes only: persist the first half of the buffer with one byte
          garbled (so the page's checksum cannot verify), then raise
          {!Disk_error}; treated as [Fail] for reads and allocs *)

val set_injector : t -> (op -> int -> fault) option -> unit
(** Install (or with [None] remove) a fault injector.  It is consulted
    with the operation and page id (for [Alloc], the id the new page
    would get) before counters are bumped or state is touched, so a
    failed operation is not counted and allocates nothing. *)

val in_memory : ?page_size:int -> unit -> t
(** Default page size is 4096 bytes. *)

val on_file : ?page_size:int -> string -> t
(** Creates or truncates [path]. *)

val open_existing : ?page_size:int -> string -> t
(** Open a database file created earlier by {!on_file}; the page count
    is recovered from the file size.
    @raise Invalid_argument if the size is not a whole number of pages
    or the file is empty. *)

val page_size : t -> int
val page_count : t -> int

val alloc : t -> int
(** Allocate a fresh zeroed page (checksum pre-stamped) and return its
    id.  @raise Disk_error on an injected allocation fault. *)

val read_page : t -> int -> bytes
(** A fresh copy of the page contents, checksum-verified.
    @raise Invalid_argument on an unallocated page id.
    @raise Disk_error on an injected read fault.
    @raise Xqdb_error.Corrupt if the stored checksum does not match the
    contents (the [disk.checksum_failures] counter is bumped). *)

val read_page_raw : t -> int -> bytes
(** Like {!read_page} but without checksum verification, fault
    injection, or counter updates — for tests and recovery tooling that
    inspect possibly-damaged pages.
    @raise Invalid_argument on an unallocated page id. *)

val write_page : t -> int -> bytes -> unit
(** Stamps the page checksum into [buf] (in place), then persists it.
    @raise Invalid_argument if the buffer size differs from the page
    size or the page id was never allocated.
    @raise Disk_error on an injected write fault; a torn fault persists
    a damaged half of the buffer first ([disk.torn_writes] is bumped),
    so retrying the full write repairs the page. *)

val sync : t -> unit
(** Flush buffered writes to the backing file (no-op for the in-memory
    backend).  The durability point the {!Wal} checkpoint protocol
    relies on. *)

type counters = {
  reads : int;
  writes : int;
  allocs : int;
}

val counters : t -> counters

val total_ios : t -> int
(** [reads + writes], without allocating a {!counters} record. *)

val scope_ios : Metrics.scope -> int
(** Page I/Os (reads + writes, of any disk) charged to a scope.  Every
    disk bumps the [disk.reads], [disk.writes] and [disk.allocs]
    counters exactly where it bumps its own {!counters}. *)

val close : t -> unit
(** Close the backing file, if any.  The disk must not be used after. *)
