(** A process-wide registry of cheap monotonic counters.

    The storage structures (buffer pool, B+-tree, external sort, heap
    files) register named counters here and bump them on their hot paths
    — one mutable-field write per event, no allocation.  The engine
    attributes activity to a query by taking a {!snapshot} before and
    after the run and reporting the {!diff}; this is what feeds the
    [counters] section of an {!Xqdb_core.Engine} profile and the
    machine-readable [BENCH_*.json] benchmark output.

    Counter names are dotted paths, subsystem first:
    [pool.hits], [pool.misses], [pool.evictions], [pool.retries],
    [btree.node_reads], [btree.splits], [btree.inserts],
    [ext_sort.runs], [ext_sort.merge_passes],
    [heap.appends], [heap.scans].

    Counters are global, not per-structure: with several pools or trees
    in one process the registry reports the sum.  Per-structure numbers
    stay available where they always were (e.g.
    {!Buffer_pool.stats}).

    Counters are domain-safe: increments are atomic fetch-and-adds, so
    parallel scan domains bumping the same counter never lose updates,
    and the registry itself is guarded by a mutex. *)

type counter

val counter : string -> counter
(** Find or create the counter registered under this name.  Call once at
    module initialization and keep the handle; lookups hash the name. *)

val name : counter -> string
val value : counter -> int

val incr : counter -> unit
val add : counter -> int -> unit

type snapshot = (string * int) list
(** Sorted by counter name. *)

val snapshot : unit -> snapshot

val get : snapshot -> string -> int
(** 0 for a counter absent from the snapshot. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] — per-counter deltas, zero entries dropped. *)
