(** A process-wide registry of cheap monotonic counters, and per-request
    scopes over it.

    The storage structures register named counters here and bump them
    on their hot paths — no allocation.  Names are dotted paths,
    subsystem first: [disk.reads], [pool.misses], [btree.splits],
    [ext_sort.runs], [heap.appends], ...

    Every bump also charges the domain's installed {!scope}: the one
    accounting source of a measured run.  The engine installs the run's
    {!Budget} scope around compile, execute and serialize, so its page
    I/Os, budget checks, operator windows and profile counters all read
    the same slots, and under concurrent sessions each request is
    charged only for its own work.  The global values ({!snapshot}) stay
    the process-wide sums benchmarks read around a window.  Counters,
    scopes and the registry are domain-safe. *)

type counter

val counter : string -> counter
(** Find or create the counter registered under this name.  Call once at
    module initialization and keep the handle; lookups hash the name. *)

val value : counter -> int

val incr : counter -> unit
val add : counter -> int -> unit
(** Bump the global value and the calling domain's installed scope. *)

type scope
(** One atomic slot per counter registered when the scope was made;
    counters registered later are not charged to it. *)

val scope : unit -> scope

val with_scope : scope -> (unit -> 'a) -> 'a
(** Run with the scope installed in the calling domain, restoring the
    previous one afterwards, also on exception. *)

val current : unit -> scope
(** The installed scope; outside any {!with_scope}, an empty scope that
    charges nothing. *)

val charged : scope -> counter -> int

type snapshot = (string * int) list
(** Non-zero readings, sorted by counter name. *)

val scope_snapshot : scope -> snapshot
val snapshot : unit -> snapshot
(** The global values. *)

val get : snapshot -> string -> int
(** 0 for a counter absent from the snapshot. *)
