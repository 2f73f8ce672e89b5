(** The rule registry: storage-safety invariants checked on the repo's
    own sources via compiler-libs ([Parse] + [Ast_iterator]).

    The rules encode the error discipline the engine depends on:

    - {b L1} — no bare [failwith] / [Failure _].  Storage raises
      {!Xqdb_storage.Xqdb_error.Corrupt} (data problem, censored to
      [Io_error]) or [Internal] (engine bug, crashes loudly); the
      shredder raises [Shred_error].  A bare [Failure] would slip past
      the engine's status mapping.
    - {b L2} — no catch-all exception handler ([with _ ->], or a bound
      variable that is never re-raised).  Catch-alls can swallow
      [Disk_error] and [Pool_exhausted] and turn resource failures into
      silent wrong answers.
    - {b L3} — no polymorphic [compare] / [Hashtbl.hash], no [=] / [<>]
      / [min] / [max] between two computed values, and no [List.mem] on
      a computed element, in [lib/storage], [lib/physical] and
      [lib/xasr]: physical records contain mutable buffers and closures
      where structural comparison diverges or raises.
    - {b L4} — every module under [lib/] has a [.mli]; interfaces are
      where pin/budget obligations are documented.
    - {b L5} — [Metrics.counter] names are string literals matching
      [[a-z_]+(.[a-z_]+)+], their first segment names a known subsystem
      ({!counter_subsystems}), and they are unique across the project,
      so the metrics namespace stays greppable and collision-free.
    - {b L6} — nothing in [lib/server] writes stdout ([print_*],
      [Printf.printf], [Format.printf], [Stdlib.stdout]): worker domains
      share the process, so stdout prints interleave across sessions.
      Diagnostics go to stderr; responses go over the wire.

    The domain-safety family (L7–L9) runs as a two-phase whole-repo
    analysis: phase one gathers per-file facts (module references,
    [Domain.spawn] sites, shared mutable state, latch/blocking events);
    phase two builds the module dependency graph, marks every file
    reachable from a spawning file, and judges:

    - {b L7} — no unprotected shared mutable state (top-level [ref]s and
      [Hashtbl]s, [mutable] or [Hashtbl]-typed record fields) in a
      module reachable from domain-spawning code.  [Atomic.t] fields are
      exempt; a [[@@guarded_by <lock>]] or [[@@domain_local]] attribute
      on the field, type declaration or binding declares the discipline
      and silences the rule (the attribute is the reviewed claim).
    - {b L8} — no [Domain.spawn] outside the one sanctioned site (the
      [Server] worker pool).  L8 is per-file and so also reported by
      {!check_file}.
    - {b L9} — no blocking call ([Unix.sleep]/[select]/socket I/O,
      [Disk.read_page]/[write_page]/[alloc], [Wal.sync]) while a latch
      is provably held in the same top-level body, judged by textual
      order of [Latch.acquire_*] / [Latch.release] / blocking events.

    Rules ["PARSE"] (unparseable source) and ["ALLOW"] (allowlist
    hygiene, see {!Allowlist}) are emitted by the infrastructure. *)

type source = {
  path : string;  (** repo-relative, [/]-separated — used in findings *)
  text : string;  (** file contents *)
  mli_exists : bool;  (** whether [path ^ "i"] exists (for L4) *)
}

type rule = { id : string; title : string }

val registry : rule list
(** L1–L9, in order. *)

val check_file : source -> Finding.t list
(** All per-file rules on one source (L1–L6, L8, L9).  L5's cross-file
    uniqueness and L7's reachability judgement need {!check_project}. *)

val check_project : source list -> Finding.t list
(** Phase one ({!check_file}-equivalent facts) on every source, then
    phase two: counter-name uniqueness plus L7 over the modules
    reachable from [Domain.spawn] sites, sorted by {!Finding.compare}. *)

val valid_counter_name : string -> bool
(** The L5 name grammar: two or more [.]-separated [[a-z_]+] segments. *)

val counter_subsystems : string list
(** The closed set of first segments a counter name may use; registering
    a counter under a new subsystem requires extending this list. *)
