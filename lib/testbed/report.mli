(** Machine-readable benchmark reports.

    A minimal JSON value type with a writer and a (strict, recursive
    descent) parser — deliberately hand-rolled so the testbed carries no
    dependency beyond the standard library — plus serializers for the
    engine profiles and efficiency tables the benches emit as
    [BENCH_*.json], and the validators CI runs over those files and over
    the [xqdb-lint] JSON report.

    One schema version is current (8) and only it validates: a schema
    change bumps the version, and old versions are not kept — reports
    are regenerated, never migrated.

    {v
    { "schema_version": 8,
      "kind": "fig7" | "ablations" | "milestones" | "templates"
            | "structural",
      "budget": int,              (fig7 only)
      "batch": <comparison>,      (fig7, optional; see batch_comparison)
      "results": [
        { "engine": str, "test": str, <extra fields, e.g. "scale": int>,
          "page_ios": int, "seconds": float, "censored": bool,
          "profile": {
            "reads": int, "writes": int, "allocs": int,
            "counters": {<metric name>: int, ...},
            "operator_ios": int, "other_ios": int,
            "operators": [<op>, ...] } } ] }
    v}

    where each [<op>] is [{ "op": str, "args": str, "rows": int,
    "batches": int, "ios": int, "own_ios": int, "seconds": float,
    "own_seconds": float, "inputs": [<op>, ...] }].  Pool, planner,
    cache and WAL activity (e.g. [pool.misses],
    [planner.templates_built], [wal.appends]) lives in
    [profile.counters]: the counters charged to the run's scope, zero
    entries omitted.

    Crash-sweep reports ([kind = "crash"], {!crash_json}) use the same
    envelope with one flat result object per crash point:
    [{ "trial": int, "query": str, "events_total": int, "point": int,
    "torn": bool, "crashed": bool, "ok": bool, "detail": str }].

    Traffic reports ([kind = "traffic"], {!traffic_json}) carry the run
    aggregates ([sessions], [requests_per_session], [seed], [scale],
    [mode], [wall_seconds], [throughput], [mismatches], [p50_ms],
    [p95_ms], [p99_ms]) at the top level and one result object per
    session: [{ "session": int, "requests": int, "ok": int,
    "budget_exceeded": int, "timeouts": int, "errors": int,
    "io_errors": int, "bad_requests": int, "mismatches": int,
    "p50_ms": float, "p95_ms": float, "p99_ms": float }].  Chaos reports
    ([kind = "chaos"], {!chaos_json}) carry one such object per leg,
    keyed by ["leg"] instead of ["session"] and adding ["unavailable"]
    and ["untyped"]. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val to_string : json -> string
(** Compact rendering with full string escaping. *)

val parse : string -> (json, string) result
(** Strict parse of a complete JSON document (trailing garbage is an
    error).  Numbers with [.], [e] or [E] become [Float], others [Int]. *)

val member : string -> json -> json option
(** Field lookup; [None] when absent or not an object. *)

val write_file : string -> json -> unit

(* --- serializers -------------------------------------------------------- *)

val profile_json : Xqdb_core.Engine.profile -> json

val result_json :
  ?extra:(string * json) list ->
  engine:string -> test:string -> Xqdb_core.Engine.result -> json
(** One engine × test measurement with its full profile; [extra] adds
    result-level fields (e.g. [("scale", Int n)] for scaling sweeps). *)

val cell_json : Efficiency.cell -> json

(** The batch-vs-tuple comparison a fig7 report can carry: the same
    engines and workload measured at the configured batch size and again
    degraded to one-row batches through the identical operator code,
    with each run's engines ranked by total censored-capped page I/O. *)
type batch_comparison = {
  cmp_batch_size : int;  (** the vectorized run's batch size *)
  batch_seconds : float;  (** total seconds across the table, batched *)
  tuple_seconds : float;  (** total seconds at [batch_size = 1] *)
  batch_ranking : string list;
  tuple_ranking : string list;
}

val fig7_json : ?batch:batch_comparison -> Efficiency.table -> json
(** The whole Figure-7 table: [kind = "fig7"], plus the [batch]
    comparison object when provided. *)

val crash_json : Differential.crash_report -> json
(** A crash-point sweep: [kind = "crash"], one result per crash point. *)

val traffic_json : Traffic.report -> json
(** A traffic run: [kind = "traffic"], one result per session.  The
    validator additionally requires zero oracle mismatches, outcome
    counts that partition each session's requests, and ordered latency
    percentiles. *)

val chaos_json : Chaos.report -> json
(** A chaos run: [kind = "chaos"], one result per leg (fault-free
    baseline, then chaos).  The validator requires outcome counts that
    partition each leg's requests, zero untyped escapes, zero oracle
    mismatches and ordered latency percentiles. *)

val bench_json :
  kind:string ->
  (string * json) list ->
  results:json list ->
  json
(** Generic report envelope: [schema_version], [kind], extra top-level
    fields, and the [results] array. *)

(* --- validation --------------------------------------------------------- *)

val validate_bench : json -> (unit, string) result
(** The check CI applies to every [BENCH_*.json]: [schema_version] is
    the current one, the envelope fields are present and well-typed,
    every result is well-formed for its kind, and every embedded profile
    reconciles ([reads + writes = operator_ios + other_ios], operator
    trees internally consistent).  Each kind's gate then applies:
    - ["templates"]: every (engine, test) pair shows the same
      [planner.templates_built] across its results — compile-once under
      data scaling;
    - ["structural"]: every ["deep-*"] test has [m4] and [m4-nostruct]
      measurements, with strictly less page I/O under [m4];
    - ["fig7"] with a [batch] object: the batched run is strictly faster
      than the tuple-at-a-time run, with the same engine rankings. *)

val validate_lint : schema_version:int -> json -> (unit, string) result
(** Validation of an [xqdb-lint] JSON report: [schema_version] equals
    the given current lint version, [tool] is ["xqdb-lint"], [count]
    matches the [findings] array, and every finding carries string
    [rule]/[file]/[message] and integer [line]/[col]. *)

val parse_file : string -> (json, string) result

val validate_file : string -> (unit, string) result
(** Read, parse and {!validate_bench} one file. *)
