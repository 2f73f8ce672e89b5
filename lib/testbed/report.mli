(** Machine-readable harness reports.

    A minimal JSON value type with a writer and a (strict, recursive
    descent) parser — deliberately hand-rolled so the testbed carries no
    dependency beyond the standard library — plus the serializers for the
    crash, traffic and chaos harness reports and the validators CI runs
    over those files and over the [xqdb-lint] JSON report.

    One schema version is current (11) and only it validates: a schema
    change bumps the version, and old versions are not kept — reports
    are regenerated, never migrated.  Every report shares one envelope:

    {v
    { "schema_version": 11,
      "kind": "crash" | "traffic" | "chaos",
      <top-level fields of the kind>,
      "results": [<result of the kind>, ...] }
    v}

    Crash-sweep reports ([kind = "crash"], {!crash_json}) carry [seed],
    [trial_count] and [points_per_trial], and one flat result object per
    crash point:
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

(* --- validation --------------------------------------------------------- *)

val validate_bench : json -> (unit, string) result
(** The check CI applies to every harness report: [schema_version] is
    the current one, [kind] is ["crash"], ["traffic"] or ["chaos"] (any
    other kind is an error), the [results] array is non-empty, and every
    result is well-formed for its kind, with the kind's gate: a crash
    point within the observed events; zero oracle mismatches, outcome
    counts that partition the requests and ordered latency percentiles
    for traffic and chaos; zero untyped escapes for chaos. *)

val validate_lint : schema_version:int -> json -> (unit, string) result
(** Validation of an [xqdb-lint] JSON report: [schema_version] equals
    the given current lint version, [tool] is ["xqdb-lint"], [count]
    matches the [findings] array, and every finding carries string
    [rule]/[file]/[message] and integer [line]/[col]. *)

val parse_file : string -> (json, string) result

val validate_file : string -> (unit, string) result
(** Read, parse and {!validate_bench} one file. *)
