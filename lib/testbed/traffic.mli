(** The traffic harness: a closed/open-loop load generator over the
    multi-session server stack.

    [run] loads a scaled DBLP document into one shared database, then
    drives [sessions] concurrent client sessions (one domain each),
    every request passing through the full wire path in-process —
    encode, decode, execute, encode, decode.  Each session replays a
    schedule drawn deterministically from [seed], sampling the five
    efficiency queries plus the Section-2 example.

    Before the domains start, a single-session oracle executes every
    distinct query and records its (status, payload); each concurrent
    response is compared against it and counted as a mismatch when it
    differs — the multi-session acceptance criterion.  After all
    sessions join, the shared pool must be quiescent (no pins, no held
    latches); a leak raises {!Xqdb_storage.Xqdb_error.Internal}.

    The concurrent phase starts on a cold pool (dropped after the oracle
    pass), and the page I/Os its responses report must sum to exactly
    the disk's read + write delta over the phase — each request is
    charged for its own I/O and nobody else's.  A violation raises
    {!Xqdb_storage.Xqdb_error.Internal}. *)

type mode =
  | Closed  (** each session fires its next request on completion *)
  | Open_rate of float
      (** requests per second per session, fired on schedule regardless
          of completion — latencies include client-visible queueing *)

type session_report = {
  session : int;
  requests : int;
  ok : int;
  budget_exceeded : int;
  timeouts : int;  (** requests censored at their deadline *)
  errors : int;
  io_errors : int;
  bad_requests : int;
  mismatches : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

type report = {
  sessions : int;
  requests_per_session : int;
  seed : int;
  scale : int;
  mode : mode;
  doc : string;
  wall_seconds : float;
  throughput : float;  (** completed requests per wall-clock second *)
  total_mismatches : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  per_session : session_report list;
}

val doc_name : string
(** The name the shared DBLP document is loaded under. *)

val mix : unit -> (string * string) list
(** The query mix sessions sample: the five efficiency queries plus the
    Section-2 example, as (name, text). *)

val percentile : float array -> float -> float
(** [percentile sorted q] for [q] in [0, 1]; 0 on an empty array. *)

val run_sessions : int -> (int -> 'a) -> 'a array
(** [run_sessions n f] runs [f 0 .. f (n - 1)] on one domain each and
    joins them all; [n = 1] runs on the calling domain. *)

val assert_quiescent : after:string -> Xqdb_storage.Buffer_pool.t -> unit
(** @raise Xqdb_storage.Xqdb_error.Internal when a page is still pinned
    or a frame latch still held; [after] names the point checked. *)

val run :
  ?mode:mode ->
  ?max_page_ios:int ->
  ?max_seconds:float ->
  sessions:int ->
  requests:int ->
  seed:int ->
  scale:int ->
  unit ->
  report
(** The caps become every session's admission limits (requests censor to
    [Budget_exceeded] when they trip, sessions and server live on). *)

val mode_label : mode -> string
(** ["closed"] or ["open"]. *)

val render : report -> string
(** Human-readable summary. *)
