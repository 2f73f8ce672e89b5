(** The chaos harness: the traffic generator re-run under seeded fault
    injection, with the fault-free run as its own oracle.

    A chaos run has three phases over one database:

    + a {e fault-free baseline} traffic leg (after a single-session
      oracle records every distinct query's answer);
    + a {e chaos} traffic leg: the same seeded schedules with a
      {!Xqdb_storage.Fault_disk} injector armed, and a seeded sprinkle
      of hostile frames (garbage bytes through the wire decoder),
      already-expired deadlines and stale-version frames (a well-formed
      request under an unsupported version byte, which must get one
      [Bad_request]) mixed into the request stream;
    + a single-threaded {e WAL-fault} leg on a scratch file database:
      load/drop/checkpoint cycles with transient [Wal] append/sync
      faults injected, asserting the storage retry absorbed them
      ([retry.attempts] grew) and that a fresh [open_file] recovers the
      file afterwards.

    The run's acceptance checks come back as [violations] (empty =
    pass): every client-visible failure typed (zero [untyped]), zero
    oracle mismatches on [Ok] payloads, transient faults invisible to
    clients (chaos-leg error counts equal to the baseline's), hard
    faults surfaced as typed [Io_error]s, retries actually exercised,
    and chaos-leg p99 latency within [max_p99_ratio] of the baseline.
    After each leg the shared pool must be quiescent — a pin or latch
    leak raises {!Xqdb_storage.Xqdb_error.Internal}, as in
    {!Traffic}. *)

type profile =
  | Transient  (** every injected fault clears after one failure *)
  | Hard  (** half the faults persist per page, defeating the retry *)

val profile_label : profile -> string
(** ["transient"] or ["hard"]. *)

type leg = {
  leg : string;  (** ["baseline"] or ["chaos"] *)
  requests : int;
  ok : int;
  budget_exceeded : int;
  timeouts : int;
  errors : int;
  io_errors : int;
  bad_requests : int;
  unavailable : int;
  mismatches : int;
      (** [Ok] payloads that diverged from the oracle, plus rejected
          frames answered with anything but [Bad_request] *)
  untyped : int;  (** exceptions that escaped the wire path — must be 0 *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

(** Log faults injected in the WAL leg, by kind. *)
type wal_faults = {
  append_faults : int;
  sync_faults : int;  (** failed (not torn) syncs *)
  torn_syncs : int;
}

type report = {
  chaos_seed : int;
  chaos_sessions : int;
  chaos_requests : int;
      (** per session, per cold-start wave (each leg replays its
          schedules from a dropped pool three times, so a leg's total is
          [3 * sessions * requests]) *)
  chaos_scale : int;
  profile_label : string;
  faults_injected : int;  (** disk faults injected during the chaos leg *)
  retry_attempts : int;  (** [retry.attempts] delta across the chaos leg *)
  retry_giveups : int;
  wal_rounds : int;
  wal_retry_attempts : int;  (** [retry.attempts] delta in the WAL leg *)
  wal_faults : wal_faults;
  baseline : leg;
  chaos : leg;
  p99_ratio : float;  (** chaos p99 / baseline p99 *)
  violations : string list;  (** empty iff the run passes *)
}

val run :
  ?profile:profile ->
  ?max_p99_ratio:float ->
  sessions:int ->
  requests:int ->
  seed:int ->
  scale:int ->
  unit ->
  report
(** [profile] defaults to [Transient]; [max_p99_ratio] (default 200.0)
    bounds the tolerated chaos-leg p99 degradation. *)

val render : report -> string
(** Human-readable summary, violations last. *)
