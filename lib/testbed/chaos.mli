(** The chaos harness: the {!Traffic} driver re-run under seeded fault
    injection, with the fault-free run as its own oracle.

    A chaos run has three phases over one database:

    + a {e fault-free baseline} leg (after the driver's oracle records
      every distinct query's answer): schedules drawn with abuse — a
      seeded sprinkle of hostile frames (garbage bytes through the wire
      decoder), already-expired deadlines and stale-version frames mixed
      into the well-formed requests;
    + a {e chaos} leg: the same schedules with a
      {!Xqdb_storage.Fault_disk} injector armed;
    + a single-threaded {e WAL-fault} leg on a scratch file database:
      load/drop/checkpoint cycles with transient [Wal] append/sync
      faults injected, asserting the storage retry absorbed them
      ([retry.attempts] grew) and that a fresh [open_file] recovers the
      file afterwards.

    The run's acceptance checks come back as [violations] (empty =
    pass): both legs' driver verdicts (zero untyped escapes, zero oracle
    mismatches), transient faults invisible to clients (chaos-leg status
    counts equal to the baseline's), hard faults surfaced as typed
    [Io_error]s, retries actually exercised, and chaos-leg p99 latency
    within 200x of the baseline's. *)

type profile =
  | Transient  (** every injected fault clears after one failure *)
  | Hard  (** half the faults persist per page, defeating the retry *)

(** Log faults injected in the WAL leg, by kind. *)
type wal_faults = {
  append_faults : int;
  sync_faults : int;  (** failed (not torn) syncs *)
  torn_syncs : int;
}

type report = {
  profile : profile;
  seed : int;
  sessions : int;
  requests : int;
      (** per session, per cold-start wave (each leg replays its
          schedules from a dropped pool three times, so a leg's total is
          [3 * sessions * requests]) *)
  scale : int;
  faults_injected : int;  (** disk faults injected during the chaos leg *)
  retry_attempts : int;  (** [retry.attempts] delta across the chaos leg *)
  retry_giveups : int;
  wal_rounds : int;
  wal_retry_attempts : int;  (** [retry.attempts] delta in the WAL leg *)
  wal_faults : wal_faults;
  baseline : Traffic.outcome;  (** the fault-free leg *)
  chaos : Traffic.outcome;  (** the same schedules over the faulting disk *)
  p99_ratio : float;  (** chaos p99 / baseline p99 *)
  violations : string list;  (** empty iff the run passes *)
}

val run :
  ?profile:profile ->
  sessions:int ->
  requests:int ->
  seed:int ->
  scale:int ->
  unit ->
  report
(** [profile] defaults to [Transient]. *)

val render : report -> string
(** Human-readable summary, violations last. *)
