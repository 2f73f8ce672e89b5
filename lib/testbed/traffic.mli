(** The serving harnesses' driver, and the traffic harness built on it.

    The driver plays client sessions over one shared database: each
    session replays a schedule of {!slot}s drawn deterministically from a
    seed, and every slot goes through the server's real connection loop
    in-process ({!Xqdb_server.Server.handle_connection} over one encoded
    frame, then EOF).  Each response is tallied by status and checked
    against an {!oracle}: one unbudgeted, fault-free session's answer to
    every distinct query, recorded before any concurrency starts.  A
    frame the decoder must reject has to get [Bad_request]; a dead
    deadline, [Timeout]; a well-formed request, the oracle's status and
    payload within the page cap, or a page-cap censor that stopped in
    [(cap, cap + 2]] (which requests a cap censors depends on what the
    other sessions left in the shared pool).  On a faulting disk a
    request may also fail with a typed [Io_error].  A response that does
    not conform counts as a mismatch; a frame answered other than
    exactly once, or an exception escaping the loop, counts as untyped.
    After every wave of sessions joins, the shared pool must be
    quiescent (no pins, no held latches); a leak raises
    {!Xqdb_storage.Xqdb_error.Internal}.

    {!run} is the traffic harness: concurrent sessions of well-formed
    requests sampling the five efficiency queries plus the Section-2
    example, from a cold pool.  Besides zero mismatches and zero untyped
    escapes, its verdict requires conservation: the page I/Os the
    responses report sum to exactly the disk's read + write delta over
    the concurrent phase — each request is charged for its own I/O and
    nobody else's.  {!Chaos} runs the same driver with abusive slots and
    fault injection. *)

val doc_name : string
(** The name the shared DBLP document is loaded under. *)

val mix : unit -> (string * string) list
(** The query mix sessions sample: the five efficiency queries plus the
    Section-2 example, as (name, text). *)

val load : ?config:Xqdb_core.Engine_config.t -> scale:int -> unit -> Xqdb_core.Database.t
(** A fresh in-memory database holding DBLP at [scale] as {!doc_name}. *)

(** What one slot of a session's schedule sends. *)
type slot =
  | Normal of int  (** mix entry [i] *)
  | Stale_version of int
      (** mix entry [i] under an unsupported version byte: one
          [Bad_request] *)
  | Expired of int  (** mix entry [i] with an already-dead deadline: [Timeout] *)
  | Hostile of int
      (** hostile byte string [i] (garbage magic, truncated header,
          unknown kind, oversize declaration, truncated payload): one
          [Bad_request] *)

val schedule : abuse:bool -> seed:int -> requests:int -> int -> slot array
(** [schedule ~abuse ~seed ~requests k] is session [k]'s schedule,
    deterministic in [(seed, k)].  Without [abuse] every slot is
    [Normal]; with it, about 4% are [Hostile], 4% [Expired] and 8%
    [Stale_version]. *)

type oracle = (string, Xqdb_server.Wire.status_code * string) Hashtbl.t
(** Query text to the (status, payload) the oracle session got. *)

val record_oracle : Xqdb_core.Database.t -> oracle
(** Every mix query once, through the same transport, on one session
    without caps.  Run it before any fault injector is armed. *)

(** One session's, or one leg's, responses. *)
type outcome = {
  counts : int array;  (** responses by status; read them with {!count} *)
  untyped : int;  (** frames not answered exactly once, or escaped exceptions *)
  mismatches : int;  (** responses that do not conform to the oracle *)
  latencies : float array;  (** seconds, one per slot, sorted ascending *)
  page_ios : int;  (** summed over the responses *)
}

val count : outcome -> Xqdb_server.Wire.status_code -> int

val percentile_ms : outcome -> float -> float
(** [percentile_ms o q] for [q] in [0, 1], in milliseconds; 0 with no
    requests. *)

val merge : outcome list -> outcome

val play_session :
  ?max_page_ios:int ->
  ?max_seconds:float ->
  ?faults:bool ->
  oracle:oracle ->
  Xqdb_core.Database.t ->
  slot array ->
  outcome
(** One client session, on the calling domain: a fresh server session
    (admitting under the caps, which every request also carries) plays
    the slots in order.  [faults] (default [false]) admits [Io_error] for
    well-formed requests. *)

val wave :
  ?max_page_ios:int ->
  ?max_seconds:float ->
  ?faults:bool ->
  oracle:oracle ->
  after:string ->
  Xqdb_core.Database.t ->
  slot array array ->
  outcome array * float * int
(** Drop the shared pool, then {!play_session} [scheds.(k)] on one
    domain per session (a single session stays on the calling domain),
    and assert the pool quiescent once all join ([after] names that
    point).  Returns the sessions' outcomes, the wall-clock seconds and
    the disk's page I/Os over the concurrent phase. *)

val violations : label:string -> outcome -> string list
(** Untyped escapes and oracle mismatches, each a line naming [label]. *)

val render_outcome : string -> outcome -> string
(** One line: the label, the status counts, mismatches, untyped escapes
    and latency percentiles. *)

val render_verdict : string list -> string
(** ["PASS"], or one line per violation. *)

type report = {
  sessions : int;
  requests_per_session : int;
  seed : int;
  scale : int;
  wall_seconds : float;
  throughput : float;  (** completed requests per wall-clock second *)
  per_session : outcome array;
  total : outcome;
  violations : string list;  (** empty iff the run passes *)
}

val run :
  ?max_page_ios:int ->
  ?max_seconds:float ->
  sessions:int ->
  requests:int ->
  seed:int ->
  scale:int ->
  unit ->
  report
(** The caps become every session's admission limits (requests censor to
    [Budget_exceeded] when they trip, sessions and server live on); the
    oracle runs without them. *)

val render : report -> string
(** Human-readable summary, violations last. *)
