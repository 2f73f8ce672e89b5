(** Cross-milestone differential oracle harness.

    For each seeded trial a random XML forest and a random well-scoped
    XQ query (from {!Gen}) are loaded once, and the query runs under all
    four milestone configurations over the {e same} shredded store.  The
    milestone-1 in-memory evaluator is the oracle: every other milestone
    must produce byte-identical canonical output (or agree on the
    runtime type error the paper allows), and each engine's self-reported
    page-I/O accounting must match the raw disk counters.

    Each configuration is additionally exercised along the {e prepared}
    axis: the query is compiled once ({!Xqdb_core.Engine.compile}) and
    executed twice ({!Xqdb_core.Engine.execute}) through parameter
    rebinding; both executions must reproduce the fresh compilation's
    answer with reconciling accounting, catching stale template caches
    across rebinds.

    The {e batch-vs-tuple} axis reruns each configuration with
    [batch_size = 1] — the identical vectorized operators degraded to
    one row per batch — so any divergence is a vectorization bug rather
    than a plan difference; it too must stay byte-identical with
    reconciling accounting.

    With [fault_rate > 0] every trial is additionally swept under
    {!Xqdb_storage.Fault_disk} injection: each run must end in one of
    the four engine statuses — a crash (any escaped exception) is a
    harness failure — and after the injector detaches, a fault-free
    cold-cache rerun over the same store must still reproduce the oracle
    answer, proving injected faults never silently corrupted the
    persistent pages. *)

type trial = {
  index : int;
  query : string;  (** pretty-printed, for replaying failures *)
  ok : bool;
  detail : string;
}

type fault_report = {
  fault_seed : int;
  trial_index : int;
  injected : int;  (** faults the injector fired across the four runs *)
  crashes : (string * string) list;  (** (config, exception) — must stay [] *)
  io_errors : int;  (** runs censored as [Io_error] *)
  rerun_ok : bool;  (** fault-free rerun reproduced the oracle answer *)
  rerun_detail : string;
}

type report = {
  seed : int;
  count : int;
  fault_rate : float;
  trials : trial list;
  fault_reports : fault_report list;
}

val generate :
  seed:int -> index:int -> Xqdb_xml.Xml_tree.forest * Xqdb_xq.Xq_ast.query
(** The trial inputs for [(seed, index)] — deterministic, so a single
    failing trial can be replayed without the rest of the sweep. *)

val run :
  ?seed:int ->
  ?count:int ->
  ?fault_rate:float ->
  ?fault_seeds:int ->
  unit ->
  report
(** Defaults: [seed 42], [count 100], [fault_rate 0.] (no fault sweep),
    [fault_seeds 1] injector seeds per trial when sweeping. *)

val agreed : report -> int
(** Trials where all milestones matched the oracle. *)

val crash_count : report -> int
val rerun_failures : report -> int
val injected_total : report -> int

val ok : report -> bool
(** All trials agree, zero crashes, zero rerun failures. *)

val render : report -> string

(** {2 Crash-point sweep}

    The crash axis: a fixed durability workload (load [alpha],
    checkpoint, load [beta], checkpoint, drop [beta], checkpoint) over
    an in-memory disk and write-ahead log is first observed to count its
    durability events ({!Xqdb_storage.Crash_point}), then replayed with
    a simulated crash at a spread of those events — alternate points
    crash {e mid-write} (torn).  Recovery from the durable state alone
    must yield a database whose catalog lists only known documents,
    keeps everything checkpointed, never resurrects a dropped document,
    passes {!Xqdb_xasr.Node_store.check_invariants} on every index, and
    answers the trial query identically across milestones. *)

type crash_point_report = {
  point : int;  (** the 1-based durability event the crash hit *)
  torn : bool;
  crashed : bool;  (** whether the workload reached the crash point at all *)
  point_ok : bool;
  point_detail : string;
}

type crash_trial = {
  crash_trial_index : int;
  crash_query : string;  (** pretty-printed, for replaying failures *)
  events_total : int;  (** durability events in the crash-free workload *)
  points : crash_point_report list;
}

type crash_report = {
  crash_seed : int;
  crash_trial_count : int;
  points_per_trial : int;
  crash_trials : crash_trial list;
}

val crash_sweep : ?seed:int -> ?count:int -> ?points:int -> unit -> crash_report
(** Defaults: [seed 42], [count 3] trials, up to [points 10] crash
    points per trial (evenly spaced over the observed events, always
    including the first and last). *)

val crash_points_checked : crash_report -> int
val crash_failures : crash_report -> int

val crash_ok : crash_report -> bool
(** Every trial observed events and every crash point recovered clean. *)

val render_crash : crash_report -> string
