(** The query engine: load a document, run XQ queries at any milestone.

    [load] shreds the document into a fresh store (and keeps the
    in-memory labeled document around for milestone-1 evaluation, which
    is the correctness reference).  [run] parses, checks, rewrites,
    optimizes and executes according to the engine configuration,
    returning the serialized result together with the page-I/O and time
    accounting the testbed grades on. *)

type t

val load : ?config:Engine_config.t -> string -> t
(** [load xml] is [load_forest (parse xml)].  File databases are built
    through {!Database}, which logs and checkpoints them. *)

val load_forest : ?config:Engine_config.t -> Xqdb_xml.Xml_tree.forest -> t
(** Shred the forest into a fresh in-memory store; the labeled document
    milestone 1 evaluates over is built from the same forest. *)

val attach :
  ?config:Engine_config.t ->
  disk:Xqdb_storage.Disk.t ->
  pool:Xqdb_storage.Buffer_pool.t ->
  catalog:Xqdb_storage.Catalog.t ->
  store:Xqdb_xasr.Node_store.t ->
  doc_stats:Xqdb_xasr.Doc_stats.t ->
  unit ->
  t
(** Build an engine over an already-shredded store (e.g. one reopened
    from a database file).  The in-memory document needed by milestone 1
    is reconstructed from the store. *)

val with_config : Engine_config.t -> t -> t
(** Same store and document, different engine configuration — engines
    sharing one loaded database is how the testbed compares them. *)

val session : t -> t
(** A per-session view over the same database: shares the store, pool
    and statistics (read-only after load) but owns a fresh prepared-plan
    cache.  Prepared plans hold mutable state (parameter slots, operator
    cursors, accumulating stats), so concurrent sessions must each run
    on their own view — never share one engine value across domains. *)

val config : t -> Engine_config.t
val store : t -> Xqdb_xasr.Node_store.t
val doc_stats : t -> Xqdb_xasr.Doc_stats.t
val document : t -> Xqdb_xml.Xml_doc.t

val disk : t -> Xqdb_storage.Disk.t
(** The disk under the engine's store — the attachment point for
    {!Xqdb_storage.Fault_disk} injection and for I/O accounting checks. *)

val pool : t -> Xqdb_storage.Buffer_pool.t
(** The engine's buffer pool; [drop_all] on it forces cold-cache runs. *)

type status =
  | Ok
  | Budget_exceeded of string
  | Timeout of string
      (** the request's absolute deadline passed mid-run
          ({!Xqdb_storage.Budget.Deadline_exceeded}); censored exactly
          like a budget overrun, but typed so clients can distinguish
          "you asked for too much" from "you ran out of time" *)
  | Error of string
      (** runtime type error, as the paper allows — or malformed input
          surfacing as a typed {!Xqdb_xasr.Shredder.Shred_error} *)
  | Io_error of string
      (** a storage-layer resource failure: an unrecoverable disk fault
          ({!Xqdb_storage.Disk.Disk_error}) that survived the buffer
          pool's bounded retries, a fully-pinned pool
          ({!Xqdb_storage.Buffer_pool.Pool_exhausted}), an overfull
          page ({!Xqdb_storage.Page.Page_full}), or corrupt stored data
          ({!Xqdb_storage.Xqdb_error.Corrupt} — dangling index entries,
          missing catalog keys); the run is censored like a budget
          overrun, never reported as a crash.
          {!Xqdb_storage.Xqdb_error.Internal} — an engine bug — is
          deliberately not censored and crashes the run. *)

type op_profile = Xqdb_physical.Phys_op.profile = {
  op : string;
  args : string;
  rows : int;
  batches : int;  (** [next_batch] calls that returned rows *)
  ios : int;  (** inclusive page I/Os (includes the inputs') *)
  own_ios : int;  (** exclusive page I/Os *)
  seconds : float;
  own_seconds : float;
  inputs : op_profile list;
}

type profile = {
  counters : Xqdb_storage.Metrics.snapshot;
      (** the counters charged to the run's scope, non-zero entries
          sorted by name — this run's work only, even under concurrent
          sessions; [disk.reads], [disk.writes] and [disk.allocs] among
          them *)
  operators : op_profile list;
      (** one aggregated operator tree per relfor compile site, in plan
          order; partial (but present) on censored runs *)
  operator_ios : int;  (** sum of the [operators] roots' inclusive I/Os *)
  other_ios : int;
      (** page I/Os outside operator trees — guard evaluation, output
          reconstruction, nout lookups; [operator_ios + other_ios] equals
          [page_ios] by construction *)
}

type result = {
  output : string;  (** canonical serialization; [""] if not [Ok] *)
  status : status;
  elapsed : float;  (** elapsed seconds (monotonic clock) *)
  page_ios : int;  (** disk reads + writes charged to the run's scope *)
  profile : profile;  (** where those I/Os and seconds went *)
}

val run :
  ?max_page_ios:int ->
  ?max_seconds:float ->
  ?deadline:float ->
  t ->
  Xqdb_xq.Xq_ast.query ->
  result
(** Compile (through the prepared cache) and execute.  The compile
    happens inside the measured window, so first-run template
    construction I/O is accounted to the run — and a cache hit makes the
    whole front end free.  [deadline] is an absolute
    {!Xqdb_storage.Monotonic} instant; past it the run censors with
    [Timeout]. *)

type prepared
(** A compiled query bound to the engine it was prepared on: for
    milestones 3/4 the full staged pipeline output, with one
    parameterized plan template per relfor site.  Repeated execution
    rebinds the templates' parameter slots instead of replanning. *)

val compile : t -> Xqdb_xq.Xq_ast.query -> prepared
(** Compile through the engine's prepared cache (keyed by canonical
    query text; hits count [engine.prepared_cache_hits]).  The cache
    belongs to one engine value — [with_config] and [session] start
    fresh ones.  It holds at most {!plan_cache_capacity} plans: beyond
    that the least-recently-used plan is evicted
    ([engine.prepared_cache_evictions]).  When the catalog
    epoch has moved since the cached plans were compiled (a document was
    loaded or dropped), the whole cache is invalidated
    ([engine.prepared_cache_invalidations]); if this engine's own
    document was dropped, compilation raises typed corruption — censored
    to an [Io_error] status by {!run} — rather than serving plans over
    dead pages.
    @raise Invalid_argument if the query fails {!Xqdb_xq.Xq_check}. *)

val plan_cache_capacity : int
(** Prepared plans one engine value keeps (64). *)

val execute :
  ?max_page_ios:int -> ?max_seconds:float -> ?deadline:float -> t -> prepared -> result
(** Execute a prepared query: bind parameters, reset the cached operator
    trees and drain them — no rewriting, merging or planning. *)

val run_string :
  ?max_page_ios:int -> ?max_seconds:float -> ?deadline:float -> t -> string -> result
(** Parse and run.  @raise Xqdb_xq.Xq_parser.Parse_error,
    [Invalid_argument] on check failure. *)

val eval : t -> Xqdb_xq.Xq_ast.query -> Xqdb_xml.Xml_tree.forest
(** Evaluate without budget, returning the forest.
    @raise Xqdb_xq.Xq_eval.Type_error on ill-typed comparisons. *)

val explain : ?analyze:bool -> t -> Xqdb_xq.Xq_ast.query -> string
(** Every stage of the compilation pipeline (source AST, TPM after each
    logical pass, physical form with one plan template per relfor site)
    pretty-printed under "== pass: kind ==" headers; milestones 1/2
    report their evaluation strategy instead.  With [analyze], the query
    is also executed and the per-site operator profiles (rows, page
    I/Os, seconds per operator) are appended. *)
