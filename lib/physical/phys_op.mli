(** Physical operators (milestones 3 and 4).

    Vectorized Volcano-style pull iterators: operators exchange columnar
    {!Tuple.batch}es instead of single tuples, so the per-call costs —
    closure dispatch, budget polls, stats/I/O attribution — are paid
    once per batch.  Logical TPM/PSX expressions are compiled into trees
    of these by the planner; the key physical choices of the paper
    appear as distinct constructors:

    - order-preserving nested-loop join ({!nl_join}) — the milestone-3
      workhorse ("but no block-nested-loops join", which would destroy
      order);
    - index nested-loop join ({!inl_join}) and index-based selection
      ({!label_scan}) — milestone 4;
    - projection with one-pass duplicate removal over sorted input
      ({!project} with [`Adjacent]) — the milestone-3 "basic strategy";
    - external sort ({!sort} with [`External]) — ordering approach (a);
    - clustered-B-tree sorting ({!btree_sort}) — the students' "creative
      workaround" (approach (c));
    - disk materialization of intermediates ({!materialize}) — milestone
      3's "write each intermediate result to disk and re-read it".

    All operators poll the context's {!Xqdb_storage.Budget} once per
    batch for its deadline and time cap.  The page-I/O cap is not
    polled: the buffer pool enforces it on the I/O itself, so a plan is
    censored within two I/Os of its cap whatever the batch size. *)

module A := Xqdb_tpm.Tpm_algebra

type ctx = {
  store : Xqdb_xasr.Node_store.t;
  pool : Xqdb_storage.Buffer_pool.t;  (** for temp structures *)
  mutable budget : Xqdb_storage.Budget.t option;
      (** polled for the deadline and time cap; templates outlive any
          single run, so the budget is swapped in per execution via
          {!set_budget} *)
  params : Tuple.params;
      (** parameter slots the operators compile external references
          against; [Tuple.no_params] outside a template *)
  batch_size : int;  (** rows per {!Tuple.batch} (validated positive) *)
}

val make_ctx :
  ?budget:Xqdb_storage.Budget.t ->
  ?params:Tuple.params ->
  ?batch_size:int ->
  Xqdb_xasr.Node_store.t ->
  ctx
(** [batch_size] defaults to 256 rows.
    @raise Invalid_argument when it is [< 1]. *)

val with_params : ctx -> Tuple.params -> ctx
(** A derived context sharing the store/pool but compiling against the
    given parameter slots (with its own budget cell). *)

val set_budget : ctx -> Xqdb_storage.Budget.t option -> unit

type info = {
  name : string;
  detail : string;
  children : info list;
}

type stats = {
  mutable rows : int;  (** tuples produced by [next_batch] *)
  mutable batches : int;  (** batches produced by [next_batch] *)
  mutable ios : int;  (** inclusive page I/Os during [next_batch]/[reset] *)
  mutable seconds : float;  (** inclusive elapsed seconds during [next_batch]/[reset] *)
}

type t = {
  schema : Tuple.schema;
  next_batch : unit -> Tuple.batch option;
      (** the returned batch is the operator's reusable backing storage:
          valid only until the next [next_batch] call, never empty *)
  reset : unit -> unit;
  info : info;
  stats : stats;
  kids : t list;  (** operator inputs, for profile trees *)
  param_dep : bool;
      (** whether this subtree's output depends on parameter slots *)
  clear : unit -> unit;
      (** drop caches a rebind invalidates (this node only; see
          {!rebind}) *)
}

val next_batch : t -> Tuple.batch option
(** Pull the operator's next batch.  Returned batches are non-empty and
    owned by the operator — consume (or copy out of) a batch before
    pulling the next one. *)

val rebind : t -> unit
(** Prepare a template's operator tree for new parameter bindings: walk
    the tree clearing every cache whose contents depend on parameter
    slots.  Parameter-independent caches (a cached inner relation of a
    join, a spooled sort) deliberately survive — reusing them across
    outer bindings is the point of plan templates.  Callers still
    [reset] afterwards to restart iteration. *)

val zero_stats : t -> unit
(** Reset the accumulated per-operator stats of the whole tree, so a
    reused template reports per-execution (not cumulative) profiles. *)

val close : ctx -> t -> unit
(** Declare an operator tree done.  Operators hold no page pins between
    [next_batch] calls (all page access is scoped through the pool), so
    this releases nothing; under a sanitizing pool
    ({!Xqdb_storage.Buffer_pool.sanitizing}) it asserts that invariant,
    raising {!Xqdb_storage.Buffer_pool.Pin_leak} with the acquisition
    backtraces if a pin escaped.  The engine closes every relfor site's
    tree after draining it. *)

val pp_info : Format.formatter -> info -> unit
val info_to_string : info -> string

(** {2 Profiles}

    Every operator measures itself: its [next_batch] and [reset]
    closures are wrapped so that rows and batches produced, page I/Os
    and elapsed time spent inside them accumulate into [stats].  The
    page I/Os are those the disks charge to the installed
    {!Xqdb_storage.Metrics.scope} — the running request's, which the
    engine installs around a measured run — so under concurrent sessions
    an operator is never charged for another session's I/O; outside any
    scope operators report zero I/Os.  Attribution is at batch
    granularity — two scope reads and two clock reads per batch, not per
    row — which is where vectorization wins back the measurement
    overhead.  The measurements are inclusive (a child only
    runs inside its parent's call windows); {!profile} turns an operator
    tree into a tree of per-operator numbers with the exclusive share
    ([own_ios], [own_seconds]) recovered by subtracting the inputs'
    inclusive totals. *)

type profile = {
  op : string;  (** operator name, as in [info.name] *)
  args : string;  (** operator detail, as in [info.detail] *)
  rows : int;
  batches : int;
  ios : int;  (** inclusive page I/Os *)
  own_ios : int;  (** exclusive: [ios] minus the inputs' [ios] *)
  seconds : float;
  own_seconds : float;
  inputs : profile list;
}

val profile : t -> profile
(** Snapshot the operator tree's accumulated stats. *)

val pp_profile : Format.formatter -> profile -> unit
(** Indented tree with per-operator rows / batches / inclusive and
    exclusive I/Os / seconds — what EXPLAIN's analyze mode prints. *)

val profile_to_string : profile -> string

val merge_profile : profile -> profile -> profile
(** Pointwise sum of two profiles of the same plan shape; used to
    aggregate the instantiations a nested relfor makes per outer
    binding into one breakdown per compile-time site. *)

val drain : t -> Tuple.t list
val count : t -> int

(** {2 Row-wise consumption} *)

type cursor = {
  pull : unit -> Tuple.t option;
      (** materialize the next row of the child's batch stream *)
  restart : unit -> unit;
      (** reset the child and forget the held batch *)
}

val cursor_of : t -> cursor
(** A tuple-at-a-time view of an operator's batch stream, for consumers
    whose logic is inherently row-wise.  The held batch is fully
    consumed before the child is pulled again, so batch reuse is
    safe. *)

(* --- access paths --- *)

val full_scan : ctx -> string -> preds:A.pred list -> t
(** Clustered scan of the whole XASR relation under [alias]: whole
    primary leaves are decoded per pool access and rows are staged
    straight into the output batch's columns, where the (ground) local
    predicates are evaluated in place — no per-tuple allocation. *)

val label_scan :
  ctx -> string -> ntype:Xqdb_xasr.Xasr.node_type -> value:string -> preds:A.pred list -> t
(** Index-based selection via the label index; [preds] are the residual
    local predicates beyond type/value. *)

val struct_scan : ctx -> string -> label:string -> preds:A.pred list -> t
(** Index-only selection via the structural index: streams full element
    tuples for one label without touching the primary.  [preds] are
    residual local predicates (any type/value predicates are trivially
    true on the stream and merely re-checked). *)

val empty : Tuple.schema -> t
(** Produces nothing; the compiled form of a provably empty input. *)

val singleton : Tuple.schema -> Tuple.t -> t
(** One-tuple input; with an empty schema this is the nullary relation
    containing the empty tuple, the unit of products. *)

(* --- joins --- *)

type probe =
  | Probe_child of A.operand
      (** inner.parent_in = v: parent-index lookup *)
  | Probe_desc of A.operand * A.operand
      (** v_in < inner.in && inner.in < v_out: clustered range scan
          (the interval property makes the out comparison implicit) *)
  | Probe_pk of A.operand  (** inner.in = v: primary lookup *)

val nl_join :
  ?materialize_inner:[`Mem | `Disk] ->
  ?semi:bool ->
  preds:A.pred list ->
  t ->
  t ->
  ctx ->
  t
(** Order-preserving nested-loop join (a product when [preds] is []).
    The inner input is re-iterated per outer tuple: cached in memory
    ([`Mem], default) or spooled to disk ([`Disk], milestone 3's mode).
    A [`Mem] inner is also keyed on the first predicate equating an
    outer column with an inner one: each outer tuple walks only the
    cached rows with its key value, in inner order, so rows, order,
    stats and page I/O are the full loop's.  A [`Disk] inner is never
    keyed — each rescan pays its page visits.  With [semi], at most one
    match is emitted per outer tuple (the short-circuit a semijoin
    affords). *)

val bnl_join :
  ?block_size:int ->
  preds:A.pred list ->
  t ->
  t ->
  ctx ->
  t
(** Block nested-loop join: buffers [block_size] outer tuples (default
    64) and scans the inner once per block instead of once per tuple.
    Cheaper than {!nl_join}, but the output comes inner-major within
    each block — it {e destroys} document order, which is why the
    paper's milestone 3 forbids it in order-preserving plans.  The
    planner only emits it under the sorting strategies. *)

val inl_join :
  ?semi:bool ->
  ctx ->
  probe:probe ->
  alias:string ->
  preds:A.pred list ->
  residual:A.pred list ->
  t ->
  t
(** Index nested-loop join: for each outer tuple, probe the inner XASR
    copy [alias] through an index.  [preds] are the inner's local
    predicates, [residual] any remaining join predicates (checked on the
    combined schema).  Probe operands are compiled against the outer
    schema. *)

val struct_join :
  ?semi:bool ->
  ctx ->
  lo:A.operand ->
  hi:A.operand ->
  alias:string ->
  label:string ->
  preds:A.pred list ->
  residual:A.pred list ->
  t ->
  t
(** Staircase structural join: emits, per outer tuple, the inner label's
    elements with [lo < in < hi], located by binary search in the
    label's structural-index run.  The run is loaded once (whole index
    leaves per pool access) and — being parameter-independent — survives
    template rebinds.  Output order and semantics match {!inl_join} with
    [Probe_desc]; the page I/O cost does not scale with outer
    cardinality. *)

type twig_axis =
  | Twig_child
  | Twig_desc

type twig_step = {
  tw_alias : string;
  tw_label : string;
  tw_axis : twig_axis;
      (** relationship to the {e previous} step; the first step's axis
          is relative to the anchor interval and is always treated as
          descendant containment *)
}

val twig_match :
  ctx -> anchor:(A.operand * A.operand) option -> steps:twig_step list -> t
(** Stack-based holistic twig (path-pattern) matching over the
    structural index, PathStack-style: one index stream and one stack
    per step, merged by [in], near-linear in the input streams plus the
    output.  [anchor], when given, restricts the first step to
    [lo < in && out < hi]; its operands must be constants or externs.
    The output schema is the concatenation of the steps' XASR schemas;
    solutions come lexicographically ordered by the steps' [in] columns,
    i.e. exactly the order of the equivalent left-deep order-preserving
    nested-loop plan. *)

(* --- projection, dedup, sort, materialization --- *)

val project : cols:A.col list -> dedup:[`No | `Adjacent | `Hash] -> t -> t

val filter : ?params:Tuple.params -> preds:A.pred list -> t -> t

val sort :
  ?dedup:bool ->
  mode:[`In_mem | `External] ->
  key_cols:A.col list ->
  t ->
  ctx ->
  t

val btree_sort : ?dedup:bool -> key_cols:A.col list -> t -> ctx -> t
(** Sort by inserting into a scratch clustered B+-tree and scanning it —
    approach (c).  With [dedup] (default true) key collisions overwrite,
    which is exactly the duplicate elimination wanted on vartuples. *)

val materialize : [`Mem | `Disk] -> t -> ctx -> t
(** Spool the input once; [reset] then re-reads the spool. *)
