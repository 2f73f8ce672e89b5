(** Physical operators (milestones 3 and 4): vectorized pull iterators
    exchanging columnar {!Tuple.batch}es, so closure dispatch, budget
    polls and stats are paid once per batch.  The paper's physical
    choices are distinct constructors: order-preserving nested-loop
    joins ({!nl_join}), index nested-loop joins and index selection
    ({!inl_join}, {!label_scan}), one-pass adjacent dedup ({!project}),
    external and clustered-B-tree sorting ({!sort}, {!btree_sort}) and
    disk materialization ({!materialize}).

    Every batch is filled by one loop, which polls the context's
    {!Xqdb_storage.Budget} for its deadline and time cap.  The page-I/O
    cap is not polled: the buffer pool enforces it on the I/O itself. *)

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

(** {2 Profiles}

    Every operator measures itself: rows and batches produced, and the
    page I/Os and elapsed time spent inside its [next_batch] and [reset],
    accumulate into [stats].  The page I/Os are those charged to the
    installed {!Xqdb_storage.Metrics.scope} (the running request's), so
    concurrent sessions never charge each other; outside any scope they
    are zero.  The measurements are inclusive; {!profile} recovers the
    exclusive share by subtracting the inputs' totals. *)

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

val drain : t -> Tuple.t list
(** Reset and collect every row. *)

val count : t -> int

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

(* --- projection, sort, materialization --- *)

val project : cols:A.col list -> dedup:[`No | `Adjacent] -> t -> t
(** [`Adjacent] drops a row equal to the previous one: one-pass dedup
    over sorted input, the milestone-3 "basic strategy". *)

val sort : mode:[`In_mem | `External] -> key_cols:A.col list -> t -> ctx -> t
(** Sort on [key_cols], in memory or externally (approach (a)), keeping
    the first row of each run of equal keys. *)

val btree_sort : key_cols:A.col list -> t -> ctx -> t
(** Sort by inserting into a scratch clustered B+-tree and scanning it —
    approach (c).  Key collisions overwrite, which is exactly the
    duplicate elimination wanted on vartuples. *)

val materialize : [`Mem | `Disk] -> t -> ctx -> t
(** Spool the input once; [reset] then re-reads the spool.  [`Disk]
    spools to a heap file, as {!nl_join}'s [`Disk] inner does. *)
