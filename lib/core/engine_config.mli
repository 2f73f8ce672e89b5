(** Engine configurations.

    One code base, many engines: a configuration fixes which milestone's
    evaluation strategy runs and, for the algebraic milestones, which
    optimizations are on.  The five Figure-7 configurations model the
    paper's top five student engines through the axes the paper says
    separated them (index structures, cost-based reordering, estimate
    quality, pipelining vs. materialization). *)

type milestone =
  | M1  (** in-memory evaluator *)
  | M2  (** navigational secondary-storage evaluator *)
  | Algebraic
      (** milestones 3 and 4: TPM algebra compiled to physical plans;
          the [planner] config is what tells them apart *)

(** Every field backs a preset, an ablation or a Figure-7 engine (see
    DESIGN.md, "Engine configuration"). *)
type t = {
  name : string;
  milestone : milestone;
  merge_relfors : bool;  (** milestone-3 relfor merging *)
  planner : Xqdb_optimizer.Planner.config;
  quality : Xqdb_optimizer.Stats.quality;
  pool_capacity : int;  (** buffer-pool frames: the "20 MB" knob *)
  batch_size : int;
      (** rows per operator batch; validated by {!validate} *)
  retry_policy : Xqdb_storage.Retry.policy;
      (** the buffer pool's transient-disk-fault retry policy; the chaos
          harness deepens it when it cranks fault rates up *)
}

val max_batch_size : int
(** Upper bound on [batch_size]: the page size in bytes, which bounds
    the rows a page-at-a-time scan can stage from one page pull. *)

val validate : t -> t
(** Clamp [batch_size] to {!max_batch_size}.
    @raise Invalid_argument when [batch_size <= 0].  Every engine
    constructor applies this. *)

val m1 : t
val m2 : t
val m3 : t
val m4 : t

val m4_nostruct : t
(** Milestone 4 with [use_struct] forced off — the index-vs-scan axis of
    the differential oracle and the structural bench's baseline. *)

(* The five Figure-7 engines, ranked 1..5 as in the paper. *)

val engine1 : t
(** Robust cost-based engine: indexes, reordering, good estimates,
    intermediate results spooled to disk — never great, never terrible. *)

val engine2 : t
(** Aggressive pipelined engine with unlucky (inverted) selectivity
    estimates: fastest of all on the easy tests, but leaves the very
    unselective join at the bottom of the plan on the skewed tests and
    blows the budget there. *)

val engine3 : t
(** A milestone-3 engine retrofitted with index structures: structural
    join order (no cost-based reordering) and every intermediate still
    written to disk. *)

val engine4 : t
(** Cost-based reordering and statistics but no index structures
    (milestone-3 physical operators with milestone-4 planning): pays
    full scans wherever the others probe. *)

val engine5 : t
(** Plain milestone-3 engine: merged relfors, selection pushdown, NL
    joins, everything on disk, no statistics. *)

val figure7_engines : t list

val all_presets : t list
(** m1..m4 plus the five engines. *)
