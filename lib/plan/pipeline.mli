(** The staged query-compilation pipeline.

    A query compiles through named passes over the shared {!Plan_ir}:

    {v
    source   xq-ast     the parsed, checked query
    rewrite  tpm        for-loops/conditions -> relfors over PSX
    merge    tpm        fuse directly nested relfors (if configured)
    plan     physical   one parameterized plan template per relfor site
    v}

    Every stage is validated ({!Plan_validate}) as it is produced, and
    every stage is retained in the {!staged} result so EXPLAIN can show
    the whole derivation.  Templates are built exactly once per site —
    execution binds parameters ({!Xqdb_optimizer.Planner.bind}) instead
    of replanning per outer tuple. *)

type config = {
  merge_relfors : bool;
  planner : Xqdb_optimizer.Planner.config;
      (** its [carry_out] also selects the rewrite's vartuple shape *)
  batch_size : int;  (** rows per operator batch (validated upstream) *)
}

type ctx = {
  config : config;
  stats : Xqdb_optimizer.Stats.t;
  store : Xqdb_xasr.Node_store.t;
}

type pass = {
  name : string;
  describe : string;
  run : ctx -> Plan_ir.t -> Plan_ir.t;
}

val rewrite_pass : pass
val merge_pass : pass
val plan_pass : pass

val passes : config -> pass list
(** The passes a configuration runs, in order (merge only when
    [merge_relfors]). *)

type staged = {
  stages : (pass * Plan_ir.t) list;
      (** every stage in order, starting with the source AST *)
  phys : Plan_ir.phys;  (** the final physical form *)
}

val compile : ctx -> Xqdb_xq.Xq_ast.query -> staged
(** Run all passes, validating after each.
    @raise Invalid_argument if any stage fails validation.
    May perform page I/O: building templates opens cursors over the
    store. *)

val front : ctx -> Xqdb_xq.Xq_ast.query -> Xqdb_tpm.Tpm_algebra.t
(** Just the logical front half (rewrite + optional merge), validated —
    for tools like the plan laboratory that plan the resulting PSX
    themselves. *)

val render_staged : staged -> string
(** All stages pretty-printed under "== pass: kind ==" headers. *)
