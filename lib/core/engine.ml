module Tree = Xqdb_xml.Xml_tree
module Xml_doc = Xqdb_xml.Xml_doc
module Xml_parser = Xqdb_xml.Xml_parser
module Xml_print = Xqdb_xml.Xml_print
module Xq_ast = Xqdb_xq.Xq_ast
module Xq_parser = Xqdb_xq.Xq_parser
module Xq_check = Xqdb_xq.Xq_check
module Xq_eval = Xqdb_xq.Xq_eval
module Storage = Xqdb_storage
module Store = Xqdb_xasr.Node_store
module Shredder = Xqdb_xasr.Shredder
module Reconstruct = Xqdb_xasr.Reconstruct
module Nav_eval = Xqdb_xasr.Nav_eval
module Xasr = Xqdb_xasr.Xasr
module A = Xqdb_tpm.Tpm_algebra
module Rewrite = Xqdb_tpm.Rewrite
module Merge = Xqdb_tpm.Merge
module Tpm_print = Xqdb_tpm.Tpm_print
module Op = Xqdb_physical.Phys_op
module Tuple = Xqdb_physical.Tuple
module Stats = Xqdb_optimizer.Stats
module Planner = Xqdb_optimizer.Planner
module Plan_ir = Xqdb_plan.Plan_ir
module Pipeline = Xqdb_plan.Pipeline

(* A compiled query: milestones 1/2 evaluate the AST directly; 3/4 hold
   the whole staged pipeline output (every IR stage plus the physical
   form with one plan template per relfor site). *)
type prepared = {
  p_query : Xq_ast.query;
  p_form : form;
}

and form =
  | Direct
  | Staged of Pipeline.staged

type t = {
  config : Engine_config.t;
  disk : Storage.Disk.t;
  pool : Storage.Buffer_pool.t;
  catalog : Storage.Catalog.t;
  store : Store.t;
  doc_stats : Xqdb_xasr.Doc_stats.t;
  stats : Stats.t;
  doc : Xml_doc.t;
  root_out : int;
  (* Keyed by query text; plans depend on config and stats, so the cache
     is per engine value and [with_config]/[session] start fresh ones.
     Bounded LRU — a session replaying ad-hoc query text must not grow
     it without bound. *)
  prepared_cache : prepared Plan_cache.t;
  (* The catalog epoch the cached plans were compiled under.  Plans
     reference node stores and statistics by page, so when a document
     load/drop moves the epoch the whole cache is invalid. *)
  mutable cache_epoch : int;
}
(* One engine per session, one session per worker domain. *)
[@@domain_local]

(* Plenty for the testbed's fixed query mixes; small enough that a
   server session replaying ad-hoc query text cannot grow its cache
   without bound. *)
let plan_cache_capacity = 64

let fresh_cache () = Plan_cache.create plan_cache_capacity

(* The one record builder.  [doc] is the labeled document milestone 1
   evaluates over: built from the loaded forest, or reconstructed from
   the store when attaching. *)
let build config ~disk ~pool ~catalog ~store ~doc_stats ~doc =
  let config = Engine_config.validate config in
  let stats = Stats.make ~quality:config.Engine_config.quality store doc_stats in
  let root_out = (Store.root_tuple store).Xasr.nout in
  { config; disk; pool; catalog; store; doc_stats; stats; doc; root_out;
    prepared_cache = fresh_cache ();
    cache_epoch = Storage.Catalog.epoch catalog }

let load_forest ?(config = Engine_config.m4) forest =
  let disk = Storage.Disk.in_memory () in
  let pool = Storage.Buffer_pool.create ~capacity:config.Engine_config.pool_capacity
      ~retry_policy:config.Engine_config.retry_policy disk in
  let catalog = Storage.Catalog.attach pool in
  let store, doc_stats = Shredder.shred_forest pool ~name:"doc" forest in
  Store.register store catalog ~stats:doc_stats;
  build config ~disk ~pool ~catalog ~store ~doc_stats ~doc:(Xml_doc.of_forest forest)

let load ?config xml = load_forest ?config (Xml_parser.parse_forest xml)

let attach ?(config = Engine_config.m4) ~disk ~pool ~catalog ~store ~doc_stats () =
  build config ~disk ~pool ~catalog ~store ~doc_stats
    ~doc:(Xml_doc.of_forest (Reconstruct.root_forest store))

let with_config config t =
  let config = Engine_config.validate config in
  { t with
    config;
    stats = Stats.make ~quality:config.Engine_config.quality t.store t.doc_stats;
    prepared_cache = fresh_cache ();
    cache_epoch = Storage.Catalog.epoch t.catalog }

(* A per-session view over the same database: shares the store, pool and
   statistics (all read-only after load) but owns its prepared-plan
   cache.  Plans hold mutable state — parameter slots, operator cursors,
   accumulating stats — so two sessions must never execute the same
   prepared value; per-session caches give each session its own compiled
   copies.  [cache_epoch] is mutable, and record copy makes it
   per-session too. *)
let session t = { t with prepared_cache = fresh_cache () }

let config t = t.config
let store t = t.store
let doc_stats t = t.doc_stats
let document t = t.doc
let disk t = t.disk
let pool t = t.pool

(* --- compilation -------------------------------------------------------- *)

let prepared_cache_hits = Storage.Metrics.counter "engine.prepared_cache_hits"
let prepared_cache_evictions = Storage.Metrics.counter "engine.prepared_cache_evictions"
let prepared_cache_invalidations = Storage.Metrics.counter "engine.prepared_cache_invalidations"

let pipeline_ctx t =
  { Pipeline.config =
      { Pipeline.merge_relfors = t.config.Engine_config.merge_relfors;
        planner = t.config.Engine_config.planner;
        batch_size = t.config.Engine_config.batch_size };
    stats = t.stats;
    store = t.store }

(* Wholesale invalidation when the catalog epoch has moved since the
   cached plans were compiled: a document load/drop changes the set of
   node stores and the statistics plans were costed against.  If this
   engine's own document is among the dropped, there is nothing valid to
   recompile against either — its store references dead pages — so that
   surfaces as typed corruption (censored to an [Io_error] status by
   [measured]), never as silently-stale results. *)
let revalidate_cache t =
  let epoch = Storage.Catalog.epoch t.catalog in
  if epoch <> t.cache_epoch then begin
    Plan_cache.clear t.prepared_cache;
    Storage.Metrics.incr prepared_cache_invalidations;
    if List.mem (Store.name t.store) (Store.registered_names t.catalog) then
      t.cache_epoch <- epoch
    else
      (* Leave [cache_epoch] stale so every later compile re-raises. *)
      Storage.Xqdb_error.corrupt "Engine: document %s was dropped" (Store.name t.store)
  end

(* Compile without re-checking; the cache key is the canonical query
   text, so structurally equal queries share one prepared plan. *)
let compile_internal t query =
  revalidate_cache t;
  let key = Xqdb_xq.Xq_print.to_string query in
  match Plan_cache.find t.prepared_cache key with
  | Some p ->
    Storage.Metrics.incr prepared_cache_hits;
    p
  | None ->
    let form =
      match t.config.Engine_config.milestone with
      | Engine_config.M1 | Engine_config.M2 -> Direct
      | Engine_config.Algebraic -> Staged (Pipeline.compile (pipeline_ctx t) query)
    in
    let p = { p_query = query; p_form = form } in
    Plan_cache.put t.prepared_cache key p
      ~on_evict:(fun _ _ -> Storage.Metrics.incr prepared_cache_evictions);
    p

let compile t query =
  Xq_check.check_exn query;
  compile_internal t query

(* --- execution ---------------------------------------------------------- *)

type env = (Xq_ast.var * (int * int)) list

let lookup_env env x =
  match List.assoc_opt x env with
  | Some pair -> pair
  | None -> invalid_arg (Printf.sprintf "Engine: unbound variable %s" (Xqdb_xq.Xq_print.var x))

let as_int = function
  | Tuple.I v -> v
  | Tuple.S _ -> Storage.Xqdb_error.internal "Engine: non-integer binding column"

let out_of t nin =
  match Store.fetch t.store nin with
  | Some tuple -> tuple.Xasr.nout
  | None -> Storage.Xqdb_error.corrupt "Engine: dangling binding"

(* A result is its node's [[in .. out - 1]] range, streamed from the
   primary's leaves; the virtual root's children start at [in] 2.
   Produces a node unless the range is empty (an empty document). *)
let write_out reader buf env x =
  let nin, nout = lookup_env env x in
  let lo = if nin = 1 then 2 else nin and hi = nout - 1 in
  Reconstruct.write_range reader buf ~lo ~hi;
  lo <= hi

let guard_holds t budget env c =
  (* Evaluate the residual condition navigationally, fetching tuples
     only for the variables the condition actually mentions. *)
  let needed = Xq_ast.root_var :: Xq_ast.cond_free_vars c in
  let nav_env =
    List.filter_map
      (fun (v, (nin, _)) ->
        if not (List.mem v needed) then None
        else
          match Store.fetch t.store nin with
          | Some tuple -> Some (v, tuple)
          | None -> None)
      env
  in
  Nav_eval.eval_cond ?budget t.store nav_env c

(* Each relfor site's template carries its own operator tree; stats
   accumulate in place across rebinds, so a nested site's profile is the
   aggregate over all its outer bindings — including on aborted runs
   (budget exhausted, disk fault), which keep a partial breakdown. *)

let arm_staged (staged : Pipeline.staged) budget =
  Plan_ir.iter_sites
    (fun site ->
      Op.set_budget site.Plan_ir.template.Planner.ctx budget;
      Op.zero_stats site.Plan_ir.template.Planner.op)
    staged.Pipeline.phys

let staged_profiles (staged : Pipeline.staged) =
  List.map
    (fun (site : Plan_ir.site) -> Op.profile site.Plan_ir.template.Planner.op)
    (Plan_ir.sites staged.Pipeline.phys)

(* Execution serializes straight into the run's buffer through the
   run's one forward reader.  It returns whether it produced a node, so
   a constructor can choose between [<l/>] and [<l></l>] the way the
   forest printer does: [text { "" }] is a node that writes no byte. *)
let rec exec t budget reader buf (env : env) (phys : Plan_ir.phys) : bool =
  match phys with
  | Plan_ir.P_empty -> false
  | Plan_ir.P_text s ->
    Buffer.add_string buf (Xml_print.escape_text s);
    true
  | Plan_ir.P_constr (label, body) ->
    Buffer.add_char buf '<';
    Buffer.add_string buf label;
    let open_end = Buffer.length buf in
    Buffer.add_char buf '>';
    if exec t budget reader buf env body then begin
      Buffer.add_string buf "</";
      Buffer.add_string buf label;
      Buffer.add_char buf '>'
    end
    else begin
      Buffer.truncate buf open_end;
      Buffer.add_string buf "/>"
    end;
    true
  | Plan_ir.P_seq (p1, p2) ->
    let first = exec t budget reader buf env p1 in
    let second = exec t budget reader buf env p2 in
    first || second
  | Plan_ir.P_out x -> write_out reader buf env x
  | Plan_ir.P_guard (c, body) ->
    guard_holds t budget env c && exec t budget reader buf env body
  | Plan_ir.P_relfor site ->
    let tmpl = site.Plan_ir.template in
    (* Bind this environment's outer values into the parameter slots and
       clear only the parameter-dependent caches; the template's
       operator tree itself is reused, never rebuilt. *)
    Planner.bind tmpl ~env:(lookup_env env);
    let op = tmpl.Planner.op in
    let carry = tmpl.Planner.plan.Planner.config.Planner.carry_out in
    let width = if carry then 2 else 1 in
    if site.Plan_ir.bindings = [] then begin
      (* A nullary relfor is an existence test: its projection holds at
         most the empty tuple, so the first (non-empty) batch decides. *)
      match op.Op.next_batch () with
      | Some _ -> exec t budget reader buf env site.Plan_ir.body
      | None -> false
    end
    else
    let rec loop produced =
      match op.Op.next_batch () with
      | None -> produced
      | Some b ->
        (* The batch is the operator's reusable storage: every binding is
           read out of the column arrays before the next [next_batch]
           call overwrites them.  Body execution between rows is safe —
           nested sites run their own operator trees. *)
        let rec rows row produced =
          if row >= b.Tuple.len then produced
          else begin
            let env' =
              List.concat
                (List.mapi
                   (fun i (bind : A.binding) ->
                     let nin = as_int b.Tuple.cols.(i * width).(row) in
                     let nout =
                       if carry then as_int b.Tuple.cols.((i * width) + 1).(row)
                       else out_of t nin
                     in
                     [(bind.A.var, (nin, nout))])
                   site.Plan_ir.bindings)
              @ env
            in
            let body = exec t budget reader buf env' site.Plan_ir.body in
            rows (row + 1) (produced || body)
          end
        in
        loop (rows 0 produced)
    in
    loop false

(* --- public entry points ------------------------------------------------ *)

type status =
  | Ok
  | Budget_exceeded of string
  | Timeout of string
  | Error of string
  | Io_error of string

type op_profile = Op.profile = {
  op : string;
  args : string;
  rows : int;
  batches : int;
  ios : int;
  own_ios : int;
  seconds : float;
  own_seconds : float;
  inputs : op_profile list;
}

type profile = {
  counters : Storage.Metrics.snapshot;
  operators : op_profile list;
  operator_ios : int;
  other_ios : int;
}

type result = {
  output : string;
  status : status;
  elapsed : float;
  page_ios : int;
  profile : profile;
}

let root_env t = [(Xq_ast.root_var, (1, t.root_out))]

(* Milestones 1/2 evaluate to a forest; the staged forms stream their
   serialization. *)
type output =
  | Forest of Tree.forest
  | Serialized of string

let serialized = function
  | Forest forest -> Xml_print.forest_to_string forest
  | Serialized s -> s

(* Run a prepared query.  [operators] is filled with a profile producer
   before execution starts, so the caller can harvest per-site operator
   breakdowns even when the run aborts mid-way. *)
let rec run_form t budget operators (p : prepared) : output =
  match (p.p_form, t.config.Engine_config.milestone) with
  | Direct, Engine_config.M1 -> Forest (Xq_eval.eval t.doc p.p_query)
  | Direct, Engine_config.M2 -> Forest (Nav_eval.eval ?budget t.store p.p_query)
  | Direct, Engine_config.Algebraic ->
    (* Prepared under a direct-evaluation configuration but executed on
       an algebraic one: compile (through the cache) and re-dispatch. *)
    run_form t budget operators (compile_internal t p.p_query)
  | Staged staged, _ ->
    arm_staged staged budget;
    operators := (fun () -> staged_profiles staged);
    let buf = Buffer.create 1024 in
    ignore (exec t budget (Store.reader t.store) buf (root_env t) staged.Pipeline.phys);
    Serialized (Buffer.contents buf)

(* A staged result's forest is the parse of its output: there is one
   execution path per form. *)
let eval t query =
  let operators = ref (fun () -> []) in
  match run_form t None operators (compile_internal t query) with
  | Forest forest -> forest
  | Serialized s -> Xml_parser.parse_forest ~strip_ws:false s

(* The run's one accounting source is its budget's Metrics scope,
   installed with the budget around compile, execute and serialize: the
   page I/O count, the pool's page-I/O cap check, the operator windows
   and the profile's counters all read it, so a concurrent session's
   work never lands in this run's numbers.  [exec] gets the budget (for
   the deadline and time-cap polls) and a cell for the operator profile
   producer. *)
let measured ?max_page_ios ?max_seconds ?deadline exec =
  let budget = Storage.Budget.create ?max_page_ios ?max_seconds ?deadline () in
  let operators = ref (fun () -> []) in
  let status, output =
    Storage.Budget.run budget (fun () ->
        match exec (Some budget) operators with
        | output -> (Ok, output)
        | exception Storage.Budget.Exhausted msg -> (Budget_exceeded msg, "")
        | exception Storage.Budget.Deadline_exceeded msg -> (Timeout msg, "")
        | exception Xq_eval.Type_error msg -> (Error msg, "")
        | exception Storage.Disk.Disk_error msg -> (Io_error msg, "")
        (* Resource conditions surface as statuses too: a query against
           a fully-pinned pool or an overfull page must censor, not
           crash. *)
        | exception Storage.Buffer_pool.Pool_exhausted msg -> (Io_error msg, "")
        | exception Storage.Page.Page_full msg -> (Io_error msg, "")
        (* Typed data errors (dangling index entries, missing catalog
           keys) censor like disk faults; malformed input surfaces as
           Error.  Xqdb_error.Internal is deliberately NOT caught — an
           engine bug must crash loudly, not be censored. *)
        | exception Storage.Xqdb_error.Corrupt msg -> (Io_error ("corrupt: " ^ msg), "")
        | exception Shredder.Shred_error msg -> (Error msg, ""))
  in
  let elapsed = Storage.Budget.elapsed budget in
  let counters = Storage.Metrics.scope_snapshot (Storage.Budget.scope budget) in
  let page_ios =
    Storage.Metrics.get counters "disk.reads" + Storage.Metrics.get counters "disk.writes"
  in
  let operators = !operators () in
  let operator_ios = List.fold_left (fun acc (p : op_profile) -> acc + p.ios) 0 operators in
  let profile = { counters; operators; operator_ios; other_ios = page_ios - operator_ios } in
  { output; status; elapsed; page_ios; profile }

let run ?max_page_ios ?max_seconds ?deadline t query =
  Xq_check.check_exn query;
  (* Compiling inside the measured window keeps template-construction
     I/O (cursors opened while building plans) in the run's accounting;
     a cache hit makes it free, which is the point. *)
  measured ?max_page_ios ?max_seconds ?deadline (fun budget operators ->
      serialized (run_form t budget operators (compile_internal t query)))

let execute ?max_page_ios ?max_seconds ?deadline t prepared =
  measured ?max_page_ios ?max_seconds ?deadline (fun budget operators ->
      serialized (run_form t budget operators prepared))

let run_string ?max_page_ios ?max_seconds ?deadline t input =
  run ?max_page_ios ?max_seconds ?deadline t (Xq_parser.parse input)

let status_label = function
  | Ok -> "ok"
  | Budget_exceeded msg -> "budget exceeded: " ^ msg
  | Timeout msg -> "timeout: " ^ msg
  | Error msg -> "error: " ^ msg
  | Io_error msg -> "I/O error: " ^ msg

let explain ?(analyze = false) t query =
  match t.config.Engine_config.milestone with
  | Engine_config.M1 -> "milestone 1: in-memory denotational evaluation"
  | Engine_config.M2 -> "milestone 2: navigational evaluation over the XASR store"
  | Engine_config.Algebraic ->
    Xq_check.check_exn query;
    let prepared = compile_internal t query in
    let staged =
      match prepared.p_form with
      | Staged staged -> staged
      | Direct ->
        (* Cannot happen: milestones 3/4 always stage.  Recompile
           defensively rather than assert. *)
        Pipeline.compile (pipeline_ctx t) query
    in
    let base = Pipeline.render_staged staged in
    if not analyze then base
    else begin
      let r = execute t prepared in
      let buf = Buffer.create (String.length base + 1024) in
      Buffer.add_string buf base;
      Buffer.add_string buf "== analyze ==\n";
      let root_rows = List.fold_left (fun acc p -> acc + p.rows) 0 r.profile.operators in
      let root_batches = List.fold_left (fun acc p -> acc + p.batches) 0 r.profile.operators in
      Buffer.add_string buf
        (Printf.sprintf "status: %s\npage I/Os: %d  (operators %d, other %d)\n"
           (status_label r.status) r.page_ios r.profile.operator_ios r.profile.other_ios);
      Buffer.add_string buf
        (Printf.sprintf "rows out: %d in %d batches\n" root_rows root_batches);
      List.iteri
        (fun i p ->
          Buffer.add_string buf (Printf.sprintf "\nsite %d:\n" i);
          Buffer.add_string buf (Op.profile_to_string p);
          Buffer.add_string buf "\n")
        r.profile.operators;
      Buffer.contents buf
    end
