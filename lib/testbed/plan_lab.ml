module A = Xqdb_tpm.Tpm_algebra
module Planner = Xqdb_optimizer.Planner
module Stats = Xqdb_optimizer.Stats
module Op = Xqdb_physical.Phys_op
module Plan_ir = Xqdb_plan.Plan_ir
module Pipeline = Xqdb_plan.Pipeline
module Engine = Xqdb_core.Engine
module Engine_config = Xqdb_core.Engine_config
module W = Xqdb_workload
module Storage = Xqdb_storage

type measurement = {
  name : string;
  description : string;
  plan : string;
  est_cost : float;
  page_ios : int;
  rows : int;
  seconds : float;
}

let query = Xqdb_xq.Xq_parser.parse Queries.example6

(* The laboratory studies the single merged relfor of Example 6; the
   front half of the staged pipeline (rewrite + merge) produces it. *)
let front_config =
  { Pipeline.merge_relfors = true;
    planner = Planner.m4_config;
    batch_size = 256;
    scan_domains = 1 }

let psx_of ctx =
  match Plan_ir.tpm_relfors (Pipeline.front ctx query) with
  | r :: _ -> r.A.source
  | [] -> Xqdb_storage.Xqdb_error.internal "Plan_lab: no relfor"

(* The QP0 configuration: no indexes, no order discipline (sort at the
   end), intermediates on disk. *)
let qp0_config =
  { Planner.use_indexes = false;
    use_struct = false;
    cost_based = false;
    order = `Mem_sort;
    materialize = `Disk;
    carry_out = true }

let run ?(scale = 300) () =
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled scale)] in
  let config = { Engine_config.m4 with Engine_config.pool_capacity = 48 } in
  let engine = Engine.load_forest ~config forest in
  let store = Engine.store engine in
  let stats = Stats.make store (Engine.doc_stats engine) in
  let source = psx_of { Pipeline.config = front_config; stats; store } in
  let aliases = source.A.rels in
  let binding_aliases = List.map (fun (b : A.binding) -> b.A.brel) source.A.bindings in
  let x_alias, y_alias =
    match binding_aliases with
    | [x; y] -> (x, y)
    | _ -> Xqdb_storage.Xqdb_error.internal "Plan_lab: expected two bindings"
  in
  let v_alias =
    match List.filter (fun a -> not (List.mem a binding_aliases)) aliases with
    | [v] -> v
    | _ -> Xqdb_storage.Xqdb_error.internal "Plan_lab: expected one existential relation"
  in
  let root_out =
    (Xqdb_xasr.Node_store.root_tuple store).Xqdb_xasr.Xasr.nout
  in
  let env v =
    if String.equal v Xqdb_xq.Xq_ast.root_var then (1, root_out)
    else Xqdb_storage.Xqdb_error.internal "Plan_lab: unexpected external %s" v
  in
  (* Each plan is measured like an engine run: inside the scope of a
     fresh budget, which supplies both its page I/Os and its seconds. *)
  let measure name description plan =
    let ctx = Op.make_ctx store in
    let budget = Storage.Budget.create () in
    let rows =
      Storage.Metrics.with_scope (Storage.Budget.scope budget) (fun () ->
          let tmpl = Planner.template ctx plan in
          Planner.bind tmpl ~env;
          List.length (Op.drain tmpl.Planner.op))
    in
    { name;
      description;
      plan = Planner.to_string plan;
      est_cost = plan.Planner.est_cost;
      page_ios = Storage.Budget.page_ios budget;
      rows;
      seconds = Storage.Budget.elapsed budget }
  in
  let qp0 =
    measure "QP0" "authors joined before the volume test; order restored by sorting"
      (Planner.plan_with_order qp0_config stats source [y_alias; v_alias; x_alias])
  in
  let qp1 =
    measure "QP1" "order-preserving structural plan: (A join B) join V, NL joins"
      (Planner.plan_with_order Planner.m3_config stats source [x_alias; y_alias; v_alias])
  in
  let qp2 =
    measure "QP2" "volume semijoin first, index nested-loop joins (Figure 6)"
      (Planner.plan_with_order Planner.m4_config stats source [x_alias; v_alias; y_alias])
  in
  [qp0; qp1; qp2]

let render measurements =
  let buf = Buffer.create 1024 in
  List.iter
    (fun m ->
      Buffer.add_string buf
        (Printf.sprintf "%s — %s\n%s\nest. cost %.1f | measured: %d page I/Os, %d rows, %.3fs\n\n"
           m.name m.description m.plan m.est_cost m.page_ios m.rows m.seconds))
    measurements;
  Buffer.contents buf
