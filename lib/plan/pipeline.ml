module A = Xqdb_tpm.Tpm_algebra
module Rewrite = Xqdb_tpm.Rewrite
module Merge = Xqdb_tpm.Merge
module Planner = Xqdb_optimizer.Planner
module Stats = Xqdb_optimizer.Stats
module Op = Xqdb_physical.Phys_op

type config = {
  merge_relfors : bool;
  planner : Planner.config;
  batch_size : int;
}

type ctx = {
  config : config;
  stats : Stats.t;
  store : Xqdb_xasr.Node_store.t;
}

type pass = {
  name : string;
  describe : string;
  run : ctx -> Plan_ir.t -> Plan_ir.t;
}

(* The rewrite's vartuples and the planner's plans must agree on whether
   out-values are carried, so one setting drives both. *)
let rewrite ctx q =
  Rewrite.query ~config:{ Rewrite.carry_out = ctx.config.planner.Planner.carry_out } q

let wrong_stage pass ir =
  invalid_arg
    (Printf.sprintf "Pipeline: pass %s cannot run on a %s stage" pass (Plan_ir.stage_kind ir))

let rewrite_pass =
  { name = "rewrite";
    describe = "XQ to TPM: for-loops and rewritable conditions become relfors over PSX";
    run =
      (fun ctx ir ->
        match ir with
        | Plan_ir.Ast q -> Plan_ir.Tpm (rewrite ctx q)
        | Plan_ir.Tpm _ | Plan_ir.Phys _ -> wrong_stage "rewrite" ir) }

let merge_pass =
  { name = "merge";
    describe = "fuse directly nested relfors into one PSX (milestone 3's algebraic step)";
    run =
      (fun _ctx ir ->
        match ir with
        | Plan_ir.Tpm tpm -> Plan_ir.Tpm (Merge.merge tpm)
        | Plan_ir.Ast _ | Plan_ir.Phys _ -> wrong_stage "merge" ir) }

let plan_pass =
  { name = "plan";
    describe = "compile each relfor site once into a parameterized physical plan template";
    run =
      (fun ctx ir ->
        match ir with
        | Plan_ir.Tpm tpm ->
          let base = Op.make_ctx ~batch_size:ctx.config.batch_size ctx.store in
          let next_site = ref 0 in
          let rec go (e : A.t) : Plan_ir.phys =
            match e with
            | A.Empty -> Plan_ir.P_empty
            | A.Text_out s -> Plan_ir.P_text s
            | A.Constr (label, body) -> Plan_ir.P_constr (label, go body)
            | A.Seq (t1, t2) -> Plan_ir.P_seq (go t1, go t2)
            | A.Out_var x -> Plan_ir.P_out x
            | A.Guard (c, body) -> Plan_ir.P_guard (c, go body)
            | A.Relfor r ->
              let id = !next_site in
              incr next_site;
              let plan = Planner.plan ctx.config.planner ctx.stats r.A.source in
              let template = Planner.template base plan in
              Plan_ir.P_relfor
                { Plan_ir.id;
                  bindings = r.A.source.A.bindings;
                  source = r.A.source;
                  template;
                  body = go r.A.body }
          in
          Plan_ir.Phys (go tpm)
        | Plan_ir.Ast _ | Plan_ir.Phys _ -> wrong_stage "plan" ir) }

let source_pass =
  { name = "source"; describe = "the parsed and checked XQ query"; run = (fun _ ir -> ir) }

let passes config =
  [rewrite_pass] @ (if config.merge_relfors then [merge_pass] else []) @ [plan_pass]

type staged = {
  stages : (pass * Plan_ir.t) list;
  phys : Plan_ir.phys;
}

let validate ~pass ir =
  match Plan_validate.check ir with
  | Ok () -> ()
  | Error msg ->
    invalid_arg (Printf.sprintf "Pipeline: stage after pass %s is invalid: %s" pass msg)

let compile ctx query =
  let init = Plan_ir.Ast query in
  validate ~pass:source_pass.name init;
  let stages, last =
    List.fold_left
      (fun (acc, ir) pass ->
        let ir' = pass.run ctx ir in
        validate ~pass:pass.name ir';
        ((pass, ir') :: acc, ir'))
      ([(source_pass, init)], init)
      (passes ctx.config)
  in
  match last with
  | Plan_ir.Phys phys -> { stages = List.rev stages; phys }
  | Plan_ir.Ast _ | Plan_ir.Tpm _ -> invalid_arg "Pipeline: final stage is not physical"

let front ctx query =
  let tpm = rewrite ctx query in
  let tpm = if ctx.config.merge_relfors then Merge.merge tpm else tpm in
  validate ~pass:"front" (Plan_ir.Tpm tpm);
  tpm

let render_staged staged =
  let buf = Buffer.create 2048 in
  List.iter
    (fun (pass, ir) ->
      Buffer.add_string buf
        (Printf.sprintf "== %s: %s ==\n" pass.name (Plan_ir.stage_kind ir));
      Buffer.add_string buf (Plan_print.ir_to_string ir);
      Buffer.add_string buf "\n\n")
    staged.stages;
  Buffer.contents buf
