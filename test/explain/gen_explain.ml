module Engine = Xqdb_core.Engine
module Config = Xqdb_core.Engine_config
module Planner = Xqdb_optimizer.Planner
module T = Xqdb_testbed
module W = Xqdb_workload

(* The operator-profile golden: every operator's rows, batches and page
   I/Os over runs that together build every physical operator kind.
   Times are never printed, so the file is byte-stable. *)

let rec print_op indent (p : Engine.op_profile) =
  Printf.printf "%s%s%s  rows %d  batches %d  ios %d  own %d\n" indent p.Engine.op
    (if String.equal p.Engine.args "" then "" else " [" ^ p.Engine.args ^ "]")
    p.Engine.rows p.Engine.batches p.Engine.ios p.Engine.own_ios;
  List.iter (print_op (indent ^ "  ")) p.Engine.inputs

let print_cell ?max_page_ios title engine text =
  let r = Engine.run ?max_page_ios engine (Xqdb_xq.Xq_parser.parse text) in
  let status =
    match r.Engine.status with
    | Engine.Ok -> "ok"
    | Engine.Budget_exceeded _ -> "censored"
    | Engine.Timeout _ -> "timeout"
    | Engine.Error msg -> "error: " ^ msg
    | Engine.Io_error msg -> "i/o error: " ^ msg
  in
  Printf.printf "===== %s =====\n%s  page_ios %d  operators %d  other %d\n" title status
    r.Engine.page_ios r.Engine.profile.Engine.operator_ios r.Engine.profile.Engine.other_ios;
  List.iter (print_op "  ") r.Engine.profile.Engine.operators

(* The Figure-7 cells as grade-fig7 runs them at DBLP 400: each engine
   on its own fresh database, the tests in order, budgets scaled from
   60k (8k for tests 3 and 5) at DBLP 2500. *)
let fig7 () =
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled 400)] in
  let budget = function
    | "test3-semijoin" | "test5-unrelated" -> 8_000 * 400 / 2500
    | _ -> 60_000 * 400 / 2500
  in
  List.iter
    (fun config ->
      let engine = Engine.load_forest ~config forest in
      List.iter
        (fun (test, text) ->
          print_cell ~max_page_ios:(budget test)
            (Printf.sprintf "fig7 / %s / %s" config.Config.name test)
            engine text)
        T.Queries.efficiency_queries)
    Config.figure7_engines

(* Example 6 under every ordering strategy, and without indexes so the
   plans hold NL and BNL joins. *)
let example6 () =
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled 400)] in
  let base = { Config.m4 with Config.pool_capacity = 48 } in
  let no_indexes = { base.Config.planner with Planner.use_indexes = false } in
  List.iter
    (fun (name, planner) ->
      let engine = Engine.load_forest ~config:{ base with Config.planner } forest in
      print_cell ("example6 / " ^ name) engine T.Queries.example6)
    [ ("preserve", base.Config.planner);
      ("ext-sort", { base.Config.planner with Planner.order = `Ext_sort });
      ("mem-sort", { base.Config.planner with Planner.order = `Mem_sort });
      ("btree-sort", { base.Config.planner with Planner.order = `Btree_sort });
      ("no-index nl", no_indexes);
      ("no-index mem-sort", { no_indexes with Planner.order = `Mem_sort }) ]

(* The structural operators: staircase joins and twig matching. *)
let deep () =
  let forest = [W.Treebank_gen.generate (W.Treebank_gen.scaled 25)] in
  let config = { Config.m4 with Config.pool_capacity = 16 } in
  List.iter
    (fun (name, text) ->
      print_cell ("deep / m4 / " ^ name) (Engine.load_forest ~config forest) text)
    T.Queries.deep_queries

let () =
  match Sys.argv with
  | [| _; "profiles" |] ->
    fig7 ();
    example6 ();
    deep ()
  | [| _; name |] -> (
    match T.Explain_suite.render name with
    | Ok text -> print_string text
    | Error msg ->
      prerr_endline msg;
      exit 1)
  | _ ->
    prerr_endline "usage: gen_explain <m1|m2|m3|m4|structural|profiles>";
    exit 1
