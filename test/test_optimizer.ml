(* Tests for the milestone-4 optimizer: statistics/estimates, planner
   validity, cost-based choices, and — crucially — that every valid
   combination of join order and ordering strategy computes the same
   relation. *)

module A = Xqdb_tpm.Tpm_algebra
module Rewrite = Xqdb_tpm.Rewrite
module Merge = Xqdb_tpm.Merge
module Planner = Xqdb_optimizer.Planner
module Stats = Xqdb_optimizer.Stats
module Op = Xqdb_physical.Phys_op
module Tuple = Xqdb_physical.Tuple
module S = Xqdb_storage
module X = Xqdb_xasr
module W = Xqdb_workload

let load forest =
  let disk = S.Disk.in_memory () in
  let pool = S.Buffer_pool.create disk in
  let store, doc_stats = X.Shredder.shred_forest pool ~name:"t" forest in
  (store, doc_stats)

let dblp = [W.Dblp_gen.generate (W.Dblp_gen.scaled 120)]

let root_env store =
  let root_out = (X.Node_store.root_tuple store).X.Xasr.nout in
  fun v ->
    if String.equal v Xqdb_xq.Xq_ast.root_var then (1, root_out)
    else failwith ("unexpected external " ^ v)

let psx_of query_src =
  let rec first = function
    | A.Relfor r -> r.A.source
    | A.Constr (_, t) | A.Guard (_, t) -> first t
    | A.Seq (t1, _) -> first t1
    | A.Empty | A.Text_out _ | A.Out_var _ -> failwith "no relfor"
  in
  first (Merge.merge (Rewrite.query (Xqdb_xq.Xq_parser.parse query_src)))

let run_plan store plan =
  let ctx = Op.make_ctx store in
  Op.drain (Planner.instantiate ctx plan ~env:(root_env store))

(* --- statistics ----------------------------------------------------------- *)

let test_stats_estimates () =
  let store, doc_stats = load dblp in
  let good = Stats.make store doc_stats in
  Alcotest.(check bool) "node count positive" true (Stats.node_count good > 100.0);
  Alcotest.(check bool) "labels counted exactly" true
    (Stats.label_card good "volume" < Stats.label_card good "author");
  Alcotest.(check (float 0.001)) "missing label is zero" 0.0
    (Stats.label_card good "nonexistent");
  Alcotest.(check bool) "avg depth shallow" true (Stats.avg_depth good < 5.0);
  Alcotest.(check bool) "fanout sane" true
    (Stats.avg_fanout good > 1.0 && Stats.avg_fanout good < 10.0);
  Alcotest.(check bool) "pages positive" true (Stats.pages_of_tuples good 100.0 >= 1.0)

let test_unlucky_inversion () =
  let store, doc_stats = load dblp in
  let good = Stats.make store doc_stats in
  let unlucky = Stats.make ~quality:Stats.Unlucky store doc_stats in
  (* Good knows volume << author; Unlucky inverts the comparison. *)
  Alcotest.(check bool) "good ranks volume below author" true
    (Stats.label_card good "volume" < Stats.label_card good "author");
  Alcotest.(check bool) "unlucky inverts the ranking" true
    (Stats.label_card unlucky "volume" > Stats.label_card unlucky "author");
  Alcotest.(check bool) "unlucky depth is canned" true (Stats.avg_depth unlucky = 2.0)

(* --- planner validity -------------------------------------------------------- *)

let example6_psx () = psx_of Xqdb_testbed.Queries.example6

let test_preserve_validity () =
  let store, doc_stats = load dblp in
  let stats = Stats.make store doc_stats in
  let psx = example6_psx () in
  let bindings = List.map (fun (b : A.binding) -> b.A.brel) psx.A.bindings in
  (* Binding aliases out of order are rejected under `Preserve. *)
  (match bindings with
   | [x; y] ->
     let existential = List.filter (fun a -> not (List.mem a bindings)) psx.A.rels in
     (match
        Planner.plan_with_order Planner.m4_config stats psx ((y :: existential) @ [x])
      with
      | _ -> Alcotest.fail "out-of-order bindings should be invalid"
      | exception Invalid_argument _ -> ())
   | _ -> Alcotest.fail "expected two bindings");
  (* Non-permutations are rejected. *)
  (match Planner.plan_with_order Planner.m4_config stats psx ["Z"] with
   | _ -> Alcotest.fail "non-permutation should be rejected"
   | exception Invalid_argument _ -> ());
  (* The planner's own choice must keep bindings in order. *)
  let plan = Planner.plan Planner.m4_config stats psx in
  let order = List.map (fun s -> s.Planner.alias) plan.Planner.steps in
  let placed_bindings = List.filter (fun a -> List.mem a bindings) order in
  Alcotest.(check (list string)) "bindings in binding order" bindings placed_bindings

let test_provably_empty () =
  let store, doc_stats = load dblp in
  let stats = Stats.make store doc_stats in
  let psx = psx_of "for $x in //nonexistent return $x" in
  let plan = Planner.plan Planner.m4_config stats psx in
  Alcotest.(check bool) "provably empty" true plan.Planner.provably_empty;
  Alcotest.(check int) "no rows" 0 (List.length (run_plan store plan));
  (* Unlucky estimates may not prove anything. *)
  let unlucky = Stats.make ~quality:Stats.Unlucky store doc_stats in
  let plan2 = Planner.plan Planner.m4_config unlucky psx in
  Alcotest.(check bool) "unlucky cannot prove emptiness" false plan2.Planner.provably_empty;
  Alcotest.(check int) "still no rows" 0 (List.length (run_plan store plan2));
  (* Milestone-3 configs have no statistics shortcut. *)
  let plan3 = Planner.plan Planner.m3_config stats psx in
  Alcotest.(check bool) "m3 cannot prove emptiness" false plan3.Planner.provably_empty

let test_cost_based_prefers_indexes () =
  let store, doc_stats = load dblp in
  let stats = Stats.make store doc_stats in
  let psx = psx_of "for $v in //volume return $v" in
  let m4 = Planner.plan Planner.m4_config stats psx in
  let m3 = Planner.plan Planner.m3_config stats psx in
  Alcotest.(check bool) "m4 estimates lower cost than m3" true
    (m4.Planner.est_cost < m3.Planner.est_cost)

let test_semijoin_in_plan () =
  let store, doc_stats = load dblp in
  let stats = Stats.make store doc_stats in
  let psx = example6_psx () in
  let plan = Planner.plan Planner.m4_config stats psx in
  Alcotest.(check bool) "some step semijoin-projects the volume relation" true
    (List.exists (fun s -> s.Planner.semijoin_keep <> None) plan.Planner.steps);
  ignore store

(* --- structural plans --------------------------------------------------------- *)

let treebank = [W.Treebank_gen.generate (W.Treebank_gen.scaled 10)]
let nostruct_config = { Planner.m4_config with Planner.use_struct = false }

let contains msg sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
  go 0

(* The Figure-7 test-4 regression, path-statistics form: a query over
   structure the document does not have — an absent label, or an absent
   parent/child pairing of present labels — compiles to the empty plan,
   and EXPLAIN attributes the proof to the path statistics. *)
let test_empty_structure_plan_shape () =
  let store, doc_stats = load dblp in
  let stats = Stats.make store doc_stats in
  List.iter
    (fun (what, query) ->
      let psx = psx_of query in
      let plan = Planner.plan Planner.m4_config stats psx in
      Alcotest.(check bool) (what ^ ": provably empty") true plan.Planner.provably_empty;
      Alcotest.(check int) (what ^ ": no steps") 0 (List.length plan.Planner.steps);
      Alcotest.(check bool) (what ^ ": no twig") true (plan.Planner.twig = None);
      let rendered = Planner.to_string plan in
      Alcotest.(check bool) (what ^ ": explain says provably empty") true
        (contains rendered "provably empty");
      Alcotest.(check bool) (what ^ ": proof credited to path statistics") true
        (contains rendered "path statistics");
      Alcotest.(check int) (what ^ ": no rows") 0 (List.length (run_plan store plan)))
    [ ("absent label", "for $x in //proceedings return $x");
      ("absent pair", "for $x in //article return for $y in $x/article return $y") ]

(* On a deep recursive document the cost model reaches for the
   structural machinery — the holistic twig for a pure chain, staircase
   joins otherwise — and the results match the plan compiled with
   [use_struct = false]. *)
let test_struct_plans_chosen_and_agree () =
  let store, doc_stats = load treebank in
  let stats = Stats.make store doc_stats in
  List.iter
    (fun (what, expect_twig, query) ->
      let psx = psx_of query in
      let structural = Planner.plan Planner.m4_config stats psx in
      let baseline = Planner.plan nostruct_config stats psx in
      let is_struct_join s =
        match s.Planner.join with Planner.Struct_desc _ -> true | _ -> false
      in
      let is_struct_scan s =
        match s.Planner.access with Planner.Struct_scan _ -> true | _ -> false
      in
      if expect_twig then
        Alcotest.(check bool) (what ^ ": compiled to a twig") true
          (structural.Planner.twig <> None)
      else
        Alcotest.(check bool) (what ^ ": uses the structural index") true
          (List.exists (fun s -> is_struct_join s || is_struct_scan s)
             structural.Planner.steps);
      Alcotest.(check bool) (what ^ ": baseline avoids structural plans") true
        (baseline.Planner.twig = None
        && List.for_all (fun s -> not (is_struct_join s || is_struct_scan s))
             baseline.Planner.steps);
      let rows = run_plan store structural in
      Alcotest.(check bool) (what ^ ": produces rows") true (rows <> []);
      Alcotest.(check bool) (what ^ ": structural = baseline results") true
        (rows = run_plan store baseline))
    [ ( "three-step chain", true,
        "for $s in //S return for $np in $s//NP return for $nn in $np//NN return $nn" );
      (* The existential breaks the root-to-leaf chain shape, so this
         one must fall back to a staircase semijoin, not a twig. *)
      ( "existential semijoin", false,
        "for $np in //NP return if (some $vb in $np//VB satisfies true()) then $np else ()"
      ) ]

(* --- plan equivalence across orders and strategies ---------------------------- *)

(* For a PSX with several relations, every valid permutation under every
   ordering strategy must return exactly the same vartuples in the same
   (document) order. *)
let test_all_plans_agree () =
  let store, doc_stats = load dblp in
  let stats = Stats.make store doc_stats in
  List.iter
    (fun query_src ->
      let psx = psx_of query_src in
      let reference =
        run_plan store (Planner.plan Planner.m4_config stats psx)
      in
      Alcotest.(check bool) "reference plan returns rows" true (reference <> []);
      let permutations =
        (* All permutations of the relation list (small). *)
        let rec perms = function
          | [] -> [[]]
          | xs ->
            List.concat_map
              (fun x -> List.map (fun rest -> x :: rest) (perms (List.filter (( <> ) x) xs)))
              xs
        in
        perms psx.A.rels
      in
      let strategies : Planner.order_strategy list =
        [`Preserve; `Mem_sort; `Ext_sort; `Btree_sort]
      in
      let tried = ref 0 in
      List.iter
        (fun order ->
          List.iter
            (fun strategy ->
              List.iter
                (fun (use_indexes, use_struct) ->
                  let config =
                    { Planner.m4_config with
                      Planner.order = strategy;
                      use_indexes;
                      use_struct;
                      cost_based = true }
                  in
                  match Planner.plan_with_order config stats psx order with
                  | plan ->
                    incr tried;
                    let rows = run_plan store plan in
                    if rows <> reference then
                      Alcotest.failf "plan disagrees (%s, %s, indexes=%b, struct=%b)"
                        (String.concat "," order)
                        (match strategy with
                         | `Preserve -> "preserve"
                         | `Mem_sort -> "mem-sort"
                         | `Ext_sort -> "ext-sort"
                         | `Btree_sort -> "btree-sort")
                        use_indexes use_struct
                  | exception Invalid_argument _ -> ())
                [(true, true); (true, false); (false, false)])
            strategies)
        permutations;
      Alcotest.(check bool) "tried many plans" true (!tried > 10))
    [ Xqdb_testbed.Queries.example6;
      "for $x in //article return for $t in $x/title return $t";
      "for $x in //inproceedings return if (some $y in $x/year satisfies (some $t in \
       $y/text() satisfies $t = \"1999\")) then $x/booktitle else ()" ]

(* --- parameterized templates ------------------------------------------------- *)

(* One template, bound once per outer tuple, must enumerate exactly what
   a fresh instantiation per tuple does — and the metrics must show one
   build against many binds. *)
let test_template_reuse () =
  let store, doc_stats = load dblp in
  let stats = Stats.make store doc_stats in
  let root = root_env store in
  let outer_plan =
    Planner.plan Planner.m4_config stats (psx_of "for $x in //article return $x")
  in
  let articles = run_plan store outer_plan in
  Alcotest.(check bool) "many articles" true (List.length articles > 10);
  (* The inner relfor of the nested query reads $x as an external. *)
  let inner_psx =
    let tpm =
      Merge.merge
        (Rewrite.query
           (Xqdb_xq.Xq_parser.parse
              "for $x in //article return <e>{ for $a in $x/author return $a }</e>"))
    in
    match Xqdb_plan.Plan_ir.tpm_relfors tpm with
    | [_outer; inner] -> inner.A.source
    | rs -> Alcotest.failf "expected two relfors, got %d" (List.length rs)
  in
  let plan = Planner.plan Planner.m4_config stats inner_psx in
  Alcotest.(check bool) "plan reads outer variables" true
    (Planner.plan_externs plan <> []);
  (* m4 vartuples carry (in, out): the article row is [| I in; I out |]. *)
  let env_of (t : Tuple.t) v =
    if String.equal v Xqdb_xq.Xq_ast.root_var then root v
    else
      match t.(0), t.(1) with
      | Tuple.I nin, Tuple.I nout -> (nin, nout)
      | _ -> Alcotest.fail "article vartuple is not (in, out)"
  in
  let scope = S.Metrics.scope () in
  S.Metrics.with_scope scope @@ fun () ->
  let tmpl = Planner.template (Op.make_ctx store) plan in
  let reused =
    List.map
      (fun t ->
        Planner.bind tmpl ~env:(env_of t);
        Op.drain tmpl.Planner.op)
      articles
  in
  let fresh =
    List.map
      (fun t -> Op.drain (Planner.instantiate (Op.make_ctx store) plan ~env:(env_of t)))
      articles
  in
  Alcotest.(check bool) "rebinding agrees with fresh instantiation" true (reused = fresh);
  Alcotest.(check bool) "some article has authors" true
    (List.exists (fun rows -> rows <> []) reused);
  let d = S.Metrics.scope_snapshot scope in
  let n = List.length articles in
  Alcotest.(check int) "one shared template + n fresh instantiations" (1 + n)
    (S.Metrics.get d "planner.templates_built");
  Alcotest.(check int) "every use is one bind" (2 * n)
    (S.Metrics.get d "planner.template_binds")

(* Materialization modes do not change results. *)
let test_materialize_modes_agree () =
  let store, doc_stats = load dblp in
  let stats = Stats.make store doc_stats in
  let psx = example6_psx () in
  let run materialize =
    run_plan store (Planner.plan { Planner.m4_config with Planner.materialize } stats psx)
  in
  Alcotest.(check bool) "disk = mem" true (run `Disk = run `Mem)

let () =
  Alcotest.run "optimizer"
    [ ( "statistics",
        [ Alcotest.test_case "estimates" `Quick test_stats_estimates;
          Alcotest.test_case "unlucky inversion" `Quick test_unlucky_inversion ] );
      ( "planner",
        [ Alcotest.test_case "preserve validity" `Quick test_preserve_validity;
          Alcotest.test_case "provably empty" `Quick test_provably_empty;
          Alcotest.test_case "cost model prefers indexes" `Quick
            test_cost_based_prefers_indexes;
          Alcotest.test_case "semijoin appears" `Quick test_semijoin_in_plan ] );
      ( "structural plans",
        [ Alcotest.test_case "absent structure compiles to empty" `Quick
            test_empty_structure_plan_shape;
          Alcotest.test_case "struct plans chosen and agree" `Quick
            test_struct_plans_chosen_and_agree ] );
      ( "templates",
        [ Alcotest.test_case "template reuse" `Quick test_template_reuse ] );
      ( "plan equivalence",
        [ Alcotest.test_case "orders and strategies agree" `Slow test_all_plans_agree;
          Alcotest.test_case "materialization modes agree" `Quick
            test_materialize_modes_agree ] ) ]
