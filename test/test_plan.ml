(* Tests for lib/plan: the staged compilation pipeline, the shared plan
   IR, per-stage validation, rendering, and the parameterized template
   sites the physical stage produces. *)

module A = Xqdb_tpm.Tpm_algebra
module Rewrite = Xqdb_tpm.Rewrite
module Merge = Xqdb_tpm.Merge
module Plan_ir = Xqdb_plan.Plan_ir
module Plan_validate = Xqdb_plan.Plan_validate
module Pipeline = Xqdb_plan.Pipeline
module Planner = Xqdb_optimizer.Planner
module Stats = Xqdb_optimizer.Stats
module Tuple = Xqdb_physical.Tuple
module S = Xqdb_storage
module X = Xqdb_xasr
module W = Xqdb_workload

let ctx ?(merge_relfors = true) () =
  let disk = S.Disk.in_memory () in
  let pool = S.Buffer_pool.create disk in
  let store, doc_stats = X.Shredder.shred_forest pool ~name:"t" [W.Docs.figure2] in
  { Pipeline.config =
      { Pipeline.merge_relfors; planner = Planner.m4_config; batch_size = 256 };
    stats = Stats.make store doc_stats;
    store }

let parse = Xqdb_xq.Xq_parser.parse

(* The constructor between the loops blocks relfor merging, so this
   compiles to two sites with the inner one parameterized on [$a]. *)
let nested = "for $a in //authors return <list>{ for $n in $a/name return $n }</list>"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- stage structure ----------------------------------------------------- *)

let test_stage_structure () =
  let staged = Pipeline.compile (ctx ()) (parse nested) in
  Alcotest.(check (list string)) "pass order"
    ["source"; "rewrite"; "merge"; "plan"]
    (List.map (fun ((p : Pipeline.pass), _) -> p.Pipeline.name) staged.Pipeline.stages);
  Alcotest.(check (list string)) "stage kinds"
    ["xq-ast"; "tpm"; "tpm"; "physical"]
    (List.map (fun (_, ir) -> Plan_ir.stage_kind ir) staged.Pipeline.stages);
  Alcotest.(check int) "constructor blocks merging: two sites" 2
    (Plan_ir.site_count staged.Pipeline.phys);
  Alcotest.(check (list int)) "site ids in prefix order" [0; 1]
    (List.map (fun (s : Plan_ir.site) -> s.Plan_ir.id) (Plan_ir.sites staged.Pipeline.phys))

let test_merge_pass_is_optional () =
  let staged = Pipeline.compile (ctx ~merge_relfors:false ()) (parse nested) in
  Alcotest.(check (list string)) "no merge pass"
    ["source"; "rewrite"; "plan"]
    (List.map (fun ((p : Pipeline.pass), _) -> p.Pipeline.name) staged.Pipeline.stages);
  (* A mergeable query now keeps its nested relfors as separate sites. *)
  let mergeable = "for $x in //name return for $t in $x/text() return $t" in
  let merged = Pipeline.compile (ctx ()) (parse mergeable) in
  let unmerged = Pipeline.compile (ctx ~merge_relfors:false ()) (parse mergeable) in
  Alcotest.(check int) "merged: one site" 1 (Plan_ir.site_count merged.Pipeline.phys);
  Alcotest.(check int) "unmerged: two sites" 2 (Plan_ir.site_count unmerged.Pipeline.phys)

let test_front_matches_stages () =
  let c = ctx () in
  let q = parse nested in
  let front = Pipeline.front c q in
  let staged = Pipeline.compile c q in
  let last_tpm =
    List.fold_left
      (fun acc (_, ir) -> match ir with Plan_ir.Tpm t -> Some t | _ -> acc)
      None staged.Pipeline.stages
  in
  (match last_tpm with
   | Some t -> Alcotest.(check bool) "front = last logical stage" true (front = t)
   | None -> Alcotest.fail "no TPM stage");
  Alcotest.(check int) "front's relfors mirror the sites"
    (Plan_ir.site_count staged.Pipeline.phys)
    (List.length (Plan_ir.tpm_relfors front))

(* --- site parameters ----------------------------------------------------- *)

let test_site_params () =
  let staged = Pipeline.compile (ctx ()) (parse nested) in
  match Plan_ir.sites staged.Pipeline.phys with
  | [outer; inner] ->
    let vars (s : Plan_ir.site) = Tuple.param_vars s.Plan_ir.template.Planner.params in
    Alcotest.(check bool) "outer reads no user variable" true
      (List.for_all
         (fun v -> String.equal v Xqdb_xq.Xq_ast.root_var)
         (vars outer));
    Alcotest.(check bool) "inner is parameterized on the outer binding" true
      (List.exists
         (fun v -> not (String.equal v Xqdb_xq.Xq_ast.root_var))
         (vars inner));
    Alcotest.(check (list string)) "params = the plan's externs"
      (List.sort compare (Planner.plan_externs inner.Plan_ir.template.Planner.plan))
      (List.sort compare (vars inner))
  | sites -> Alcotest.failf "expected two sites, got %d" (List.length sites)

(* --- validation ---------------------------------------------------------- *)

let test_validate_stages () =
  let staged = Pipeline.compile (ctx ()) (parse nested) in
  List.iter
    (fun (_, ir) ->
      match Plan_validate.check ir with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "stage rejected: %s" msg)
    staged.Pipeline.stages

let test_validate_rejects_unbound () =
  (match Plan_validate.check (Plan_ir.Tpm (A.Out_var "phantom")) with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "unbound Out_var must be rejected");
  match Plan_validate.check (Plan_ir.Tpm (A.Constr ("", A.Empty))) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty constructor label must be rejected"

(* The rejection paths one by one: take a well-formed compiled plan and
   break exactly one invariant, checking the validator names it. *)

let expect_error ~needle ir =
  match Plan_validate.check ir with
  | Ok () -> Alcotest.failf "validator accepted IR that should fail with %S" needle
  | Error msg ->
    Alcotest.(check bool) (Printf.sprintf "message %S mentions %S" msg needle) true
      (contains msg needle)

let test_validate_rejects_unbound_phys () =
  let staged = Pipeline.compile (ctx ()) (parse nested) in
  (* A physical shell that emits a variable no relfor ever bound. *)
  expect_error ~needle:"out of scope"
    (Plan_ir.Phys (Plan_ir.P_seq (staged.Pipeline.phys, Plan_ir.P_out "zzz")))

let test_validate_rejects_duplicate_alias () =
  let staged = Pipeline.compile (ctx ()) (parse "for $n in //name return $n") in
  let tpm =
    match
      List.find_map
        (fun (_, ir) -> match ir with Plan_ir.Tpm t -> Some t | _ -> None)
        staged.Pipeline.stages
    with
    | Some t -> t
    | None -> Alcotest.fail "pipeline has no TPM stage"
  in
  match Plan_ir.tpm_relfors tpm with
  | [] -> Alcotest.fail "expected a relfor"
  | r :: _ ->
    let bad_psx = { r.A.source with A.rels = r.A.source.A.rels @ r.A.source.A.rels } in
    expect_error ~needle:"duplicate relation alias"
      (Plan_ir.Tpm (A.Relfor { r with A.source = bad_psx }))

let test_validate_rejects_arity_mismatch () =
  let staged = Pipeline.compile (ctx ()) (parse "for $n in //name return $n") in
  match Plan_ir.sites staged.Pipeline.phys with
  | [] -> Alcotest.fail "expected a site"
  | s :: _ ->
    (* Double the vartuple under distinct names without touching the
       compiled plan: the template now projects half the columns the
       bindings need. *)
    let clones =
      List.map (fun (b : A.binding) -> { b with A.var = b.A.var ^ "_dup" })
        s.Plan_ir.source.A.bindings
    in
    let bindings = s.Plan_ir.bindings @ clones in
    let bad =
      { s with
        Plan_ir.bindings;
        Plan_ir.source = { s.Plan_ir.source with A.bindings } }
    in
    expect_error ~needle:"columns" (Plan_ir.Phys (Plan_ir.P_relfor bad))

(* --- rendering ----------------------------------------------------------- *)

let test_render_staged () =
  let staged = Pipeline.compile (ctx ()) (parse nested) in
  let text = Pipeline.render_staged staged in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "render mentions %S" frag) true
        (contains text frag))
    [ "== source: xq-ast ==";
      "== rewrite: tpm ==";
      "== merge: tpm ==";
      "== plan: physical ==";
      "relfor site 0";
      "plan for relfor" ]

let () =
  Alcotest.run "plan"
    [ ( "pipeline",
        [ Alcotest.test_case "stage structure" `Quick test_stage_structure;
          Alcotest.test_case "merge pass optional" `Quick test_merge_pass_is_optional;
          Alcotest.test_case "front matches stages" `Quick test_front_matches_stages ] );
      ( "sites",
        [ Alcotest.test_case "site parameters" `Quick test_site_params ] );
      ( "validation",
        [ Alcotest.test_case "stages validate" `Quick test_validate_stages;
          Alcotest.test_case "rejects bad IR" `Quick test_validate_rejects_unbound;
          Alcotest.test_case "rejects unbound variable in physical shell" `Quick
            test_validate_rejects_unbound_phys;
          Alcotest.test_case "rejects duplicate alias" `Quick
            test_validate_rejects_duplicate_alias;
          Alcotest.test_case "rejects vartuple arity mismatch" `Quick
            test_validate_rejects_arity_mismatch ] );
      ( "rendering",
        [ Alcotest.test_case "render staged" `Quick test_render_staged ] ) ]
