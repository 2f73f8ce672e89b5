(* Tests for the physical operators: scans, joins, projection/dedup,
   sorting, materialization, semijoin early-out. *)

module A = Xqdb_tpm.Tpm_algebra
module Op = Xqdb_physical.Phys_op
module Tuple = Xqdb_physical.Tuple
module S = Xqdb_storage
module X = Xqdb_xasr
module Xasr = X.Xasr

(* A small store shared by most tests: the Figure 2 journal. *)
let make_store ?(forest = [Xqdb_workload.Docs.figure2]) () =
  let disk = S.Disk.in_memory () in
  let pool = S.Buffer_pool.create disk in
  let store, _ = X.Shredder.shred_forest pool ~name:"t" forest in
  (disk, Op.make_ctx store)

let ins_of op =
  (* Column 0 of an XASR schema is the in value. *)
  List.map
    (fun t -> match t.(0) with Tuple.I v -> v | Tuple.S _ -> -1)
    (Op.drain op)

let eq l r = { A.left = l; op = A.Eq; right = r }
let ocol a f = A.Ocol (A.col a f)

let elem_pred a = eq (ocol a A.Type_) (A.Otype Xasr.Element)
let value_pred a v = eq (ocol a A.Value) (A.Ostr v)

(* --- tuples -------------------------------------------------------------- *)

let tuple_roundtrip =
  QCheck2.Test.make ~name:"tuple encode/decode round trip" ~count:300
    QCheck2.Gen.(list_size (int_range 0 8)
                   (oneof [map (fun i -> Tuple.I i) (int_bound 10_000);
                           map (fun s -> Tuple.S s) (string_size (int_bound 10))]))
    (fun values ->
      let t = Array.of_list values in
      Tuple.decode (Tuple.encode t) = t)

let test_tuple_keys () =
  let t = [| Tuple.I 5; Tuple.S "ab"; Tuple.I 9 |] in
  let encoded = Tuple.encode_with_key ~key_positions:[| 2; 0 |] t in
  let key, decoded = Tuple.decode_keyed encoded in
  Alcotest.(check bool) "payload survives" true (decoded = t);
  Alcotest.(check bytes) "key extraction agrees" key (Tuple.key_of_encoded encoded);
  (* Key ordering by the selected positions. *)
  let k v = Tuple.key_of_encoded (Tuple.encode_with_key ~key_positions:[| 0 |] [| Tuple.I v |]) in
  Alcotest.(check bool) "key order" true (Bytes.compare (k 3) (k 40) < 0)

let test_compile_preds () =
  let schema = Tuple.xasr_schema "R" in
  let t = Tuple.of_xasr { Xasr.nin = 4; nout = 7; parent_in = 3; ntype = Xasr.Element; value = "name" } in
  let holds p = Tuple.compile_pred schema p t in
  Alcotest.(check bool) "eq col/const" true (holds (value_pred "R" "name"));
  Alcotest.(check bool) "eq mismatch" false (holds (value_pred "R" "title"));
  Alcotest.(check bool) "lt" true (holds { A.left = ocol "R" A.In; op = A.Lt; right = A.Oint 5 });
  Alcotest.(check bool) "gt" true (holds { A.left = ocol "R" A.Out; op = A.Gt; right = A.Oint 5 });
  (* Unresolved externals are a programming error. *)
  (try
     let (_ : Tuple.t -> Tuple.value) = Tuple.compile_operand schema (A.Oextern_in "x") in
     Alcotest.fail "external should not compile"
   with Invalid_argument _ -> ());
  (* ground_operand resolves them. *)
  let env v = if String.equal v "x" then (10, 20) else (0, 0) in
  Alcotest.(check bool) "ground in" true (Tuple.ground_operand env (A.Oextern_in "x") = A.Oint 10);
  Alcotest.(check bool) "ground out" true (Tuple.ground_operand env (A.Oextern_out "x") = A.Oint 20)

(* --- scans ---------------------------------------------------------------- *)

let test_scans () =
  let _, ctx = make_store () in
  let all = Op.full_scan ctx "R" ~preds:[] in
  Alcotest.(check int) "full scan size" 9 (Op.count all);
  let names = Op.full_scan ctx "R" ~preds:[elem_pred "R"; value_pred "R" "name"] in
  Alcotest.(check (list int)) "filtered scan" [4; 8] (ins_of names);
  let via_index = Op.label_scan ctx "R" ~ntype:Xasr.Element ~value:"name" ~preds:[] in
  Alcotest.(check (list int)) "label scan agrees" [4; 8] (ins_of via_index);
  let nothing = Op.label_scan ctx "R" ~ntype:Xasr.Element ~value:"zzz" ~preds:[] in
  Alcotest.(check (list int)) "label scan misses" [] (ins_of nothing);
  (* reset replays *)
  Alcotest.(check int) "reset replays" 2 (Op.count via_index);
  Alcotest.(check int) "count is stable" 2 (Op.count via_index)

let test_unit_and_empty () =
  let unit = Op.singleton [] [||] in
  Alcotest.(check int) "unit has one tuple" 1 (Op.count unit);
  Alcotest.(check int) "empty has none" 0 (Op.count (Op.empty []))

(* --- joins ---------------------------------------------------------------- *)

(* name elements joined to their parents via three methods must agree. *)
let test_join_methods_agree () =
  let _, ctx = make_store () in
  let parent_child_preds = [eq (ocol "P" A.In) (ocol "C" A.Parent_in)] in
  let nl =
    Op.nl_join ~preds:parent_child_preds
      (Op.full_scan ctx "P" ~preds:[elem_pred "P"])
      (Op.full_scan ctx "C" ~preds:[elem_pred "C"; value_pred "C" "name"])
      ctx
  in
  let inl =
    Op.inl_join ctx ~probe:(Op.Probe_child (ocol "P" A.In)) ~alias:"C"
      ~preds:[elem_pred "C"; value_pred "C" "name"] ~residual:[]
      (Op.full_scan ctx "P" ~preds:[elem_pred "P"])
  in
  let pairs op =
    List.map
      (fun t -> (t.(0), t.(5)))  (* P.in, C.in *)
      (Op.drain op)
  in
  Alcotest.(check bool) "nl = inl(child)" true (pairs nl = pairs inl);
  Alcotest.(check int) "two name-parent pairs" 2 (List.length (pairs nl))

let test_desc_probe () =
  let _, ctx = make_store () in
  (* Descendant texts of the authors element (in=3, out=12). *)
  let op =
    Op.inl_join ctx
      ~probe:(Op.Probe_desc (ocol "P" A.In, ocol "P" A.Out))
      ~alias:"D"
      ~preds:[eq (ocol "D" A.Type_) (A.Otype Xasr.Text)]
      ~residual:[]
      (Op.full_scan ctx "P" ~preds:[value_pred "P" "authors"])
  in
  let descendant_ins = List.map (fun t -> match t.(5) with Tuple.I v -> v | _ -> -1) (Op.drain op) in
  Alcotest.(check (list int)) "Ana and Bob" [5; 9] descendant_ins

let test_pk_probe () =
  let _, ctx = make_store () in
  (* Each node joined to its parent tuple by primary key. *)
  let op =
    Op.inl_join ctx ~probe:(Op.Probe_pk (ocol "C" A.Parent_in)) ~alias:"P" ~preds:[]
      ~residual:[]
      (Op.full_scan ctx "C" ~preds:[value_pred "C" "name"])
  in
  let parents = List.map (fun t -> match t.(5) with Tuple.I v -> v | _ -> -1) (Op.drain op) in
  Alcotest.(check (list int)) "both names have the authors parent" [3; 3] parents

let test_product_and_modes () =
  let _, ctx = make_store () in
  let make mode =
    Op.nl_join ~materialize_inner:mode ~preds:[]
      (Op.full_scan ctx "A" ~preds:[elem_pred "A"])
      (Op.full_scan ctx "B" ~preds:[eq (ocol "B" A.Type_) (A.Otype Xasr.Text)])
      ctx
  in
  (* 5 elements x 3 texts. *)
  List.iter
    (fun mode -> Alcotest.(check int) "product size" 15 (Op.count (make mode)))
    [`Mem; `Disk]

let test_bnl_join () =
  let _, ctx = make_store () in
  let parent_child_preds = [eq (ocol "P" A.In) (ocol "C" A.Parent_in)] in
  let make_nl () =
    Op.nl_join ~preds:parent_child_preds
      (Op.full_scan ctx "P" ~preds:[elem_pred "P"])
      (Op.full_scan ctx "C" ~preds:[elem_pred "C"]) ctx
  in
  let make_bnl block_size =
    Op.bnl_join ~block_size ~preds:parent_child_preds
      (Op.full_scan ctx "P" ~preds:[elem_pred "P"])
      (Op.full_scan ctx "C" ~preds:[elem_pred "C"]) ctx
  in
  let multiset op = List.sort compare (Op.drain op) in
  (* Same multiset of rows as plain NL, for several block sizes. *)
  List.iter
    (fun bs ->
      Alcotest.(check bool)
        (Printf.sprintf "bnl(block=%d) = nl as multisets" bs)
        true
        (multiset (make_bnl bs) = multiset (make_nl ())))
    [1; 2; 3; 64];
  (* With block size 1 the output order coincides with NL. *)
  Alcotest.(check bool) "block=1 is plain NL order" true
    (Op.drain (make_bnl 1) = Op.drain (make_nl ()));
  (* A cross product with a block spanning several outer tuples is
     inner-major within the block: order is destroyed. *)
  let product join =
    join
      (Op.full_scan ctx "A" ~preds:[elem_pred "A"])
      (Op.full_scan ctx "B" ~preds:[eq (ocol "B" A.Type_) (A.Otype Xasr.Text)])
  in
  let nl_rows = Op.drain (product (fun l r -> Op.nl_join ~preds:[] l r ctx)) in
  let bnl_rows = Op.drain (product (fun l r -> Op.bnl_join ~block_size:64 ~preds:[] l r ctx)) in
  Alcotest.(check bool) "same multiset" true
    (List.sort compare nl_rows = List.sort compare bnl_rows);
  Alcotest.(check bool) "different order (order destroyed)" true (nl_rows <> bnl_rows);
  (* reset replays *)
  let op = make_bnl 2 in
  Alcotest.(check int) "replay" (Op.count op) (Op.count op)

let test_semi_join () =
  let _, ctx = make_store () in
  (* Elements having at least one text child: semi stops at the first. *)
  let semi =
    Op.inl_join ~semi:true ctx ~probe:(Op.Probe_child (ocol "P" A.In)) ~alias:"C"
      ~preds:[eq (ocol "C" A.Type_) (A.Otype Xasr.Text)]
      ~residual:[]
      (Op.full_scan ctx "P" ~preds:[elem_pred "P"])
  in
  let lefts = ins_of semi in
  Alcotest.(check (list int)) "one row per qualifying element" [4; 8; 13] lefts

(* An in-memory relation as an operator, one row per batch. *)
let relation schema rows =
  let width = List.length schema in
  let remaining = ref rows in
  { Op.schema;
    next_batch =
      (fun () ->
        match !remaining with
        | [] -> None
        | r :: rest ->
          remaining := rest;
          let b = Tuple.batch_create ~width 1 in
          Tuple.batch_push b r;
          Some b);
    reset = (fun () -> remaining := rows);
    info = { Op.name = "values"; detail = "" };
    stats = { Op.rows = 0; batches = 0; ios = 0; seconds = 0. };
    kids = [];
    param_dep = false;
    clear = ignore }

let keyed_ctx = lazy (Op.make_ctx ~batch_size:3 (snd (make_store ())).Op.store)

(* The keyed in-memory inner must reproduce the plain loop over a disk
   spool (never keyed) row for row, order and stats included.  Keys mix
   ints and strings — [I n] must not meet [S "n"] — and repeat or miss;
   the key predicate comes in either orientation, alongside a residual
   [Lt] and a second equality, with and without semi. *)
let keyed_join_agrees =
  let open QCheck2.Gen in
  let key = oneof [map (fun n -> Tuple.I n) (int_bound 4);
                   map (fun n -> Tuple.S (string_of_int n)) (int_bound 4)] in
  let rows = list_size (int_bound 12) (pair key (int_bound 2)) in
  QCheck2.Test.make ~name:"keyed in-memory nl-join = disk nl-join" ~count:300
    (triple rows rows (tup5 bool bool bool bool bool))
    (fun (outer, inner, (flip, lt, eq2, eq2_first, semi)) ->
      let ctx = Lazy.force keyed_ctx in
      (* Columns: key, row number, a small attribute for the second
         equality. *)
      let table alias rows =
        relation
          [A.col alias A.Value; A.col alias A.In; A.col alias A.Out]
          (List.mapi (fun i (k, a) -> [| k; Tuple.I i; Tuple.I a |]) rows)
      in
      let key_pred =
        if flip then eq (ocol "R" A.Value) (ocol "L" A.Value)
        else eq (ocol "L" A.Value) (ocol "R" A.Value)
      in
      let second = eq (ocol "L" A.Out) (ocol "R" A.Out) in
      let preds =
        (if eq2 && eq2_first then [second] else [])
        @ [key_pred]
        @ (if lt then [{ A.left = ocol "L" A.In; op = A.Lt; right = ocol "R" A.In }] else [])
        @ (if eq2 && not eq2_first then [second] else [])
      in
      let run mode =
        let op =
          Op.nl_join ~materialize_inner:mode ~semi ~preds (table "L" outer) (table "R" inner) ctx
        in
        let out = Op.drain op in
        (op.Op.info.Op.detail, (out, op.Op.stats.Op.rows, op.Op.stats.Op.batches))
      in
      let detail, mem = run `Mem in
      let _, disk = run `Disk in
      let key_col = if eq2 && eq2_first then "R.out" else "R.value" in
      String.ends_with ~suffix:("keyed on " ^ key_col) detail && mem = disk)

(* --- structural operators -------------------------------------------------- *)

module Tree = Xqdb_xml.Xml_tree

let int_of = function Tuple.I v -> v | Tuple.S _ -> -1

let test_struct_scan () =
  let _, ctx = make_store () in
  Alcotest.(check (list int)) "struct scan = label scan" [4; 8]
    (ins_of (Op.struct_scan ctx "R" ~label:"name" ~preds:[]));
  Alcotest.(check (list int)) "missing label" []
    (ins_of (Op.struct_scan ctx "R" ~label:"zzz" ~preds:[]));
  (* The stream carries full tuples despite never touching the primary. *)
  let t = List.hd (Op.drain (Op.struct_scan ctx "R" ~label:"journal" ~preds:[])) in
  Alcotest.(check bool) "full tuple reconstructed" true
    (t.(1) = Tuple.I 17 && t.(2) = Tuple.I 1 && t.(4) = Tuple.S "journal");
  Alcotest.(check (list int)) "residual predicate applies" [4]
    (ins_of
       (Op.struct_scan ctx "R" ~label:"name"
          ~preds:[{ A.left = ocol "R" A.In; op = A.Lt; right = A.Oint 5 }]))

(* The staircase join must agree with the descendant-probe index join on
   every interval configuration: normal, empty inner run, disjoint
   sibling intervals, and fully (self-)nested chains. *)
let test_struct_join_agrees () =
  List.iter
    (fun (what, forest, outer_label, inner_label, expected_pairs) ->
      let _, ctx = make_store ~forest () in
      let outer () = Op.label_scan ctx "P" ~ntype:Xasr.Element ~value:outer_label ~preds:[] in
      let sj ?semi () =
        Op.struct_join ?semi ctx ~lo:(ocol "P" A.In) ~hi:(ocol "P" A.Out) ~alias:"D"
          ~label:inner_label ~preds:[] ~residual:[] (outer ())
      in
      let inl ?semi () =
        Op.inl_join ?semi ctx
          ~probe:(Op.Probe_desc (ocol "P" A.In, ocol "P" A.Out))
          ~alias:"D"
          ~preds:[elem_pred "D"; value_pred "D" inner_label]
          ~residual:[] (outer ())
      in
      Alcotest.(check int)
        (what ^ ": pair count")
        expected_pairs
        (List.length (Op.drain (sj ())));
      Alcotest.(check bool) (what ^ ": struct = inl(desc)") true
        (Op.drain (sj ()) = Op.drain (inl ()));
      Alcotest.(check bool) (what ^ ": semijoins agree") true
        (Op.drain (sj ~semi:true ()) = Op.drain (inl ~semi:true ()));
      (* The plain nested loop over the inner label's rows, with the
         containment test as its predicates, in memory and spooled. *)
      let nl ?semi materialize_inner =
        Op.nl_join ~materialize_inner ?semi
          ~preds:
            [ { A.left = ocol "P" A.In; op = A.Lt; right = ocol "D" A.In };
              { A.left = ocol "D" A.In; op = A.Lt; right = ocol "P" A.Out } ]
          (outer ())
          (Op.label_scan ctx "D" ~ntype:Xasr.Element ~value:inner_label ~preds:[])
          ctx
      in
      List.iter
        (fun (where, inner) ->
          Alcotest.(check bool) (what ^ ": struct = nl " ^ where) true
            (Op.drain (sj ()) = Op.drain (nl inner));
          Alcotest.(check bool) (what ^ ": semijoins agree with nl " ^ where) true
            (Op.drain (sj ~semi:true ()) = Op.drain (nl ~semi:true inner)))
        [("mem", `Mem); ("disk", `Disk)];
      (* reset replays from the cached run *)
      let op = sj () in
      Alcotest.(check int) (what ^ ": replay") (Op.count op) (Op.count op))
    [ ("figure2", [Xqdb_workload.Docs.figure2], "journal", "name", 2);
      ("empty inner", [Tree.elem "a" [Tree.elem "b" []]], "a", "zzz", 0);
      ( "disjoint siblings",
        [Tree.elem "r" [Tree.elem "a" []; Tree.elem "b" []]],
        "a", "b", 0 );
      ( "fully nested chain",
        [Tree.elem "a" [Tree.elem "a" [Tree.elem "a" [Tree.elem "b" []]]]],
        "a", "a", 3 ) ]

let twig alias label axis = { Op.tw_alias = alias; tw_label = label; tw_axis = axis }

let test_twig_match_hand_verified () =
  let _, ctx = make_store () in
  let solutions ?anchor steps cols =
    List.map
      (fun t -> List.map (fun c -> int_of t.(c)) cols)
      (Op.drain (Op.twig_match ctx ~anchor ~steps))
  in
  (* //journal//name: (2,4) and (2,8), in lexicographic (in, in) order. *)
  Alcotest.(check (list (list int))) "journal//name" [[2; 4]; [2; 8]]
    (solutions [twig "J" "journal" Op.Twig_desc; twig "N" "name" Op.Twig_desc] [0; 5]);
  (* Three steps: //journal//authors//name. *)
  Alcotest.(check (list (list int))) "journal//authors//name" [[2; 3; 4]; [2; 3; 8]]
    (solutions
       [ twig "J" "journal" Op.Twig_desc;
         twig "A" "authors" Op.Twig_desc;
         twig "N" "name" Op.Twig_desc ]
       [0; 5; 10]);
  (* Child axis prunes: names are children of authors, not of journal. *)
  Alcotest.(check (list (list int))) "authors/name" [[3; 4]; [3; 8]]
    (solutions [twig "A" "authors" Op.Twig_desc; twig "N" "name" Op.Twig_child] [0; 5]);
  Alcotest.(check (list (list int))) "journal/name is empty" []
    (solutions [twig "J" "journal" Op.Twig_desc; twig "N" "name" Op.Twig_child] [0; 5]);
  (* An anchor interval restricts the first step's stream. *)
  Alcotest.(check (list (list int))) "anchored to authors (3, 12)" [[4]; [8]]
    (solutions ~anchor:(A.Oint 3, A.Oint 12) [twig "N" "name" Op.Twig_desc] [0]);
  Alcotest.(check (list (list int))) "anchored to title (13, 16)" []
    (solutions ~anchor:(A.Oint 13, A.Oint 16) [twig "N" "name" Op.Twig_desc] [0])

(* --- project, dedup --------------------------------------------------------- *)

let test_filter_and_project () =
  let _, ctx = make_store () in
  let projected =
    Op.project ~cols:[A.col "R" A.Value] ~dedup:`No
      (Op.full_scan ctx "R" ~preds:[elem_pred "R"])
  in
  Alcotest.(check int) "project width" 1 (List.length (List.hd (Op.drain projected) |> Array.to_list));
  let dedup_adj =
    Op.project ~cols:[A.col "R" A.Parent_in] ~dedup:`Adjacent
      (Op.full_scan ctx "R" ~preds:[elem_pred "R"; value_pred "R" "name"])
  in
  (* Both names share parent 3; adjacent dedup collapses them. *)
  Alcotest.(check int) "adjacent dedup" 1 (Op.count dedup_adj)

(* --- sorting ------------------------------------------------------------------ *)

let test_sorts_agree () =
  let _, ctx = make_store () in
  (* Sort elements by value; three implementations must agree.  Every
     sort dedups on its key, and (value, in) is unique. *)
  let input () = Op.full_scan ctx "R" ~preds:[elem_pred "R"] in
  let key_cols = [A.col "R" A.Value; A.col "R" A.In] in
  let values op = List.map (fun t -> t.(4)) (Op.drain op) in
  let mem = values (Op.sort ~mode:`In_mem ~key_cols (input ()) ctx) in
  let ext = values (Op.sort ~mode:`External ~key_cols (input ()) ctx) in
  let bt = values (Op.btree_sort ~key_cols (input ()) ctx) in
  Alcotest.(check bool) "mem = external" true (mem = ext);
  Alcotest.(check bool) "mem = btree" true (mem = bt);
  Alcotest.(check bool) "sorted by label" true
    (mem = List.sort compare mem);
  (* Dedup on the value column alone. *)
  let dedup = Op.sort ~mode:`In_mem ~key_cols:[A.col "R" A.Value] (input ()) ctx in
  Alcotest.(check int) "sort dedup by value" 4 (Op.count dedup);
  let bt_dedup = Op.btree_sort ~key_cols:[A.col "R" A.Value] (input ()) ctx in
  Alcotest.(check int) "btree sort dedups by key" 4 (Op.count bt_dedup)

let test_materialize () =
  let _, ctx = make_store () in
  List.iter
    (fun where ->
      let mat = Op.materialize where (Op.full_scan ctx "R" ~preds:[]) ctx in
      Alcotest.(check int) "materialized count" 9 (Op.count mat);
      Alcotest.(check int) "replay" 9 (Op.count mat))
    [`Mem; `Disk]

(* --- parameter slots and rebind ------------------------------------------------ *)

let test_params_rebind () =
  let _, base = make_store () in
  let params = Tuple.make_params ["v"] in
  let ctx = Op.with_params base params in
  let op =
    Op.full_scan ctx "R"
      ~preds:[elem_pred "R"; eq (ocol "R" A.Parent_in) (A.Oextern_in "v")]
  in
  Alcotest.(check bool) "extern pred makes the scan parameter-dependent" true
    op.Op.param_dep;
  Alcotest.(check bool) "plain scan is parameter-independent" false
    (Op.full_scan ctx "R" ~preds:[elem_pred "R"]).Op.param_dep;
  let children nin =
    Tuple.bind_params params (fun _ -> (nin, 0));
    Op.rebind op;
    op.Op.reset ();
    ins_of op
  in
  Alcotest.(check (list int)) "element children of the root" [2] (children 1);
  Alcotest.(check (list int)) "element children of authors" [4; 8] (children 3);
  Alcotest.(check (list int)) "rebinding back agrees" [2] (children 1)

(* rebind clears only parameter-dependent caches: an independent cached
   inner relation survives (observable through its row counter), while a
   dependent one is re-read with the new binding. *)
let test_rebind_cache_policy () =
  let _, base = make_store () in
  let params = Tuple.make_params ["v"] in
  let ctx = Op.with_params base params in
  (* Dependent outer (children of $v), independent inner (the names). *)
  let outer =
    Op.full_scan ctx "R"
      ~preds:[elem_pred "R"; eq (ocol "R" A.Parent_in) (A.Oextern_in "v")]
  in
  let inner = Op.full_scan ctx "S" ~preds:[elem_pred "S"; value_pred "S" "name"] in
  let join = Op.nl_join ~preds:[] outer inner ctx in
  Alcotest.(check bool) "join inherits dependence from its outer" true join.Op.param_dep;
  let rows j nin =
    Tuple.bind_params params (fun _ -> (nin, 0));
    Op.rebind j;
    j.Op.reset ();
    List.length (Op.drain j)
  in
  Alcotest.(check int) "1 root child x 2 names" 2 (rows join 1);
  let inner_rows = inner.Op.stats.Op.rows in
  Alcotest.(check int) "2 authors children x 2 names" 4 (rows join 3);
  Alcotest.(check int) "independent inner served from its cache" inner_rows
    inner.Op.stats.Op.rows;
  (* Flip the roles: a parameter-dependent inner cache must be dropped,
     otherwise the second binding would replay the first one's rows. *)
  let outer2 = Op.full_scan ctx "R" ~preds:[elem_pred "R"; value_pred "R" "name"] in
  let inner2 =
    Op.full_scan ctx "S"
      ~preds:[elem_pred "S"; eq (ocol "S" A.Parent_in) (A.Oextern_in "v")]
  in
  let join2 = Op.nl_join ~preds:[] outer2 inner2 ctx in
  Alcotest.(check int) "2 names x 1 root child" 2 (rows join2 1);
  Alcotest.(check int) "2 names x 2 authors children" 4 (rows join2 3)

(* A keyed inner that reads parameter slots is re-drained and re-keyed
   after every rebind; an index kept across the rebind would replay the
   first binding's matches. *)
let test_rebind_rekeys_inner () =
  let _, base = make_store () in
  let params = Tuple.make_params ["v"] in
  let ctx = Op.with_params base params in
  let outer = Op.full_scan ctx "P" ~preds:[elem_pred "P"] in
  (* Element children, restricted to those after $v. *)
  let inner =
    Op.full_scan ctx "C"
      ~preds:[elem_pred "C"; { A.left = ocol "C" A.In; op = A.Gt; right = A.Oextern_in "v" }]
  in
  let join = Op.nl_join ~preds:[eq (ocol "P" A.In) (ocol "C" A.Parent_in)] outer inner ctx in
  Alcotest.(check string) "inner keyed on its parent column"
    "P.in = C.parent_in; inner in memory, keyed on C.parent_in" join.Op.info.Op.detail;
  let pairs nin =
    Tuple.bind_params params (fun _ -> (nin, 0));
    Op.rebind join;
    join.Op.reset ();
    List.map (fun t -> (int_of t.(0), int_of t.(5))) (Op.drain join)
  in
  let all = [(2, 3); (2, 13); (3, 4); (3, 8)] in
  Alcotest.(check (list (pair int int))) "every parent-child pair" all (pairs 1);
  Alcotest.(check (list (pair int int))) "only children after in 5" [(2, 13); (3, 8)] (pairs 5);
  Alcotest.(check (list (pair int int))) "rebinding back agrees" all (pairs 1)

(* --- pin safety under disk faults ------------------------------------------ *)

(* Satellite of the pin-sanitizer work: a hard disk fault in the middle
   of an index scan or an index join must unwind without leaving a
   single pinned frame — otherwise each fault would permanently shrink
   the pool until it is unusable. *)

let hard_read_faults =
  { S.Fault_disk.read_fault_rate = 1.0;
    write_fault_rate = 0.;
    alloc_fault_rate = 0.;
    transient_fraction = 0.;  (* hard: defeats the pool's bounded retry *)
    torn_fraction = 0. }

let make_sanitized_store () =
  let disk = S.Disk.in_memory () in
  let pool = S.Buffer_pool.create ~capacity:8 ~sanitize:true disk in
  let store, _ = X.Shredder.shred_forest pool ~name:"t" [Xqdb_workload.Docs.figure2] in
  (disk, pool, Op.make_ctx store)

let expect_disk_error_pins_clean ~what ~pool ~ctx build =
  match Op.drain (build ()) with
  | _ -> Alcotest.fail (what ^ ": injected hard fault should surface as Disk_error")
  | exception S.Disk.Disk_error _ ->
    Alcotest.(check (list (pair int int))) (what ^ ": no pinned frames") []
      (S.Buffer_pool.pinned_pages pool);
    ignore ctx

let test_label_scan_fault_pins () =
  let disk, pool, ctx = make_sanitized_store () in
  S.Buffer_pool.drop_all pool;  (* the scan must fault its pages back in *)
  let injector = S.Fault_disk.attach ~policy:hard_read_faults ~seed:7 disk in
  expect_disk_error_pins_clean ~what:"label_scan mid-fault" ~pool ~ctx (fun () ->
      Op.label_scan ctx "R" ~ntype:Xasr.Element ~value:"name" ~preds:[]);
  S.Fault_disk.detach injector;
  (* Every frame is evictable again: the same scan now runs to completion. *)
  let op = Op.label_scan ctx "R" ~ntype:Xasr.Element ~value:"name" ~preds:[] in
  Alcotest.(check bool) "recovered scan produces rows" true (ins_of op <> [])

let test_inl_join_fault_pins () =
  let disk, pool, ctx = make_sanitized_store () in
  S.Buffer_pool.drop_all pool;
  let injector = S.Fault_disk.attach ~policy:hard_read_faults ~seed:11 disk in
  let build () =
    (* Constant probe over the nullary outer: the first probe hits the
       parent index, whose pages are all faulted. *)
    Op.inl_join ctx
      ~probe:(Op.Probe_child (A.Oint 1))
      ~alias:"C" ~preds:[] ~residual:[]
      (Op.singleton [] [||])
  in
  expect_disk_error_pins_clean ~what:"inl_join mid-fault" ~pool ~ctx build;
  S.Fault_disk.detach injector;
  let op = build () in
  Alcotest.(check bool) "recovered join produces rows" true (Op.count op > 0);
  Alcotest.(check (list (pair int int))) "inl_join after recovery: no pinned frames" []
    (S.Buffer_pool.pinned_pages pool)

(* Pin safety of the structural family: a hard fault mid-stream unwinds
   without leaving pinned frames, same contract as label_scan/inl_join. *)
let test_struct_ops_fault_pins () =
  let disk, pool, ctx = make_sanitized_store () in
  S.Buffer_pool.drop_all pool;
  let injector = S.Fault_disk.attach ~policy:hard_read_faults ~seed:13 disk in
  expect_disk_error_pins_clean ~what:"struct_scan mid-fault" ~pool ~ctx (fun () ->
      Op.struct_scan ctx "R" ~label:"name" ~preds:[]);
  expect_disk_error_pins_clean ~what:"struct_join mid-fault" ~pool ~ctx (fun () ->
      Op.struct_join ctx ~lo:(A.Oint 1) ~hi:(A.Oint 18) ~alias:"D" ~label:"name"
        ~preds:[] ~residual:[] (Op.singleton [] [||]));
  expect_disk_error_pins_clean ~what:"twig_match mid-fault" ~pool ~ctx (fun () ->
      Op.twig_match ctx ~anchor:None ~steps:[twig "N" "name" Op.Twig_desc]);
  S.Fault_disk.detach injector;
  let op = Op.struct_scan ctx "R" ~label:"name" ~preds:[] in
  Alcotest.(check (list int)) "recovered struct scan produces rows" [4; 8] (ins_of op);
  Alcotest.(check (list (pair int int))) "struct ops after recovery: no pinned frames" []
    (S.Buffer_pool.pinned_pages pool)

(* --- budget propagation -------------------------------------------------------- *)

let test_operator_budget () =
  let disk = S.Disk.in_memory () in
  let pool = S.Buffer_pool.create ~capacity:4 disk in
  let store, _ =
    X.Shredder.shred_forest pool ~name:"t"
      [Xqdb_workload.Dblp_gen.generate (Xqdb_workload.Dblp_gen.scaled 150)]
  in
  S.Buffer_pool.drop_all pool;
  let budget = S.Budget.create ~max_page_ios:2 () in
  let ctx = Op.make_ctx ~budget store in
  match S.Budget.run budget (fun () -> Op.count (Op.full_scan ctx "R" ~preds:[])) with
  | _ -> Alcotest.fail "expected exhaustion"
  | exception S.Budget.Exhausted _ -> ()

(* --- batch protocol ------------------------------------------------------- *)

(* Pull batches by hand, checking the protocol invariant as we go: a
   returned batch is never empty, exhaustion is always [None]. *)
let batch_lengths op =
  let rec go acc =
    match Op.next_batch op with
    | None -> List.rev acc
    | Some b ->
      Alcotest.(check bool) "a returned batch is never empty" true (b.Tuple.len > 0);
      go (b.Tuple.len :: acc)
  in
  go []

let test_batch_partial_and_empty () =
  let disk = S.Disk.in_memory () in
  let pool = S.Buffer_pool.create disk in
  let store, _ = X.Shredder.shred_forest pool ~name:"t" [Xqdb_workload.Docs.figure2] in
  let ctx = Op.make_ctx ~batch_size:4 store in
  (* Nine tuples at batch size four: two full batches plus a final
     partial one, with stats counted per row and per batch. *)
  let op = Op.full_scan ctx "R" ~preds:[] in
  Alcotest.(check (list int)) "final batch is partial" [4; 4; 1] (batch_lengths op);
  Alcotest.(check int) "stats count rows" 9 op.Op.stats.Op.rows;
  Alcotest.(check int) "stats count batches" 3 op.Op.stats.Op.batches;
  (* A predicate matching nothing yields None immediately, never a
     zero-length batch. *)
  let none = Op.full_scan ctx "R" ~preds:[value_pred "R" "zzz"] in
  Alcotest.(check (list int)) "empty result is None, not an empty batch" []
    (batch_lengths none);
  Alcotest.(check int) "empty result counts no batches" 0 none.Op.stats.Op.batches

let test_batch_straddles_pages () =
  let disk = S.Disk.in_memory () in
  let pool = S.Buffer_pool.create disk in
  let store, _ =
    X.Shredder.shred_forest pool ~name:"t"
      [Xqdb_workload.Dblp_gen.generate (Xqdb_workload.Dblp_gen.scaled 60)]
  in
  let total = X.Node_store.tuple_count store in
  let leaves = X.Node_store.primary_leaf_pages store in
  Alcotest.(check bool) "store spans several leaf pages" true (leaves > 1);
  Alcotest.(check bool) "store is larger than one batch" true (total > 512);
  (* A 512-row batch necessarily crosses leaf boundaries (a 4 KiB page
     holds far fewer XASR tuples), so a full first batch proves the scan
     keeps filling across page pulls rather than cutting batches at
     page edges. *)
  let big = Op.full_scan (Op.make_ctx ~batch_size:512 store) "R" ~preds:[] in
  (match batch_lengths big with
   | first :: _ -> Alcotest.(check int) "first batch fills across pages" 512 first
   | [] -> Alcotest.fail "scan produced no batches");
  Alcotest.(check int) "all rows delivered" total big.Op.stats.Op.rows;
  (* Degrading to one-row batches runs the identical code path and must
     produce the same rows in the same document order. *)
  let rows bs = ins_of (Op.full_scan (Op.make_ctx ~batch_size:bs store) "R" ~preds:[]) in
  Alcotest.(check bool) "batch=512 equals batch=1, in order" true (rows 512 = rows 1)

let test_rebind_between_batches () =
  let _, base = make_store () in
  let params = Tuple.make_params ["v"] in
  let ctx = Op.with_params { base with Op.batch_size = 1 } params in
  let op =
    Op.full_scan ctx "R"
      ~preds:[elem_pred "R"; eq (ocol "R" A.Parent_in) (A.Oextern_in "v")]
  in
  (* Consume only the first of authors' two children... *)
  Tuple.bind_params params (fun _ -> (3, 0));
  Op.rebind op;
  op.Op.reset ();
  (match Op.next_batch op with
   | Some b ->
     Alcotest.(check bool) "first child of authors" true
       ((Tuple.batch_row b 0).(0) = Tuple.I 4)
   | None -> Alcotest.fail "expected a first batch");
  (* ...then rebind mid-stream: the stream must restart under the new
     binding instead of resuming the old one. *)
  Tuple.bind_params params (fun _ -> (1, 0));
  Op.rebind op;
  op.Op.reset ();
  Alcotest.(check (list int)) "rebind mid-stream restarts cleanly" [2] (ins_of op)

let test_budget_partial_batches () =
  let disk = S.Disk.in_memory () in
  let pool = S.Buffer_pool.create ~capacity:4 disk in
  let store, _ =
    X.Shredder.shred_forest pool ~name:"t"
      [Xqdb_workload.Dblp_gen.generate (Xqdb_workload.Dblp_gen.scaled 150)]
  in
  S.Buffer_pool.drop_all pool;
  let budget = S.Budget.create ~max_page_ios:2 () in
  let ctx = Op.make_ctx ~budget store in
  let op = Op.full_scan ctx "R" ~preds:[] in
  (* The cap is enforced on the I/O, not polled per batch: the first
     batch's fill raises as soon as its third (clean, cold) read is
     charged, mid-batch, whatever the batch size. *)
  (match S.Budget.run budget (fun () -> Op.next_batch op) with
   | _ -> Alcotest.fail "expected exhaustion inside the first batch"
   | exception S.Budget.Exhausted _ -> ());
  Alcotest.(check int) "stopped at the crossing read" 3 (S.Budget.page_ios budget);
  Alcotest.(check (list (pair int int))) "censored batch: no pinned frames" []
    (S.Buffer_pool.pinned_pages pool);
  (* The censored operator still reports a consistent partial profile. *)
  let p = Op.profile op in
  Alcotest.(check int) "partial profile has no delivered batch" 0 p.Op.batches;
  Alcotest.(check int) "partial profile has no delivered rows" 0 p.Op.rows;
  Alcotest.(check int) "partial profile charged the I/O" 3 p.Op.ios

let test_ctx_validation () =
  let _, ctx = make_store () in
  let store_of (c : Op.ctx) = c.Op.store in
  (match Op.make_ctx ~batch_size:0 (store_of ctx) with
   | _ -> Alcotest.fail "batch_size 0 must be rejected"
   | exception Invalid_argument _ -> ())

let () =
  let prop = QCheck_alcotest.to_alcotest in
  Alcotest.run "physical"
    [ ( "tuples",
        [ prop tuple_roundtrip;
          Alcotest.test_case "keys" `Quick test_tuple_keys;
          Alcotest.test_case "predicate compilation" `Quick test_compile_preds ] );
      ( "scans",
        [ Alcotest.test_case "full and label scans" `Quick test_scans;
          Alcotest.test_case "unit and empty" `Quick test_unit_and_empty ] );
      ( "joins",
        [ Alcotest.test_case "methods agree" `Quick test_join_methods_agree;
          Alcotest.test_case "descendant probe" `Quick test_desc_probe;
          Alcotest.test_case "primary-key probe" `Quick test_pk_probe;
          Alcotest.test_case "products and inner modes" `Quick test_product_and_modes;
          Alcotest.test_case "block nested loops" `Quick test_bnl_join;
          Alcotest.test_case "semijoin early-out" `Quick test_semi_join;
          prop keyed_join_agrees ] );
      ( "structural",
        [ Alcotest.test_case "struct scan" `Quick test_struct_scan;
          Alcotest.test_case "staircase join = index join" `Quick test_struct_join_agrees;
          Alcotest.test_case "twig matching" `Quick test_twig_match_hand_verified ] );
      ( "projection",
        [ Alcotest.test_case "filter and dedup" `Quick test_filter_and_project ] );
      ( "sorting",
        [ Alcotest.test_case "three sorts agree" `Quick test_sorts_agree;
          Alcotest.test_case "materialize" `Quick test_materialize ] );
      ( "params",
        [ Alcotest.test_case "bind and rebind" `Quick test_params_rebind;
          Alcotest.test_case "rebind cache policy" `Quick test_rebind_cache_policy;
          Alcotest.test_case "rebind re-keys the inner" `Quick test_rebind_rekeys_inner ] );
      ( "pin safety",
        [ Alcotest.test_case "label_scan fault leaves no pins" `Quick
            test_label_scan_fault_pins;
          Alcotest.test_case "inl_join fault leaves no pins" `Quick
            test_inl_join_fault_pins;
          Alcotest.test_case "structural family leaves no pins" `Quick
            test_struct_ops_fault_pins ] );
      ("budget", [Alcotest.test_case "propagation" `Quick test_operator_budget]);
      ( "batches",
        [ Alcotest.test_case "partial and empty batches" `Quick
            test_batch_partial_and_empty;
          Alcotest.test_case "batches straddle page boundaries" `Quick
            test_batch_straddles_pages;
          Alcotest.test_case "rebind between batches" `Quick
            test_rebind_between_batches;
          Alcotest.test_case "budget censoring mid-stream" `Quick
            test_budget_partial_batches;
          Alcotest.test_case "ctx validation" `Quick test_ctx_validation ] ) ]
