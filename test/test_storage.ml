(* Tests for the storage manager: disk, buffer pool, slotted pages, heap
   files, codecs, B+-trees, external sort, catalog, budgets. *)

module S = Xqdb_storage
module G = QCheck2.Gen

let fresh_pool ?(page_size = 512) ?(capacity = 32) () =
  let disk = S.Disk.in_memory ~page_size () in
  (disk, S.Buffer_pool.create ~capacity disk)

let enc_int v =
  let buf = Buffer.create 8 in
  S.Bytes_codec.key_int buf v;
  Buffer.to_bytes buf

let dec_int k = S.Bytes_codec.read_key_int (S.Bytes_codec.reader k)

(* --- disk ---------------------------------------------------------------- *)

let test_disk_mem () =
  let disk = S.Disk.in_memory ~page_size:128 () in
  Alcotest.(check int) "page 0 reserved" 1 (S.Disk.page_count disk);
  let p = S.Disk.alloc disk in
  let buf = Bytes.make 128 'x' in
  S.Disk.write_page disk p buf;
  Alcotest.(check bytes) "read back" buf (S.Disk.read_page disk p);
  let c = S.Disk.counters disk in
  Alcotest.(check int) "reads counted" 1 c.S.Disk.reads;
  Alcotest.(check int) "writes counted" 1 c.S.Disk.writes;
  (match S.Disk.read_page disk 99 with
   | _ -> Alcotest.fail "unallocated page should raise"
   | exception Invalid_argument _ -> ());
  (match S.Disk.write_page disk p (Bytes.create 4) with
   | _ -> Alcotest.fail "size mismatch should raise"
   | exception Invalid_argument _ -> ())

let test_disk_file () =
  let path = Filename.temp_file "xqdb_test" ".db" in
  let disk = S.Disk.on_file ~page_size:256 path in
  let p1 = S.Disk.alloc disk in
  let p2 = S.Disk.alloc disk in
  (* write_page stamps the checksum into the buffer in place, so compare
     the read against the buffer as written, not a fresh fill. *)
  let a = Bytes.make 256 'a' in
  let b = Bytes.make 256 'b' in
  S.Disk.write_page disk p1 a;
  S.Disk.write_page disk p2 b;
  Alcotest.(check bytes) "page 1" a (S.Disk.read_page disk p1);
  Alcotest.(check bytes) "page 2" b (S.Disk.read_page disk p2);
  S.Disk.close disk;
  Sys.remove path

(* --- buffer pool ---------------------------------------------------------- *)

(* The counters [f] charged to a fresh Metrics scope. *)
let charged f =
  let s = S.Metrics.scope () in
  S.Metrics.with_scope s f;
  S.Metrics.scope_snapshot s

let test_buffer_pool () =
  let disk = S.Disk.in_memory ~page_size:128 () in
  let pool = S.Buffer_pool.create ~capacity:2 disk in
  let pages = List.init 4 (fun _ -> S.Buffer_pool.alloc_page pool) in
  S.Buffer_pool.flush_all pool;
  (* Touch all four pages through a 2-frame pool: eviction must happen. *)
  let touched =
    charged (fun () ->
        List.iter
          (fun p -> S.Buffer_pool.with_page_mut pool p (fun b -> Bytes.set b 0 'z'))
          pages)
  in
  Alcotest.(check bool) "evictions happened" true (S.Metrics.get touched "pool.evictions" > 0);
  S.Buffer_pool.flush_all pool;
  (* The writes survived eviction. *)
  List.iter
    (fun p -> Alcotest.(check char) "persisted" 'z' (Bytes.get (S.Disk.read_page disk p) 0))
    pages;
  (* Hits: the same page twice in a row. *)
  let twice =
    charged (fun () ->
        S.Buffer_pool.with_page pool (List.hd pages) ignore;
        S.Buffer_pool.with_page pool (List.hd pages) ignore)
  in
  Alcotest.(check int) "second access is a hit" 1 (S.Metrics.get twice "pool.hits");
  (* Nested pins on distinct pages up to capacity are fine. *)
  (match pages with
   | a :: b :: _ ->
     S.Buffer_pool.with_page pool a (fun _ -> S.Buffer_pool.with_page pool b ignore)
   | _ -> assert false)

let test_pool_all_pinned () =
  let disk = S.Disk.in_memory ~page_size:128 () in
  let pool = S.Buffer_pool.create ~capacity:1 disk in
  let p1 = S.Buffer_pool.alloc_page pool in
  match S.Buffer_pool.with_page pool p1 (fun _ -> S.Buffer_pool.alloc_page pool) with
  | _ -> Alcotest.fail "expected Pool_exhausted when all frames are pinned"
  | exception S.Buffer_pool.Pool_exhausted _ -> ()

(* Every frame pinned at once, up to capacity — the next fetch must raise
   the typed exception, and releasing one pin must make the pool usable
   again. *)
let test_pool_exhausted_recovers () =
  let disk = S.Disk.in_memory ~page_size:128 () in
  let pool = S.Buffer_pool.create ~capacity:3 disk in
  let pages = List.init 4 (fun _ -> S.Buffer_pool.alloc_page pool) in
  let p0, p1, p2, p3 =
    match pages with [a; b; c; d] -> (a, b, c, d) | _ -> assert false
  in
  S.Buffer_pool.with_page pool p0 (fun _ ->
      S.Buffer_pool.with_page pool p1 (fun _ ->
          S.Buffer_pool.with_page pool p2 (fun _ ->
              match S.Buffer_pool.with_page pool p3 ignore with
              | _ -> Alcotest.fail "expected Pool_exhausted with every frame pinned"
              | exception S.Buffer_pool.Pool_exhausted _ -> ())));
  (* All pins released: the fetch that just failed now succeeds. *)
  S.Buffer_pool.with_page pool p3 ignore

(* Victim selection is strict LRU over access order — deterministic, not
   dependent on hashtable iteration order. *)
let test_pool_lru_order () =
  let disk = S.Disk.in_memory ~page_size:128 () in
  let pool = S.Buffer_pool.create ~capacity:3 disk in
  let pages = Array.init 4 (fun _ -> S.Buffer_pool.alloc_page pool) in
  S.Buffer_pool.flush_all pool;
  S.Buffer_pool.drop_all pool;
  (* Access 0, 1, 2, then re-touch 0: LRU order is now 1, 2, 0. *)
  S.Buffer_pool.with_page pool pages.(0) ignore;
  S.Buffer_pool.with_page pool pages.(1) ignore;
  S.Buffer_pool.with_page pool pages.(2) ignore;
  S.Buffer_pool.with_page pool pages.(0) ignore;
  (* Fetching page 3 evicts page 1 (the LRU), so 2 and 0 are still hits. *)
  let c =
    charged (fun () ->
        S.Buffer_pool.with_page pool pages.(3) ignore;
        S.Buffer_pool.with_page pool pages.(2) ignore;
        S.Buffer_pool.with_page pool pages.(0) ignore)
  in
  Alcotest.(check int) "one miss (the new page)" 1 (S.Metrics.get c "pool.misses");
  Alcotest.(check int) "survivors hit" 2 (S.Metrics.get c "pool.hits");
  Alcotest.(check int) "one eviction" 1 (S.Metrics.get c "pool.evictions");
  (* And page 1 is gone: touching it evicts the then-LRU page 3. *)
  let c = charged (fun () -> S.Buffer_pool.with_page pool pages.(1) ignore) in
  Alcotest.(check int) "evicted page misses" 1 (S.Metrics.get c "pool.misses")

(* --- slotted pages --------------------------------------------------------- *)

let test_page_slots () =
  let page = Bytes.make 256 '\000' in
  S.Page.init page;
  Alcotest.(check int) "empty" 0 (S.Page.slot_count page);
  let s0 = S.Page.add_slot page (Bytes.of_string "alpha") in
  let s1 = S.Page.add_slot page (Bytes.of_string "beta") in
  Alcotest.(check int) "slot ids" 1 (s1 - s0);
  Alcotest.(check string) "read back" "alpha" (Bytes.to_string (S.Page.read_slot page 0));
  S.Page.insert_slot_at page 1 (Bytes.of_string "middle");
  Alcotest.(check string) "inserted in order" "middle"
    (Bytes.to_string (S.Page.read_slot page 1));
  Alcotest.(check string) "shifted" "beta" (Bytes.to_string (S.Page.read_slot page 2));
  S.Page.remove_slot_at page 0;
  Alcotest.(check string) "after removal" "middle" (Bytes.to_string (S.Page.read_slot page 0));
  let live_before = S.Page.live_bytes page in
  S.Page.compact page;
  Alcotest.(check int) "compaction preserves live bytes" live_before (S.Page.live_bytes page);
  Alcotest.(check string) "compaction preserves content" "middle"
    (Bytes.to_string (S.Page.read_slot page 0))

let test_page_overflow () =
  let page = Bytes.make 64 '\000' in
  S.Page.init page;
  match
    for _ = 1 to 100 do
      ignore (S.Page.add_slot page (Bytes.of_string "0123456789"))
    done
  with
  | () -> Alcotest.fail "expected page overflow"
  | exception S.Page.Page_full _ -> ()

let test_page_overflow_insert_at () =
  let page = Bytes.make 64 '\000' in
  S.Page.init page;
  ignore (S.Page.add_slot page (Bytes.of_string "0123456789"));
  match S.Page.insert_slot_at page 0 (Bytes.create 60) with
  | () -> Alcotest.fail "expected page overflow"
  | exception S.Page.Page_full _ -> ()

(* --- codecs ---------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let buf = Buffer.create 64 in
  S.Bytes_codec.write_uvarint buf 0;
  S.Bytes_codec.write_uvarint buf 127;
  S.Bytes_codec.write_uvarint buf 128;
  S.Bytes_codec.write_uvarint buf 300_000_000;
  S.Bytes_codec.write_string buf "hello";
  S.Bytes_codec.write_string buf "";
  let r = S.Bytes_codec.reader (Buffer.to_bytes buf) in
  Alcotest.(check int) "0" 0 (S.Bytes_codec.read_uvarint r);
  Alcotest.(check int) "127" 127 (S.Bytes_codec.read_uvarint r);
  Alcotest.(check int) "128" 128 (S.Bytes_codec.read_uvarint r);
  Alcotest.(check int) "large" 300_000_000 (S.Bytes_codec.read_uvarint r);
  Alcotest.(check string) "string" "hello" (S.Bytes_codec.read_string r);
  Alcotest.(check string) "empty string" "" (S.Bytes_codec.read_string r)

let key_int_order =
  QCheck2.Test.make ~name:"key_int is order-preserving" ~count:500
    G.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) -> compare a b = S.Bytes_codec.compare_bytes (enc_int a) (enc_int b))

let enc_str s =
  let buf = Buffer.create 16 in
  S.Bytes_codec.key_string buf s;
  Buffer.to_bytes buf

let key_string_order =
  QCheck2.Test.make ~name:"key_string is order-preserving" ~count:500
    G.(pair (string_size (int_bound 12)) (string_size (int_bound 12)))
    (fun (a, b) ->
      let c = compare (String.compare a b) 0 in
      compare (S.Bytes_codec.compare_bytes (enc_str a) (enc_str b)) 0 = c)

let key_string_roundtrip =
  QCheck2.Test.make ~name:"key_string round trip" ~count:500 G.(string_size (int_bound 20))
    (fun s ->
      let r = S.Bytes_codec.reader (enc_str s) in
      String.equal s (S.Bytes_codec.read_key_string r))

(* Composite keys compare componentwise. *)
let composite_key_order =
  QCheck2.Test.make ~name:"composite (string,int) keys" ~count:500
    G.(pair (pair (string_size (int_bound 6)) (int_bound 100))
         (pair (string_size (int_bound 6)) (int_bound 100)))
    (fun ((s1, i1), (s2, i2)) ->
      let enc (s, i) =
        let buf = Buffer.create 24 in
        S.Bytes_codec.key_string buf s;
        S.Bytes_codec.key_int buf i;
        Buffer.to_bytes buf
      in
      let expected = compare (compare (s1, i1) (s2, i2)) 0 in
      compare (S.Bytes_codec.compare_bytes (enc (s1, i1)) (enc (s2, i2))) 0 = expected)

(* --- heap files ------------------------------------------------------------- *)

let test_heap_file () =
  let _, pool = fresh_pool () in
  let hf = S.Heap_file.create pool in
  let records = List.init 200 (fun i -> Bytes.of_string (Printf.sprintf "record-%04d" i)) in
  let rids = List.map (S.Heap_file.append hf) records in
  Alcotest.(check int) "record count" 200 (S.Heap_file.record_count hf);
  Alcotest.(check bool) "spans pages" true (S.Heap_file.page_count hf > 1);
  (* get by rid *)
  List.iteri
    (fun i rid ->
      Alcotest.(check string) "fetch by rid"
        (Printf.sprintf "record-%04d" i)
        (Bytes.to_string (S.Heap_file.get hf rid)))
    rids;
  (* scan in insertion order *)
  let scanned = ref [] in
  S.Heap_file.iter hf (fun _ r -> scanned := Bytes.to_string r :: !scanned);
  Alcotest.(check (list string)) "scan order" (List.map Bytes.to_string records)
    (List.rev !scanned);
  (* reopen from the first page *)
  let hf2 = S.Heap_file.open_existing pool ~first_page:(S.Heap_file.first_page hf) in
  Alcotest.(check int) "reopened count" 200 (S.Heap_file.record_count hf2);
  (* pull cursor agrees with iter *)
  let cursor = S.Heap_file.scan hf in
  let rec drain acc =
    match cursor () with
    | None -> List.rev acc
    | Some r -> drain (Bytes.to_string r :: acc)
  in
  Alcotest.(check (list string)) "cursor order" (List.map Bytes.to_string records) (drain [])

let test_heap_file_oversize () =
  let _, pool = fresh_pool ~page_size:128 () in
  let hf = S.Heap_file.create pool in
  match S.Heap_file.append hf (Bytes.create 200) with
  | _ -> Alcotest.fail "oversized record should be rejected"
  | exception Invalid_argument _ -> ()

(* --- B+-tree: model-based property ----------------------------------------- *)

type btree_op =
  | Insert of int * string
  | Delete of int
  | Find of int

let op_gen =
  G.(oneof
       [ map2 (fun k v -> Insert (k, Printf.sprintf "v%d" v)) (int_bound 400) (int_bound 1000);
         map (fun k -> Delete k) (int_bound 400);
         map (fun k -> Find k) (int_bound 400) ])

let btree_matches_model =
  QCheck2.Test.make ~name:"btree agrees with Map model" ~count:60
    G.(list_size (int_range 1 400) op_gen)
    (fun ops ->
      let _, pool = fresh_pool ~page_size:256 () in
      let bt = S.Btree.create pool in
      let module M = Map.Make (Int) in
      let model = ref M.empty in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Insert (k, v) ->
            S.Btree.insert bt ~key:(enc_int k) ~value:(Bytes.of_string v);
            model := M.add k v !model
          | Delete k ->
            let removed = S.Btree.delete bt ~key:(enc_int k) in
            if removed <> M.mem k !model then ok := false;
            model := M.remove k !model
          | Find k ->
            let got = Option.map Bytes.to_string (S.Btree.find bt ~key:(enc_int k)) in
            if got <> M.find_opt k !model then ok := false)
        ops;
      S.Btree.check_invariants bt;
      if S.Btree.entry_count bt <> M.cardinal !model then ok := false;
      (* Full scan agrees with the model, in order. *)
      let scanned = ref [] in
      S.Btree.iter bt (fun k v -> scanned := (dec_int k, Bytes.to_string v) :: !scanned);
      if List.rev !scanned <> M.bindings !model then ok := false;
      !ok)

let btree_range_scan_model =
  QCheck2.Test.make ~name:"btree range scans agree with Map model" ~count:40
    G.(triple (list_size (int_range 1 300) (int_bound 500)) (int_bound 500) (int_bound 500))
    (fun (keys, a, b) ->
      let lo, hi = (min a b, max a b) in
      let _, pool = fresh_pool ~page_size:256 () in
      let bt = S.Btree.create pool in
      let module M = Map.Make (Int) in
      let model =
        List.fold_left
          (fun m k ->
            S.Btree.insert bt ~key:(enc_int k) ~value:(enc_int (k * 2));
            M.add k (k * 2) m)
          M.empty keys
      in
      let cursor = S.Btree.scan_range ~lo:(enc_int lo) ~hi:(enc_int hi) bt in
      let rec drain acc =
        match cursor () with
        | None -> List.rev acc
        | Some (k, _) -> drain (dec_int k :: acc)
      in
      let expected =
        M.bindings model |> List.map fst |> List.filter (fun k -> lo <= k && k <= hi)
      in
      drain [] = expected)

let test_btree_replace_and_meta () =
  let _, pool = fresh_pool () in
  let bt = S.Btree.create pool in
  for i = 1 to 1000 do
    S.Btree.insert bt ~key:(enc_int i) ~value:(enc_int i)
  done;
  S.Btree.insert bt ~key:(enc_int 500) ~value:(Bytes.of_string "replaced");
  Alcotest.(check int) "replace keeps count" 1000 (S.Btree.entry_count bt);
  Alcotest.(check string) "replaced value" "replaced"
    (Bytes.to_string (Option.get (S.Btree.find bt ~key:(enc_int 500))));
  Alcotest.(check bool) "tree grew" true (S.Btree.height bt > 1);
  (* Reopen from the meta page. *)
  let bt2 = S.Btree.open_existing pool ~meta_page:(S.Btree.meta_page bt) in
  Alcotest.(check int) "reopened count" 1000 (S.Btree.entry_count bt2);
  Alcotest.(check string) "reopened lookup" "replaced"
    (Bytes.to_string (Option.get (S.Btree.find bt2 ~key:(enc_int 500))));
  S.Btree.check_invariants bt2

let test_btree_bulk_load () =
  let _, pool = fresh_pool () in
  let i = ref 0 in
  let cursor () =
    if !i >= 5000 then None
    else begin
      incr i;
      Some (enc_int (!i * 3), enc_int !i)
    end
  in
  let bt = S.Btree.of_cursor pool cursor in
  S.Btree.check_invariants bt;
  Alcotest.(check int) "count" 5000 (S.Btree.entry_count bt);
  Alcotest.(check (option bytes)) "lookup" (Some (enc_int 7)) (S.Btree.find bt ~key:(enc_int 21));
  Alcotest.(check (option bytes)) "gap misses" None (S.Btree.find bt ~key:(enc_int 20));
  (* Bulk-loaded leaves are packed tighter than random inserts. *)
  let _, pool2 = fresh_pool () in
  let bt_random = S.Btree.create pool2 in
  let order = Array.init 5000 (fun j -> (j + 1) * 3) in
  let st = Random.State.make [| 99 |] in
  for j = 4999 downto 1 do
    let k = Random.State.int st (j + 1) in
    let tmp = order.(j) in
    order.(j) <- order.(k);
    order.(k) <- tmp
  done;
  Array.iter (fun k -> S.Btree.insert bt_random ~key:(enc_int k) ~value:(enc_int k)) order;
  Alcotest.(check bool) "bulk load packs leaves" true
    (S.Btree.leaf_pages bt < S.Btree.leaf_pages bt_random);
  (* Unsorted input is rejected. *)
  let backwards = ref 2 in
  let bad () =
    if !backwards < 0 then None
    else begin
      let k = !backwards in
      decr backwards;
      Some (enc_int k, Bytes.empty)
    end
  in
  match S.Btree.of_cursor pool bad with
  | _ -> Alcotest.fail "descending keys should be rejected"
  | exception Invalid_argument _ -> ()

let test_btree_prefix_scan () =
  let _, pool = fresh_pool () in
  let bt = S.Btree.create pool in
  let composite s i =
    let buf = Buffer.create 24 in
    S.Bytes_codec.key_string buf s;
    S.Bytes_codec.key_int buf i;
    Buffer.to_bytes buf
  in
  List.iter
    (fun (s, i) -> S.Btree.insert bt ~key:(composite s i) ~value:Bytes.empty)
    [("ab", 1); ("a", 2); ("a", 1); ("b", 1); ("a", 3); ("ba", 9)];
  let cursor = S.Btree.scan_prefix bt ~prefix:(enc_str "a") in
  let rec count n = if cursor () = None then n else count (n + 1) in
  Alcotest.(check int) "prefix a matches exactly its group" 3 (count 0)

(* --- external sort ----------------------------------------------------------- *)

let ext_sort_property =
  QCheck2.Test.make ~name:"external sort: sorted permutation of input" ~count:40
    G.(list_size (int_range 0 2000) (int_bound 10_000))
    (fun values ->
      let _, pool = fresh_pool () in
      let sorter = S.Ext_sort.create ~run_bytes:512 pool ~compare:S.Bytes_codec.compare_bytes in
      List.iter (fun v -> S.Ext_sort.feed sorter (enc_int v)) values;
      let cursor = S.Ext_sort.sorted_cursor sorter in
      let rec drain acc =
        match cursor () with
        | None -> List.rev acc
        | Some r -> drain (dec_int r :: acc)
      in
      drain [] = List.sort compare values)

let test_ext_sort_spill () =
  let _, pool = fresh_pool () in
  let sorter = S.Ext_sort.create ~run_bytes:256 ~fan_in:2 pool ~compare:S.Bytes_codec.compare_bytes in
  for i = 1000 downto 1 do
    S.Ext_sort.feed sorter (enc_int i)
  done;
  let cursor = S.Ext_sort.sorted_cursor sorter in
  Alcotest.(check bool) "spilled to disk" true (S.Ext_sort.run_count sorter > 2);
  let rec drain n prev =
    match cursor () with
    | None -> n
    | Some r ->
      let v = dec_int r in
      Alcotest.(check bool) "ascending" true (v > prev);
      drain (n + 1) v
  in
  Alcotest.(check int) "all records" 1000 (drain 0 0);
  (match S.Ext_sort.feed sorter (enc_int 1) with
   | _ -> Alcotest.fail "feeding after draining should be rejected"
   | exception Invalid_argument _ -> ())

(* --- catalog ------------------------------------------------------------------ *)

let test_catalog () =
  let _, pool = fresh_pool () in
  let cat = S.Catalog.attach pool in
  S.Catalog.set cat "doc.primary" "42";
  S.Catalog.set_int cat "doc.count" 1234;
  S.Catalog.flush cat;
  let cat2 = S.Catalog.attach pool in
  Alcotest.(check (option string)) "string round trip" (Some "42")
    (S.Catalog.get cat2 "doc.primary");
  Alcotest.(check (option int)) "int round trip" (Some 1234) (S.Catalog.get_int cat2 "doc.count");
  Alcotest.(check (option string)) "missing key" None (S.Catalog.get cat2 "nope");
  S.Catalog.remove cat2 "doc.primary";
  S.Catalog.flush cat2;
  let cat3 = S.Catalog.attach pool in
  Alcotest.(check (option string)) "removal persisted" None (S.Catalog.get cat3 "doc.primary");
  Alcotest.(check int) "entries" 1 (List.length (S.Catalog.entries cat3))

let test_catalog_overflow () =
  let _, pool = fresh_pool ~page_size:256 () in
  let cat = S.Catalog.attach pool in
  (* Far more entries than one 256-byte page holds. *)
  for i = 1 to 120 do
    S.Catalog.set cat (Printf.sprintf "key-%03d" i) (Printf.sprintf "value-%03d" i)
  done;
  S.Catalog.flush cat;
  let cat2 = S.Catalog.attach pool in
  Alcotest.(check int) "all entries survive the chain" 120
    (List.length (S.Catalog.entries cat2));
  Alcotest.(check (option string)) "spot check" (Some "value-077")
    (S.Catalog.get cat2 "key-077");
  (* Shrinking back below one page truncates the chain logically. *)
  for i = 2 to 120 do
    S.Catalog.remove cat2 (Printf.sprintf "key-%03d" i)
  done;
  S.Catalog.flush cat2;
  let cat3 = S.Catalog.attach pool in
  Alcotest.(check int) "shrunk" 1 (List.length (S.Catalog.entries cat3));
  (* Growing again reuses the old overflow pages. *)
  for i = 1 to 60 do
    S.Catalog.set cat3 (Printf.sprintf "re-%03d" i) "x"
  done;
  S.Catalog.flush cat3;
  Alcotest.(check int) "regrown" 61 (List.length (S.Catalog.entries (S.Catalog.attach pool)))

(* --- budgets ------------------------------------------------------------------- *)

let test_budget () =
  let disk = S.Disk.in_memory ~page_size:128 () in
  let budget = S.Budget.create ~max_page_ios:5 () in
  S.Budget.check budget;
  let p = S.Disk.alloc disk in
  let reads n () =
    for _ = 1 to n do
      ignore (S.Disk.read_page disk p)
    done
  in
  S.Metrics.with_scope (S.Budget.scope budget) (reads 6);
  Alcotest.(check int) "consumption measured" 6 (S.Budget.page_ios budget);
  (match S.Budget.check budget with
   | _ -> Alcotest.fail "budget should be exhausted"
   | exception S.Budget.Exhausted _ -> ());
  (* I/O outside the budget's scope is not charged to it. *)
  reads 10 ();
  Alcotest.(check int) "unscoped reads not charged" 6 (S.Budget.page_ios budget);
  (* A budget without caps never trips. *)
  let free = S.Budget.create () in
  S.Metrics.with_scope (S.Budget.scope free) (reads 100);
  S.Budget.check free

(* Two requests on two domains, interleaved deterministically: A holds a
   zero-I/O budget in scope while B does pool I/O under its own.  A
   budget that read a process-wide counter would charge B's misses to A
   and censor it. *)
let test_budget_isolation () =
  let disk = S.Disk.in_memory ~page_size:128 () in
  let pool = S.Buffer_pool.create ~capacity:2 disk in
  let pages = List.init 4 (fun _ -> S.Buffer_pool.alloc_page pool) in
  S.Buffer_pool.drop_all pool;
  let turn = Atomic.make 0 in
  let await n =
    while Atomic.get turn <> n do
      Domain.cpu_relax ()
    done
  in
  let a =
    Domain.spawn (fun () ->
        let budget = S.Budget.create ~max_page_ios:0 () in
        S.Metrics.with_scope (S.Budget.scope budget) (fun () ->
            Atomic.set turn 1;
            await 2;
            S.Budget.check budget;
            S.Budget.page_ios budget))
  in
  let b =
    Domain.spawn (fun () ->
        await 1;
        let mine = S.Budget.create () in
        S.Metrics.with_scope (S.Budget.scope mine) (fun () ->
            List.iter (fun p -> S.Buffer_pool.with_page pool p ignore) pages);
        Atomic.set turn 2;
        S.Budget.page_ios mine)
  in
  let b_ios = Domain.join b in
  let a_ios = Domain.join a in
  Alcotest.(check int) "B's misses charged to B" 4 b_ios;
  Alcotest.(check int) "none charged to A" 0 a_ios

(* The time budget is an elapsed-time budget.  Sleeping accrues no process
   CPU time, so under the old [Sys.time] implementation this budget
   never tripped — a hung I/O or a descheduled domain ran forever. *)
let test_budget_wall_clock () =
  let budget = S.Budget.create ~max_seconds:0.05 () in
  S.Budget.check budget;
  Unix.sleepf 0.1;
  Alcotest.(check bool) "elapsed is wall time" true (S.Budget.elapsed budget >= 0.05);
  match S.Budget.check budget with
  | _ -> Alcotest.fail "time budget should trip while sleeping"
  | exception S.Budget.Exhausted _ -> ()

let test_monotonic () =
  let t0 = S.Monotonic.now () in
  Unix.sleepf 0.02;
  let dt = S.Monotonic.elapsed_since t0 in
  Alcotest.(check bool) "sleep is visible" true (dt >= 0.02);
  Alcotest.(check bool) "and bounded" true (dt < 5.0)

(* --- latches ------------------------------------------------------------- *)

let test_latch_shared_overlap () =
  let l = S.Latch.create () in
  S.Latch.acquire_shared l;
  S.Latch.acquire_shared l;
  Alcotest.(check int) "two readers" 2 (S.Latch.holders l);
  S.Latch.release l;
  S.Latch.release l;
  Alcotest.(check bool) "idle after release" true (S.Latch.idle l)

let test_latch_exclusive_excludes () =
  let l = S.Latch.create () in
  (* A reader and a writer domain contend for the latch; the observed
     holder states must never show both at once. *)
  let reader_ran = Atomic.make false in
  S.Latch.acquire_exclusive l;
  Alcotest.(check int) "writer holds" (-1) (S.Latch.holders l);
  let d =
    Domain.spawn (fun () ->
        S.Latch.acquire_shared l;
        Atomic.set reader_ran true;
        S.Latch.release l)
  in
  Unix.sleepf 0.02;
  Alcotest.(check bool) "reader blocked behind writer" false (Atomic.get reader_ran);
  S.Latch.release l;
  Domain.join d;
  Alcotest.(check bool) "reader ran after release" true (Atomic.get reader_ran);
  Alcotest.(check bool) "idle at the end" true (S.Latch.idle l)

let test_latch_writer_preference () =
  let l = S.Latch.create () in
  S.Latch.acquire_shared l;
  let writer_holds = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        S.Latch.acquire_exclusive l;
        Atomic.set writer_holds true;
        Unix.sleepf 0.02;
        S.Latch.release l)
  in
  (* Give the writer time to park in the wait queue, then a late reader
     must queue behind it rather than overtaking. *)
  Unix.sleepf 0.02;
  let late_reader =
    Domain.spawn (fun () ->
        S.Latch.acquire_shared l;
        (* By the time any new reader gets in, the writer must have
           already held the latch. *)
        Alcotest.(check bool) "writer went first" true (Atomic.get writer_holds);
        S.Latch.release l)
  in
  Unix.sleepf 0.02;
  S.Latch.release l;
  Domain.join writer;
  Domain.join late_reader;
  Alcotest.(check bool) "idle at the end" true (S.Latch.idle l)

let test_latch_release_unheld () =
  let l = S.Latch.create () in
  match S.Latch.release l with
  | () -> Alcotest.fail "releasing a free latch should raise"
  | exception S.Latch.Latch_error _ -> ()

(* Nested [use] of the same page by one domain must ride on the hold it
   already has (the latch is not reentrant), and an upgrade — mutating
   nested inside a shared read — must raise instead of deadlocking. *)
let test_latch_nested_same_page () =
  let _, pool = fresh_pool () in
  let p = S.Buffer_pool.alloc_page pool in
  S.Buffer_pool.with_page_mut pool p (fun outer ->
      Bytes.set outer 0 'a';
      S.Buffer_pool.with_page pool p (fun inner ->
          Alcotest.(check char) "read nested in write" 'a' (Bytes.get inner 0)));
  S.Buffer_pool.with_page pool p (fun _ ->
      S.Buffer_pool.with_page pool p (fun _ -> ()));
  (match
     S.Buffer_pool.with_page pool p (fun _ ->
         S.Buffer_pool.with_page_mut pool p (fun _ -> ()))
   with
  | () -> Alcotest.fail "latch upgrade should raise"
  | exception S.Latch.Latch_error _ -> ());
  Alcotest.(check (list (pair int int))) "no latches survive" []
    (S.Buffer_pool.latched_pages pool);
  S.Buffer_pool.assert_unpinned ~where:"nested latches" pool

(* K domains hammer the pool concurrently — disjoint mutated pages plus
   one shared read-only page — under the sanitizer.  Every domain's
   writes must all land, readers must see consistent snapshots of the
   shared page, and the pool must end quiescent. *)
let test_pool_concurrent_domains () =
  let order_violations = S.Metrics.counter "latch.order_violations" in
  let violations_before = S.Metrics.value order_violations in
  let disk = S.Disk.in_memory ~page_size:128 () in
  let pool = S.Buffer_pool.create ~capacity:16 ~sanitize:true disk in
  let shared = S.Buffer_pool.alloc_page pool in
  S.Buffer_pool.with_page_mut pool shared (fun b ->
      Bytes.fill b 0 (Bytes.length b) 's');
  let own = Array.init 4 (fun _ -> S.Buffer_pool.alloc_page pool) in
  let tears = Atomic.make 0 in
  let domains =
    List.init 4 (fun k ->
        Domain.spawn (fun () ->
            for i = 1 to 200 do
              S.Buffer_pool.with_page_mut pool own.(k) (fun b ->
                  Bytes.set b 0 (Char.chr (i land 0xff));
                  Bytes.set b 1 (Char.chr (i land 0xff)));
              S.Buffer_pool.with_page pool shared (fun b ->
                  if Bytes.get b 0 <> 's' then Atomic.incr tears)
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "shared page never torn" 0 (Atomic.get tears);
  Array.iter
    (fun p ->
      S.Buffer_pool.with_page pool p (fun b ->
          Alcotest.(check char) "both bytes of the last write" (Bytes.get b 0)
            (Bytes.get b 1)))
    own;
  Alcotest.(check (list (pair int int))) "no pins survive" []
    (S.Buffer_pool.pinned_pages pool);
  Alcotest.(check (list (pair int int))) "no latches survive" []
    (S.Buffer_pool.latched_pages pool);
  S.Buffer_pool.drop_all pool;
  (* Lockdep watched every acquisition above; single-page holds plus the
     table-mutex edges are acyclic, so this run must be violation-free. *)
  Alcotest.(check int) "no lock-order violations" 0
    (S.Metrics.value order_violations - violations_before)

(* --- latch-order checker (lockdep) ---------------------------------------------- *)

(* Two domains that nest two page latches in opposite orders are a
   deadlock waiting for the right interleaving.  Lockdep must report it
   on every run: edges survive release, so whichever domain records its
   nesting second closes the cycle and raises — deterministically,
   whether or not the domains ever overlap.  Exactly one raises (edge
   insertion is serialized), and the raise happens before blocking, so
   the other domain completes and the pool stays consistent. *)
let test_lockdep_opposite_order () =
  S.Lock_order.reset ();
  let order_violations = S.Metrics.counter "latch.order_violations" in
  let violations_before = S.Metrics.value order_violations in
  let disk = S.Disk.in_memory ~page_size:128 () in
  let pool = S.Buffer_pool.create ~capacity:8 ~sanitize:true disk in
  let a = S.Buffer_pool.alloc_page pool in
  let b = S.Buffer_pool.alloc_page pool in
  let nest first second () =
    S.Buffer_pool.with_page_mut pool first (fun _ ->
        S.Buffer_pool.with_page_mut pool second (fun _ -> ()))
  in
  let outcome order =
    match order () with
    | () -> None
    | exception S.Lock_order.Lock_order_violation msg -> Some msg
  in
  let d1 = Domain.spawn (fun () -> outcome (nest a b)) in
  let d2 = Domain.spawn (fun () -> outcome (nest b a)) in
  let reports = List.filter_map Fun.id [ Domain.join d1; Domain.join d2 ] in
  (match reports with
  | [ msg ] ->
    let contains needle =
      let n = String.length needle and h = String.length msg in
      let rec go i = i + n <= h && (String.sub msg i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names the new dependency" true (contains "new dependency:");
    Alcotest.(check bool) "names the recorded reverse path" true
      (contains "recorded reverse path:");
    (* Both directions of the cycle carry their acquisition backtraces. *)
    let rec occurrences i acc =
      if i + String.length "acquired at:" > String.length msg then acc
      else if String.sub msg i (String.length "acquired at:") = "acquired at:" then
        occurrences (i + 1) (acc + 1)
      else occurrences (i + 1) acc
    in
    Alcotest.(check bool) "both acquisition backtraces present" true
      (occurrences 0 0 >= 2)
  | [] -> Alcotest.fail "opposite-order nesting never reported a violation"
  | _ -> Alcotest.fail "both domains reported — exactly one should close the cycle");
  Alcotest.(check int) "violation counted once" 1
    (S.Metrics.value order_violations - violations_before);
  (* The raising domain's rollback left no pins or latches behind. *)
  Alcotest.(check (list (pair int int))) "no pins survive" []
    (S.Buffer_pool.pinned_pages pool);
  Alcotest.(check (list (pair int int))) "no latches survive" []
    (S.Buffer_pool.latched_pages pool);
  S.Buffer_pool.assert_unpinned ~where:"lockdep opposite order" pool;
  S.Lock_order.reset ()

(* Consistent nesting across domains records edges but never raises:
   the order graph grows, the violation counter does not. *)
let test_lockdep_consistent_order () =
  S.Lock_order.reset ();
  let order_edges = S.Metrics.counter "latch.order_edges" in
  let order_violations = S.Metrics.counter "latch.order_violations" in
  let edges_before = S.Metrics.value order_edges in
  let violations_before = S.Metrics.value order_violations in
  let disk = S.Disk.in_memory ~page_size:128 () in
  let pool = S.Buffer_pool.create ~capacity:8 ~sanitize:true disk in
  let a = S.Buffer_pool.alloc_page pool in
  let b = S.Buffer_pool.alloc_page pool in
  let nest () =
    S.Buffer_pool.with_page_mut pool a (fun _ ->
        S.Buffer_pool.with_page pool b (fun _ -> ()))
  in
  let domains = List.init 2 (fun _ -> Domain.spawn nest) in
  List.iter Domain.join domains;
  nest ();
  Alcotest.(check bool) "order edges recorded" true
    (S.Metrics.value order_edges - edges_before > 0);
  Alcotest.(check bool) "held stacks drained" true (S.Lock_order.held_by_self () = []);
  Alcotest.(check int) "same order is violation-free" 0
    (S.Metrics.value order_violations - violations_before);
  S.Buffer_pool.drop_all pool;
  S.Lock_order.reset ()

(* --- fault injection ------------------------------------------------------------ *)

let all_reads_fail =
  { S.Fault_disk.read_fault_rate = 1.0;
    write_fault_rate = 0.;
    alloc_fault_rate = 0.;
    transient_fraction = 0.;
    torn_fraction = 0. }

let test_fault_disk_read () =
  let disk = S.Disk.in_memory ~page_size:128 () in
  let p = S.Disk.alloc disk in
  S.Disk.write_page disk p (Bytes.make 128 'a');
  let injector = S.Fault_disk.attach ~policy:all_reads_fail ~seed:1 disk in
  (match S.Disk.read_page disk p with
   | _ -> Alcotest.fail "injected read fault should raise"
   | exception S.Disk.Disk_error _ -> ());
  (* Hard faults repeat: the same page fails again. *)
  (match S.Disk.read_page disk p with
   | _ -> Alcotest.fail "hard fault should persist"
   | exception S.Disk.Disk_error _ -> ());
  let counts = S.Fault_disk.counts injector in
  Alcotest.(check int) "one injection, replayed not re-counted" 1
    counts.S.Fault_disk.injected;
  Alcotest.(check int) "hard" 1 counts.S.Fault_disk.hard;
  (* Muting lets harness bookkeeping through; re-arming restores the fault. *)
  S.Fault_disk.set_active injector false;
  Alcotest.(check char) "muted read succeeds" 'a' (Bytes.get (S.Disk.read_page disk p) 0);
  S.Fault_disk.set_active injector true;
  (match S.Disk.read_page disk p with
   | _ -> Alcotest.fail "re-armed fault should raise"
   | exception S.Disk.Disk_error _ -> ());
  S.Fault_disk.detach injector;
  Alcotest.(check char) "detached disk is healthy" 'a' (Bytes.get (S.Disk.read_page disk p) 0)

let torn_writes =
  { S.Fault_disk.read_fault_rate = 0.;
    write_fault_rate = 1.0;
    alloc_fault_rate = 0.;
    transient_fraction = 1.0;  (* transient, so the retry can repair the page *)
    torn_fraction = 1.0 }

let test_fault_disk_torn () =
  let disk = S.Disk.in_memory ~page_size:128 () in
  let p = S.Disk.alloc disk in
  S.Disk.write_page disk p (Bytes.make 128 'a');
  let injector = S.Fault_disk.attach ~policy:torn_writes ~seed:1 disk in
  (match S.Disk.write_page disk p (Bytes.make 128 'b') with
   | () -> Alcotest.fail "torn write should still raise"
   | exception S.Disk.Disk_error _ -> ());
  S.Fault_disk.detach injector;
  (* The tear left a damaged first half; a verified read refuses it. *)
  (match S.Disk.read_page disk p with
   | _ -> Alcotest.fail "torn page should fail checksum verification"
   | exception S.Xqdb_error.Corrupt _ -> ());
  (* Raw inspection sees 'b' in the persisted half, stale 'a' after. *)
  let page = S.Disk.read_page_raw disk p in
  Alcotest.(check char) "first half written" 'b' (Bytes.get page 0);
  Alcotest.(check char) "second half stale" 'a' (Bytes.get page 127);
  Alcotest.(check int) "torn counted" 1 (S.Fault_disk.counts injector).S.Fault_disk.torn;
  (* Retrying the full write repairs the page. *)
  let repaired = Bytes.make 128 'b' in
  S.Disk.write_page disk p repaired;
  Alcotest.(check bytes) "repaired" repaired (S.Disk.read_page disk p)

(* A transient write fault during eviction: the pool's bounded retry must
   absorb it and still persist the page. *)
let test_pool_retry_transient () =
  let disk = S.Disk.in_memory ~page_size:128 () in
  let pool = S.Buffer_pool.create ~capacity:1 disk in
  let p1 = S.Buffer_pool.alloc_page pool in
  S.Buffer_pool.with_page_mut pool p1 (fun b -> Bytes.set b 0 'q');
  let remaining = ref 1 in
  S.Disk.set_injector disk
    (Some
       (fun op _ ->
         match op with
         | S.Disk.Write when !remaining > 0 ->
           decr remaining;
           S.Disk.Fail "transient write fault"
         | _ -> S.Disk.No_fault));
  (* Allocating a second page through a 1-frame pool evicts p1. *)
  let p2 = ref p1 in
  let c = charged (fun () -> p2 := S.Buffer_pool.alloc_page pool) in
  Alcotest.(check bool) "distinct pages" true (p1 <> !p2);
  Alcotest.(check bool) "retried" true (S.Metrics.get c "pool.retries" > 0);
  S.Disk.set_injector disk None;
  Alcotest.(check char) "dirty page persisted despite the fault" 'q'
    (Bytes.get (S.Disk.read_page disk p1) 0)

(* A write fault that outlasts every retry: the eviction fails, but the
   dirty page must stay cached — never dropped silently — so the data is
   still recoverable once the disk heals. *)
let test_pool_hard_write_fault () =
  let disk = S.Disk.in_memory ~page_size:128 () in
  let pool = S.Buffer_pool.create ~capacity:1 disk in
  let p1 = S.Buffer_pool.alloc_page pool in
  S.Buffer_pool.with_page_mut pool p1 (fun b -> Bytes.set b 0 'q');
  S.Disk.set_injector disk
    (Some
       (fun op _ ->
         match op with
         | S.Disk.Write -> S.Disk.Fail "disk on fire"
         | _ -> S.Disk.No_fault));
  (match S.Buffer_pool.alloc_page pool with
   | _ -> Alcotest.fail "eviction with a broken disk should raise"
   | exception S.Disk.Disk_error _ -> ());
  (* Not on disk yet — and not lost either. *)
  Alcotest.(check bool) "not silently persisted" true
    (Bytes.get (S.Disk.read_page disk p1) 0 <> 'q');
  S.Buffer_pool.with_page pool p1 (fun b ->
      Alcotest.(check char) "dirty data still cached" 'q' (Bytes.get b 0));
  (* Disk heals: the next flush persists the page. *)
  S.Disk.set_injector disk None;
  S.Buffer_pool.flush_all pool;
  Alcotest.(check char) "persisted after recovery" 'q'
    (Bytes.get (S.Disk.read_page disk p1) 0)

(* --- the retry policy ------------------------------------------------------ *)

let test_retry_delays_deterministic () =
  let p = { S.Retry.default with S.Retry.attempts = 5; seed = 7 } in
  let a = S.Retry.delays p in
  let b = S.Retry.delays p in
  Alcotest.(check int) "attempts - 1 sleeps" 4 (Array.length a);
  Alcotest.(check (array (float 0.))) "same policy, same schedule" a b;
  Alcotest.(check bool) "a different seed perturbs the jitter" true
    (S.Retry.delays { p with S.Retry.seed = 8 } <> a);
  (* With jitter off the schedule is the exact capped exponential. *)
  let exact =
    S.Retry.delays
      { S.Retry.attempts = 5; base_delay = 1.0; multiplier = 2.0; max_delay = 5.0;
        jitter = 0.0; seed = 0 }
  in
  Alcotest.(check (array (float 1e-9))) "capped exponential"
    [| 1.0; 2.0; 4.0; 5.0 |] exact

let test_retry_absorbs_transient () =
  let p = { S.Retry.default with S.Retry.attempts = 3 } in
  let slept = ref [] in
  let calls = ref 0 in
  let result =
    S.Retry.run ~policy:p
      ~sleep:(fun d -> slept := d :: !slept)
      ~retryable:S.Retry.transient_disk_fault
      (fun () ->
        incr calls;
        if !calls < 3 then raise (S.Disk.Disk_error "blip");
        "ok")
  in
  Alcotest.(check string) "succeeds within the window" "ok" result;
  Alcotest.(check int) "one call per attempt" 3 !calls;
  let sched = S.Retry.delays p in
  Alcotest.(check (list (float 0.))) "slept exactly the schedule prefix"
    [sched.(0); sched.(1)] (List.rev !slept)

let test_retry_gives_up () =
  let calls = ref 0 in
  let d =
    charged @@ fun () ->
    match
     S.Retry.run
       ~policy:{ S.Retry.default with S.Retry.attempts = 4 }
       ~sleep:ignore ~retryable:S.Retry.transient_disk_fault
       (fun () ->
         incr calls;
         raise (S.Disk.Disk_error "still down"))
   with
    | () -> Alcotest.fail "an exhausted retry must re-raise"
    | exception S.Disk.Disk_error _ -> ()
  in
  Alcotest.(check int) "every attempt used" 4 !calls;
  Alcotest.(check int) "retries counted" 3 (S.Metrics.get d "retry.attempts");
  Alcotest.(check int) "giveup counted" 1 (S.Metrics.get d "retry.giveups")

(* The hard/transient classification regression: [Corrupt] is a checksum
   mismatch — re-reading wrong bytes cannot make them right, so it must
   propagate on the first attempt, never retried. *)
let test_retry_never_retries_corrupt () =
  let calls = ref 0 in
  (match
     S.Retry.run
       ~sleep:(fun _ -> Alcotest.fail "slept on a hard fault")
       ~retryable:S.Retry.transient_disk_fault
       (fun () ->
         incr calls;
         S.Xqdb_error.corrupt "checksum mismatch on page 3")
   with
   | () -> Alcotest.fail "Corrupt must propagate"
   | exception S.Xqdb_error.Corrupt _ -> ());
  Alcotest.(check int) "exactly one attempt" 1 !calls;
  (* Same for any exception outside the transient class. *)
  let calls' = ref 0 in
  (match
     S.Retry.run ~sleep:ignore ~retryable:S.Retry.transient_disk_fault (fun () ->
         incr calls';
         invalid_arg "caller bug")
   with
   | () -> Alcotest.fail "non-retryable must propagate"
   | exception Invalid_argument _ -> ());
  Alcotest.(check int) "caller bugs are not retried" 1 !calls'

(* An oversized record is rejected up front by the size pre-check, as a
   caller error — it must never surface as a Page_full from deep inside a
   node operation. *)
let test_btree_oversize () =
  let _, pool = fresh_pool ~page_size:256 () in
  let bt = S.Btree.create pool in
  match S.Btree.insert bt ~key:(enc_int 1) ~value:(Bytes.create 200) with
  | () -> Alcotest.fail "oversized cell should be rejected"
  | exception Invalid_argument _ -> ()

(* --- metrics ------------------------------------------------------------------ *)

let test_metrics () =
  let c = S.Metrics.counter "test.counter" in
  Alcotest.(check bool) "find-or-create returns the same counter" true
    (c == S.Metrics.counter "test.counter");
  let before = S.Metrics.snapshot () in
  S.Metrics.incr c;
  S.Metrics.add c 4;
  let after = S.Metrics.snapshot () in
  Alcotest.(check int) "delta" 5
    (S.Metrics.get after "test.counter" - S.Metrics.get before "test.counter");
  Alcotest.(check int) "absent counter reads 0" 0 (S.Metrics.get after "no.such.counter");
  (* Bumps charge the installed scope only; [with_scope] nests and
     restores the previous scope, also when the body raises. *)
  let outer = S.Metrics.scope () and inner = S.Metrics.scope () in
  S.Metrics.with_scope outer (fun () ->
      S.Metrics.incr c;
      S.Metrics.with_scope inner (fun () -> S.Metrics.add c 2);
      (try S.Metrics.with_scope inner (fun () -> failwith "boom") with Failure _ -> ());
      S.Metrics.incr c);
  S.Metrics.incr c;
  Alcotest.(check int) "outer charged around the inner scope" 2 (S.Metrics.charged outer c);
  Alcotest.(check (list (pair string int))) "inner scope's non-zero slots"
    [("test.counter", 2)] (S.Metrics.scope_snapshot inner);
  (* Storage structures feed the registry: a pool miss shows up. *)
  let disk = S.Disk.in_memory ~page_size:128 () in
  let pool = S.Buffer_pool.create ~capacity:2 disk in
  let p = S.Buffer_pool.alloc_page pool in
  S.Buffer_pool.drop_all pool;
  let d =
    charged (fun () ->
        S.Buffer_pool.with_page pool p ignore;
        S.Buffer_pool.with_page pool p ignore)
  in
  Alcotest.(check int) "pool.misses delta" 1 (S.Metrics.get d "pool.misses");
  Alcotest.(check int) "pool.hits delta" 1 (S.Metrics.get d "pool.hits")

(* Counters are Atomic.t precisely so parallel scans can bump them from
   worker domains: two domains hammering one counter must lose no
   increments — a plain int cell would drop some under contention and
   the per-operator I/O reconciliation the differential harness enforces
   would start failing intermittently. *)
let test_metrics_domain_safety () =
  let c = S.Metrics.counter "test.domains" in
  let before = S.Metrics.get (S.Metrics.snapshot ()) "test.domains" in
  let n = 100_000 in
  let worker () =
    for _ = 1 to n do
      S.Metrics.incr c
    done;
    S.Metrics.add c n
  in
  let d1 = Domain.spawn worker in
  let d2 = Domain.spawn worker in
  Domain.join d1;
  Domain.join d2;
  let after = S.Metrics.get (S.Metrics.snapshot ()) "test.domains" in
  Alcotest.(check int) "exact total across two domains" (4 * n) (after - before);
  (* Registration itself is also domain-safe: both domains asking for
     the same name must get the same counter. *)
  let r1 = Domain.spawn (fun () -> S.Metrics.counter "test.domains.reg") in
  let r2 = Domain.spawn (fun () -> S.Metrics.counter "test.domains.reg") in
  let c1 = Domain.join r1 and c2 = Domain.join r2 in
  Alcotest.(check bool) "concurrent registration converges" true (c1 == c2)

(* --- pin sanitizer ------------------------------------------------------- *)

let sanitize_pool ?(capacity = 4) () =
  let disk = S.Disk.in_memory ~page_size:128 () in
  (disk, S.Buffer_pool.create ~capacity ~sanitize:true disk)

let test_sanitizer_double_unpin () =
  let _, pool = sanitize_pool () in
  let p = S.Buffer_pool.alloc_page pool in
  let pin = S.Buffer_pool.pin pool p in
  S.Buffer_pool.unpin pool pin;
  match S.Buffer_pool.unpin pool pin with
  | () -> Alcotest.fail "double unpin should raise"
  | exception S.Buffer_pool.Sanitizer_violation msg ->
    (* The violation names the acquisition site so the leak is debuggable. *)
    Alcotest.(check bool) "message carries a backtrace" true (String.length msg > 0)

let test_sanitizer_use_after_unpin () =
  let _, pool = sanitize_pool () in
  let p = S.Buffer_pool.alloc_page pool in
  S.Buffer_pool.with_page_mut pool p (fun b -> Bytes.fill b 0 (Bytes.length b) 'x');
  (* A callback that (illegally) retains the buffer past its pin window
     sees poison afterwards, not silently-stale data. *)
  let retained = ref Bytes.empty in
  S.Buffer_pool.with_page pool p (fun b ->
      retained := b;
      Alcotest.(check char) "live buffer is real data" 'x' (Bytes.get b 0));
  Alcotest.(check char) "retained buffer reads poison" S.Buffer_pool.poison_byte
    (Bytes.get !retained 0);
  (* The frame itself is intact: a fresh pin sees the real bytes. *)
  S.Buffer_pool.with_page pool p (fun b ->
      Alcotest.(check char) "fresh pin sees real data" 'x' (Bytes.get b 0))

let test_sanitizer_leak_detection () =
  let _, pool = sanitize_pool () in
  let p = S.Buffer_pool.alloc_page pool in
  let pin = S.Buffer_pool.pin pool p in
  Alcotest.(check int) "one live pin" 1 (List.length (S.Buffer_pool.live_pins pool));
  Alcotest.(check bool) "pinned_pages sees it" true
    (List.mem_assoc p (S.Buffer_pool.pinned_pages pool));
  (match S.Buffer_pool.assert_unpinned ~where:"test" pool with
  | () -> Alcotest.fail "leak should raise Pin_leak"
  | exception S.Buffer_pool.Pin_leak msg ->
    Alcotest.(check bool) "names the site" true (String.length msg > 0));
  S.Buffer_pool.unpin pool pin;
  S.Buffer_pool.assert_unpinned ~where:"test" pool;
  Alcotest.(check int) "no live pins after release" 0
    (List.length (S.Buffer_pool.live_pins pool))

(* Sanitize mode must not change what programs compute: nested pins on
   the same page share one shadow, writes through one pin are visible to
   the other, and write-back under an open pin persists the bytes. *)
let test_sanitizer_transparent () =
  let disk, pool = sanitize_pool () in
  let p = S.Buffer_pool.alloc_page pool in
  S.Buffer_pool.with_page_mut pool p (fun outer ->
      Bytes.set outer 0 'a';
      S.Buffer_pool.with_page_mut pool p (fun inner ->
          Alcotest.(check char) "nested pin sees outer write" 'a' (Bytes.get inner 0);
          Bytes.set inner 1 'b');
      Alcotest.(check char) "outer sees nested write" 'b' (Bytes.get outer 1));
  S.Buffer_pool.flush_all pool;
  let b = S.Disk.read_page disk p in
  Alcotest.(check char) "flushed byte 0" 'a' (Bytes.get b 0);
  Alcotest.(check char) "flushed byte 1" 'b' (Bytes.get b 1);
  (* And the whole btree machinery runs unchanged under the sanitizer. *)
  let bt = S.Btree.create pool in
  List.iter (fun k -> S.Btree.insert bt ~key:(enc_int k) ~value:(enc_int (2 * k)))
    (List.init 100 Fun.id);
  S.Btree.check_invariants bt;
  Alcotest.(check (option int)) "lookup" (Some 84)
    (Option.map dec_int (S.Btree.find bt ~key:(enc_int 42)));
  S.Buffer_pool.assert_unpinned ~where:"btree under sanitizer" pool

(* Insert-only workloads must keep every page reasonably full: splits
   leave at least the occupancy floor on both sides. *)
let btree_occupancy =
  QCheck2.Test.make ~name:"btree occupancy after random inserts" ~count:40
    G.(list_size (int_range 50 600) (int_bound 2000))
    (fun keys ->
      let _, pool = fresh_pool ~page_size:256 () in
      let bt = S.Btree.create pool in
      List.iter (fun k -> S.Btree.insert bt ~key:(enc_int k) ~value:(enc_int k)) keys;
      S.Btree.check_invariants ~min_fill:0.15 bt;
      true)

(* --- page checksums ------------------------------------------------------- *)

let test_checksum_roundtrip () =
  let buf = Bytes.make 256 '\000' in
  S.Page.init buf;
  ignore (S.Page.add_slot buf (Bytes.of_string "hello"));
  S.Page.stamp_checksum buf;
  Alcotest.(check bool) "stamped page verifies" true (S.Page.checksum_matches buf);
  Alcotest.(check int) "stored equals computed" (S.Page.checksum buf)
    (S.Page.stored_checksum buf);
  (* Any single damaged payload byte must be detected. *)
  let byte = S.Page.header_size + 3 in
  Bytes.set buf byte (Char.chr (Char.code (Bytes.get buf byte) lxor 0x40));
  Alcotest.(check bool) "flipped bit detected" false (S.Page.checksum_matches buf);
  (* And damage inside the header (outside the CRC slot itself) too. *)
  let buf2 = Bytes.make 256 '\000' in
  S.Page.init buf2;
  S.Page.stamp_checksum buf2;
  S.Page.set_next buf2 7;
  Alcotest.(check bool) "header damage detected" false (S.Page.checksum_matches buf2)

(* Tear the persisted image of one page and check that the verified read
   path reports it as [Corrupt], while rewriting the good image repairs
   it.  Used below against a live page of every on-disk structure. *)
let tear_and_check disk id =
  let good = S.Disk.read_page_raw disk id in
  let good = Bytes.copy good in
  S.Disk.set_injector disk
    (Some (fun op id' ->
       match op with
       | S.Disk.Write when id' = id -> S.Disk.Torn "injected tear"
       | _ -> S.Disk.No_fault));
  (match S.Disk.write_page disk id (Bytes.copy good) with
   | () -> Alcotest.fail "torn write should raise"
   | exception S.Disk.Disk_error _ -> ());
  S.Disk.set_injector disk None;
  (match S.Disk.read_page disk id with
   | _ -> Alcotest.fail (Printf.sprintf "page %d: torn image should fail checksum" id)
   | exception S.Xqdb_error.Corrupt msg ->
     Alcotest.(check bool) "error names the page" true
       (let needle = Printf.sprintf "page %d" id in
        let len = String.length needle in
        let rec scan i =
          i + len <= String.length msg
          && (String.equal (String.sub msg i len) needle || scan (i + 1))
        in
        scan 0));
  S.Disk.write_page disk id good;
  Alcotest.(check bytes) "repaired page reads back" good (S.Disk.read_page disk id)

let test_checksum_per_page_type () =
  let disk, pool = fresh_pool ~page_size:512 () in
  let failures_before =
    S.Metrics.get (S.Metrics.snapshot ()) "disk.checksum_failures"
  in
  (* A catalog page (page 0), a btree page, and a heap page. *)
  let catalog = S.Catalog.attach pool in
  let bt = S.Btree.create pool in
  List.iter (fun k -> S.Btree.insert bt ~key:(enc_int k) ~value:(enc_int k))
    (List.init 40 Fun.id);
  let heap = S.Heap_file.create pool in
  ignore (S.Heap_file.append heap (Bytes.of_string "record"));
  S.Catalog.set catalog "doc" (string_of_int (S.Btree.meta_page bt));
  S.Catalog.flush catalog;
  S.Buffer_pool.flush_all pool;
  List.iter (tear_and_check disk)
    [0; S.Btree.meta_page bt; S.Heap_file.first_page heap];
  let failures_after =
    S.Metrics.get (S.Metrics.snapshot ()) "disk.checksum_failures"
  in
  Alcotest.(check int) "checksum failures counted" 3 (failures_after - failures_before)

(* --- write-ahead log ------------------------------------------------------ *)

let test_wal_append_replay () =
  let wal = S.Wal.in_memory () in
  let payload i = Bytes.make 32 (Char.chr (Char.code 'a' + i)) in
  let lsns = List.init 3 (fun i -> S.Wal.append wal ~page_id:(i + 1) ~data:(payload i)) in
  Alcotest.(check (list int)) "LSNs are dense from 1" [1; 2; 3] lsns;
  (* Nothing is durable before the first sync. *)
  let seen = ref [] in
  let stats = S.Wal.replay wal ~apply:(fun ~lsn ~page_id data -> seen := (lsn, page_id, Bytes.copy data) :: !seen) in
  Alcotest.(check int) "nothing durable pre-sync" 0 stats.S.Wal.applied;
  S.Wal.sync wal;
  Alcotest.(check int) "synced through last LSN" 3 (S.Wal.synced_lsn wal);
  let stats = S.Wal.replay wal ~apply:(fun ~lsn ~page_id data -> seen := (lsn, page_id, Bytes.copy data) :: !seen) in
  Alcotest.(check int) "all records replayed" 3 stats.S.Wal.applied;
  Alcotest.(check bool) "clean tail" false stats.S.Wal.torn_tail;
  Alcotest.(check int) "nothing discarded" 0 stats.S.Wal.discarded_bytes;
  let seen = List.rev !seen in
  List.iteri
    (fun i (lsn, page_id, data) ->
      Alcotest.(check int) "replay LSN order" (i + 1) lsn;
      Alcotest.(check int) "replay page id" (i + 1) page_id;
      Alcotest.(check bytes) "replay payload" (payload i) data)
    seen;
  (* Checkpoint truncates: nothing left to replay. *)
  S.Wal.checkpoint wal;
  Alcotest.(check int) "log empty after checkpoint" 0 (S.Wal.size_bytes wal);
  let stats = S.Wal.replay wal ~apply:(fun ~lsn:_ ~page_id:_ _ -> Alcotest.fail "replay after checkpoint") in
  Alcotest.(check int) "checkpoint truncated" 0 stats.S.Wal.applied

let test_wal_torn_tail () =
  let wal = S.Wal.in_memory () in
  let payload i = Bytes.make 24 (Char.chr (Char.code 'A' + i)) in
  for i = 0 to 3 do
    ignore (S.Wal.append wal ~page_id:i ~data:(payload i))
  done;
  S.Wal.set_injector wal
    (Some (function S.Wal.Sync -> S.Wal.Torn "power cut" | S.Wal.Append -> S.Wal.No_fault));
  (match S.Wal.sync wal with
   | () -> Alcotest.fail "torn sync should raise"
   | exception S.Disk.Disk_error _ -> ());
  S.Wal.set_injector wal None;
  (* Half the records landed whole, plus a damaged prefix of the next:
     replay must apply exactly the whole ones and flag the torn tail. *)
  let count = ref 0 in
  let stats = S.Wal.replay wal ~apply:(fun ~lsn:_ ~page_id:_ _ -> incr count) in
  Alcotest.(check int) "whole records replayed" 2 stats.S.Wal.applied;
  Alcotest.(check bool) "torn tail detected" true stats.S.Wal.torn_tail;
  Alcotest.(check bool) "torn bytes discarded" true (stats.S.Wal.discarded_bytes > 0);
  (* Replay is idempotent: a second pass sees the same durable prefix. *)
  let stats2 = S.Wal.replay wal ~apply:(fun ~lsn:_ ~page_id:_ _ -> incr count) in
  Alcotest.(check int) "second replay identical" 2 stats2.S.Wal.applied;
  Alcotest.(check int) "both passes applied" 4 !count;
  (* Appending after recovery continues past the survivors. *)
  let lsn = S.Wal.append wal ~page_id:9 ~data:(payload 0) in
  Alcotest.(check bool) "fresh LSN beyond survivors" true (lsn > S.Wal.synced_lsn wal)

let test_wal_replay_idempotent_on_disk () =
  (* Double recovery must leave the pages byte-identical to single
     recovery: redo records are blind physical rewrites. *)
  let wal = S.Wal.in_memory () in
  let disk = S.Disk.in_memory ~page_size:128 () in
  let image i = Bytes.make 128 (Char.chr (Char.code 'p' + i)) in
  for i = 0 to 2 do
    ignore (S.Wal.append wal ~page_id:(i + 1) ~data:(image i))
  done;
  S.Wal.sync wal;
  let apply ~lsn:_ ~page_id data =
    while S.Disk.page_count disk <= page_id do
      ignore (S.Disk.alloc disk)
    done;
    S.Disk.write_page disk page_id (Bytes.copy data)
  in
  ignore (S.Wal.replay wal ~apply);
  let first = List.init 3 (fun i -> Bytes.copy (S.Disk.read_page disk (i + 1))) in
  let stats = S.Wal.replay wal ~apply in
  Alcotest.(check int) "second recovery replays all" 3 stats.S.Wal.applied;
  List.iteri
    (fun i expected ->
      Alcotest.(check bytes) "page unchanged by re-replay" expected
        (S.Disk.read_page disk (i + 1)))
    first

let test_wal_crash_discard () =
  let wal = S.Wal.in_memory () in
  ignore (S.Wal.append wal ~page_id:1 ~data:(Bytes.make 16 'x'));
  S.Wal.sync wal;
  ignore (S.Wal.append wal ~page_id:2 ~data:(Bytes.make 16 'y'));
  Alcotest.(check int) "two appended" 2 (S.Wal.last_lsn wal);
  S.Wal.crash_discard wal;
  Alcotest.(check int) "pending record gone" 1 (S.Wal.last_lsn wal);
  let stats = S.Wal.replay wal ~apply:(fun ~lsn:_ ~page_id:_ _ -> ()) in
  Alcotest.(check int) "only the synced record survives" 1 stats.S.Wal.applied

let test_wal_before_data_sanitizer () =
  let disk = S.Disk.in_memory ~page_size:256 () in
  let wal = S.Wal.in_memory () in
  let pool = S.Buffer_pool.create ~capacity:4 ~sanitize:true ~wal disk in
  let p = S.Buffer_pool.alloc_page pool in
  S.Buffer_pool.with_page_mut pool p (fun buf -> Bytes.set buf 0 'z');
  (* Break the protocol: the log refuses to reach stable storage, so
     writing the dirty frame back would put data ahead of its log
     record.  The sanitizer must catch it before the page write. *)
  S.Wal.unsafe_no_sync wal true;
  (match S.Buffer_pool.flush_all pool with
   | () -> Alcotest.fail "WAL-before-data violation should raise"
   | exception S.Buffer_pool.Sanitizer_violation _ -> ());
  S.Wal.unsafe_no_sync wal false;
  S.Buffer_pool.flush_all pool;
  Alcotest.(check char) "flush succeeds once the log syncs" 'z'
    (Bytes.get (S.Disk.read_page disk p) 0)

let test_wal_retry_no_duplicate_append () =
  (* A transient write fault during write-back must not re-log the
     frame: the retry reuses the LSN already appended for it. *)
  let disk = S.Disk.in_memory ~page_size:256 () in
  let wal = S.Wal.in_memory () in
  let pool = S.Buffer_pool.create ~capacity:4 ~wal disk in
  let p = S.Buffer_pool.alloc_page pool in
  let appends_before = S.Wal.last_lsn wal in
  (* The mutation itself logs the after-image... *)
  S.Buffer_pool.with_page_mut pool p (fun buf -> Bytes.set buf 0 'q');
  Alcotest.(check int) "mutation logged once" 1 (S.Wal.last_lsn wal - appends_before);
  (* ...so the faulting write-back retries must reuse that record. *)
  let remaining = ref 2 in
  S.Disk.set_injector disk
    (Some (fun op _ ->
       match op with
       | S.Disk.Write when !remaining > 0 ->
         decr remaining;
         S.Disk.Fail "transient"
       | _ -> S.Disk.No_fault));
  S.Buffer_pool.flush_all pool;
  S.Disk.set_injector disk None;
  Alcotest.(check char) "write-back landed after retries" 'q'
    (Bytes.get (S.Disk.read_page disk p) 0);
  Alcotest.(check int) "retries appended no duplicate records" 1
    (S.Wal.last_lsn wal - appends_before);
  (* A clean frame re-flushed appends nothing either. *)
  S.Buffer_pool.flush_all pool;
  Alcotest.(check int) "clean flush appends nothing" 1 (S.Wal.last_lsn wal - appends_before)

(* --- crash points --------------------------------------------------------- *)

(* A tiny workload under the crash-point injector: mutate a page through
   a WAL-attached pool and flush.  Crashing at the first, a middle and
   the last durability event must each leave a recoverable image. *)
let test_crash_point_model () =
  let observe crash_at torn =
    let disk = S.Disk.in_memory ~page_size:256 () in
    let wal = S.Wal.in_memory () in
    let cp = S.Crash_point.install ~crash_at ~torn ~disk ~wal () in
    let outcome =
      match
        let pool = S.Buffer_pool.create ~capacity:4 ~wal disk in
        let p = S.Buffer_pool.alloc_page pool in
        S.Buffer_pool.with_page_mut pool p (fun buf -> Bytes.set buf 0 'm');
        S.Buffer_pool.flush_all pool;
        S.Disk.sync disk;
        S.Wal.checkpoint wal;
        p
      with
      | p -> `Completed p
      | exception S.Crash_point.Crash _ -> `Crashed
      | exception S.Disk.Disk_error _ when S.Crash_point.crashed cp -> `Crashed
    in
    S.Crash_point.disarm cp;
    (S.Crash_point.events cp, outcome, disk, wal)
  in
  (* Crash-free observation run counts the durability events. *)
  let total, outcome, _, _ = observe 0 false in
  (match outcome with
   | `Completed _ -> ()
   | `Crashed -> Alcotest.fail "crash-free run must complete");
  Alcotest.(check bool) "workload has durability events" true (total > 0);
  List.iteri
    (fun i point ->
      let torn = i mod 2 = 1 in
      let _, outcome, disk, wal = observe point torn in
      (match outcome with
       | `Crashed -> ()
       | `Completed _ ->
         Alcotest.fail (Printf.sprintf "crash point %d should interrupt" point));
      (* Post-crash the process is gone: recovery sees only durable state. *)
      S.Wal.crash_discard wal;
      let stats =
        S.Wal.replay wal ~apply:(fun ~lsn:_ ~page_id data ->
            while S.Disk.page_count disk <= page_id do
              ignore (S.Disk.alloc disk)
            done;
            S.Disk.write_page disk page_id (Bytes.copy data))
      in
      Alcotest.(check bool) "replay terminates" true (stats.S.Wal.applied >= 0);
      (* Every surviving page must verify its checksum. *)
      for id = 0 to S.Disk.page_count disk - 1 do
        ignore (S.Disk.read_page disk id)
      done)
    [1; (total + 1) / 2; total]

let test_crash_point_operations_fail_after_crash () =
  let disk = S.Disk.in_memory ~page_size:256 () in
  let wal = S.Wal.in_memory () in
  let cp = S.Crash_point.install ~crash_at:1 ~disk ~wal () in
  (match S.Disk.write_page disk 0 (Bytes.create 256) with
   | () -> Alcotest.fail "first write should crash"
   | exception S.Crash_point.Crash _ -> ());
  Alcotest.(check bool) "crashed flag set" true (S.Crash_point.crashed cp);
  (* After the crash every further operation fails too: the process is
     dead, retries must not resurrect it. *)
  (match S.Disk.write_page disk 0 (Bytes.create 256) with
   | () -> Alcotest.fail "post-crash write should fail"
   | exception S.Crash_point.Crash _ -> ());
  (match S.Wal.append wal ~page_id:0 ~data:(Bytes.create 8) with
   | _ -> Alcotest.fail "post-crash append should fail"
   | exception S.Crash_point.Crash _ -> ());
  S.Crash_point.disarm cp;
  S.Disk.write_page disk 0 (Bytes.create 256)

let () =
  let prop = QCheck_alcotest.to_alcotest in
  Alcotest.run "storage"
    [ ( "disk",
        [ Alcotest.test_case "in-memory" `Quick test_disk_mem;
          Alcotest.test_case "file-backed" `Quick test_disk_file ] );
      ( "buffer pool",
        [ Alcotest.test_case "eviction and persistence" `Quick test_buffer_pool;
          Alcotest.test_case "all pinned" `Quick test_pool_all_pinned;
          Alcotest.test_case "exhaustion recovers" `Quick test_pool_exhausted_recovers;
          Alcotest.test_case "LRU eviction order" `Quick test_pool_lru_order ] );
      ( "pages",
        [ Alcotest.test_case "slots" `Quick test_page_slots;
          Alcotest.test_case "overflow" `Quick test_page_overflow;
          Alcotest.test_case "overflow on ordered insert" `Quick test_page_overflow_insert_at ] );
      ( "metrics",
        [ Alcotest.test_case "registry and deltas" `Quick test_metrics;
          Alcotest.test_case "domain safety" `Quick test_metrics_domain_safety ] );
      ( "codecs",
        [ Alcotest.test_case "round trip" `Quick test_codec_roundtrip;
          prop key_int_order;
          prop key_string_order;
          prop key_string_roundtrip;
          prop composite_key_order ] );
      ( "heap files",
        [ Alcotest.test_case "append/scan/get" `Quick test_heap_file;
          Alcotest.test_case "oversized records" `Quick test_heap_file_oversize ] );
      ( "checksums",
        [ Alcotest.test_case "round trip and detection" `Quick test_checksum_roundtrip;
          Alcotest.test_case "catalog, btree and heap pages" `Quick
            test_checksum_per_page_type ] );
      ( "wal",
        [ Alcotest.test_case "append, sync, replay, checkpoint" `Quick
            test_wal_append_replay;
          Alcotest.test_case "torn tail recovery" `Quick test_wal_torn_tail;
          Alcotest.test_case "replay idempotent on disk" `Quick
            test_wal_replay_idempotent_on_disk;
          Alcotest.test_case "crash discards pending" `Quick test_wal_crash_discard;
          Alcotest.test_case "WAL-before-data sanitizer" `Quick
            test_wal_before_data_sanitizer;
          Alcotest.test_case "retry appends no duplicate" `Quick
            test_wal_retry_no_duplicate_append ] );
      ( "crash points",
        [ Alcotest.test_case "first, middle and last event" `Quick
            test_crash_point_model;
          Alcotest.test_case "operations fail after crash" `Quick
            test_crash_point_operations_fail_after_crash ] );
      ( "fault injection",
        [ Alcotest.test_case "read faults" `Quick test_fault_disk_read;
          Alcotest.test_case "torn writes" `Quick test_fault_disk_torn;
          Alcotest.test_case "pool retries transient faults" `Quick test_pool_retry_transient;
          Alcotest.test_case "pool keeps dirty page on hard fault" `Quick
            test_pool_hard_write_fault ] );
      ( "retry",
        [ Alcotest.test_case "delays deterministic" `Quick test_retry_delays_deterministic;
          Alcotest.test_case "absorbs transient faults" `Quick test_retry_absorbs_transient;
          Alcotest.test_case "gives up after the window" `Quick test_retry_gives_up;
          Alcotest.test_case "never retries corrupt data" `Quick
            test_retry_never_retries_corrupt ] );
      ( "btree",
        [ prop btree_matches_model;
          prop btree_range_scan_model;
          prop btree_occupancy;
          Alcotest.test_case "replace and reopen" `Quick test_btree_replace_and_meta;
          Alcotest.test_case "bulk load" `Quick test_btree_bulk_load;
          Alcotest.test_case "prefix scan" `Quick test_btree_prefix_scan;
          Alcotest.test_case "oversized cell" `Quick test_btree_oversize ] );
      ( "external sort",
        [ prop ext_sort_property;
          Alcotest.test_case "spilling" `Quick test_ext_sort_spill ] );
      ( "catalog",
        [ Alcotest.test_case "persistence" `Quick test_catalog;
          Alcotest.test_case "page-chain overflow" `Quick test_catalog_overflow ] );
      ( "pin sanitizer",
        [ Alcotest.test_case "double unpin" `Quick test_sanitizer_double_unpin;
          Alcotest.test_case "use after unpin reads poison" `Quick
            test_sanitizer_use_after_unpin;
          Alcotest.test_case "leak detection with backtraces" `Quick
            test_sanitizer_leak_detection;
          Alcotest.test_case "semantics-transparent" `Quick test_sanitizer_transparent ] );
      ( "budget",
        [ Alcotest.test_case "exhaustion" `Quick test_budget;
          Alcotest.test_case "isolated across domains" `Quick test_budget_isolation;
          Alcotest.test_case "wall-clock seconds" `Quick test_budget_wall_clock;
          Alcotest.test_case "monotonic clock" `Quick test_monotonic ] );
      ( "latches",
        [ Alcotest.test_case "shared holders overlap" `Quick test_latch_shared_overlap;
          Alcotest.test_case "exclusive excludes" `Quick test_latch_exclusive_excludes;
          Alcotest.test_case "writer preference" `Quick test_latch_writer_preference;
          Alcotest.test_case "release unheld raises" `Quick test_latch_release_unheld;
          Alcotest.test_case "nested same-page use" `Quick test_latch_nested_same_page;
          Alcotest.test_case "concurrent domains" `Quick test_pool_concurrent_domains ] );
      ( "lockdep",
        [ Alcotest.test_case "opposite-order nesting raises" `Quick
            test_lockdep_opposite_order;
          Alcotest.test_case "consistent nesting is clean" `Quick
            test_lockdep_consistent_order ] ) ]
