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

(* A fresh page reads back as a zeroed page with its checksum stamped,
   under both backends, also after another page has been written; and
   allocating is no page I/O. *)
let test_disk_alloc_blank () =
  let check label disk =
    let blank = Bytes.make 128 '\000' in
    S.Page.stamp_checksum blank;
    let written = S.Disk.alloc disk in
    let untouched = S.Disk.alloc disk in
    S.Disk.write_page disk written (Bytes.make 128 'x');
    let before = S.Disk.counters disk in
    let later = S.Disk.alloc disk in
    let after = S.Disk.counters disk in
    Alcotest.(check (pair int int)) (label ^ ": alloc is no page I/O")
      (before.S.Disk.reads, before.S.Disk.writes) (after.S.Disk.reads, after.S.Disk.writes);
    List.iter
      (fun id ->
        Alcotest.(check bytes) (Printf.sprintf "%s: page %d blank" label id) blank
          (S.Disk.read_page disk id))
      [ untouched; later ];
    S.Disk.close disk
  in
  check "in-memory" (S.Disk.in_memory ~page_size:128 ());
  let path = Filename.temp_file "xqdb_test" ".db" in
  check "file-backed" (S.Disk.on_file ~page_size:128 path);
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
  (* Scans copy each page's records out under one pin per page. *)
  let pins f = S.Metrics.get (charged f) "latch.shared_acquisitions" in
  let pages = S.Heap_file.page_count hf in
  (* scan in insertion order *)
  let scanned = ref [] in
  let iter_pins =
    pins (fun () -> S.Heap_file.iter hf (fun _ r -> scanned := Bytes.to_string r :: !scanned))
  in
  Alcotest.(check (list string)) "scan order" (List.map Bytes.to_string records)
    (List.rev !scanned);
  Alcotest.(check int) "iter: one pin per page" pages iter_pins;
  (* reopen from the first page *)
  let hf2 = S.Heap_file.open_existing pool ~first_page:(S.Heap_file.first_page hf) in
  Alcotest.(check int) "reopened count" 200 (S.Heap_file.record_count hf2);
  (* pull cursor agrees with iter; pulling past the end pins nothing *)
  let cursor = S.Heap_file.scan hf in
  let rec drain acc =
    match cursor () with
    | None -> List.rev acc
    | Some r -> drain (Bytes.to_string r :: acc)
  in
  let drained = ref [] in
  let scan_pins =
    pins (fun () ->
        drained := drain [];
        ignore (cursor ()))
  in
  Alcotest.(check (list string)) "cursor order" (List.map Bytes.to_string records) !drained;
  Alcotest.(check int) "scan: one pin per page" pages scan_pins

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

(* Keys [(k / 50, k)] as two fixed-width ints: groups of 50 consecutive
   [k] share an 8-byte prefix. *)
let group_key k =
  let buf = Buffer.create 16 in
  S.Bytes_codec.key_int buf (k / 50);
  S.Bytes_codec.key_int buf k;
  Buffer.to_bytes buf

let dec_group_key key = dec_int (Bytes.sub key 8 8)

let drain_rows cursor =
  let rec go acc =
    match cursor () with
    | None -> List.rev acc
    | Some (k, v) -> go ((dec_group_key k, dec_int v) :: acc)
  in
  go []

let drain_pages cursor =
  let rec go acc =
    match cursor () with
    | None -> List.rev acc
    | Some cells ->
      if Array.length cells = 0 then failwith "page cursor returned an empty page";
      go (List.rev_append (Array.to_list cells) acc)
  in
  List.map (fun (k, v) -> (dec_group_key k, dec_int v)) (go [])

(* Row cursors are the flattened page cursors: both agree with a sorted
   model for any bounds, including bounds on leaf edges (the first and
   last key of a leaf, and their neighbours) and empty ranges; deletes
   leave empty leaves to walk past. *)
let btree_range_scan_model =
  QCheck2.Test.make ~name:"btree range scans agree with Map model" ~count:60
    G.(
      pair
        (pair
           (list_size (int_range 0 400) (int_bound 700))
           (list_size (int_range 0 300) (int_bound 700)))
        (pair (quad bool (int_bound 720) (int_bound 720) (int_bound 1000)) (int_bound 15)))
    (fun ((inserts, deletes), ((on_edges, a, b, pick), g)) ->
      let _, pool = fresh_pool ~page_size:256 () in
      let bt = S.Btree.create pool in
      let module M = Map.Make (Int) in
      let model =
        List.fold_left
          (fun m k ->
            S.Btree.insert bt ~key:(group_key k) ~value:(enc_int (k * 2));
            M.add k (k * 2) m)
          M.empty inserts
      in
      let model =
        List.fold_left
          (fun m k ->
            ignore (S.Btree.delete bt ~key:(group_key k));
            M.remove k m)
          model deletes
      in
      (* Leaf edges, read off the full page scan. *)
      let edges =
        let pages = S.Btree.scan_range_pages bt in
        let rec go acc =
          match pages () with
          | None -> acc
          | Some cells ->
            let first = dec_group_key (fst cells.(0)) in
            let last = dec_group_key (fst cells.(Array.length cells - 1)) in
            go ([ first - 1; first; last; last + 1 ] @ acc)
        in
        Array.of_list (List.filter (fun k -> k >= 0) (go []))
      in
      let lo, hi =
        if on_edges && Array.length edges > 0 then
          (edges.(pick mod Array.length edges), edges.((pick + a) mod Array.length edges))
        else (a, b)
      in
      let all = M.bindings model in
      let in_range = List.filter (fun (k, _) -> lo <= k && k <= hi) all in
      let in_group = List.filter (fun (k, _) -> k / 50 = g) all in
      let lo = group_key lo and hi = group_key hi and prefix = enc_int g in
      drain_rows (S.Btree.scan_range bt) = all
      && drain_pages (S.Btree.scan_range_pages bt) = all
      && drain_rows (S.Btree.scan_range ~lo ~hi bt) = in_range
      && drain_pages (S.Btree.scan_range_pages ~lo ~hi bt) = in_range
      && drain_rows (S.Btree.scan_prefix bt ~prefix) = in_group
      && drain_pages (S.Btree.scan_prefix_pages bt ~prefix) = in_group)

(* A row scan pins each leaf once: the descent pins one page per level
   (the leaf's window also finds the first slot), then every leaf the
   walk visits is pinned once, including the one whose first key ends
   the scan.  [btree.node_reads] counts the same visits. *)
let test_btree_row_scans_one_pin_per_leaf () =
  let _, pool = fresh_pool () in
  let n = 200 in
  let next = ref 0 in
  let bt =
    S.Btree.of_cursor pool (fun () ->
        if !next >= n then None
        else begin
          incr next;
          Some (group_key (!next - 1), enc_int 0)
        end)
  in
  (* Bulk load packs equal-size cells: every leaf but the last holds
     [per_leaf] entries, so key [k] lives in leaf [k / per_leaf]. *)
  let per_leaf = Array.length (Option.get (S.Btree.scan_range_pages bt ())) in
  let height = S.Btree.height bt in
  Alcotest.(check bool) "a group spans several leaves" true (50 > 2 * per_leaf);
  Alcotest.(check bool) "multi-level tree" true (height > 1);
  (* Rows [first..last]; the walk also visits the leaf holding [last + 1].
     The descent copies the first leaf's window inside that leaf's own
     pin, so the walk pins every level and leaf exactly once:
     [height + leaves - 1]. *)
  let expect name ~first ~last cursor =
    let rows = ref 0 in
    let c =
      charged (fun () ->
          let cursor = cursor () in
          while Option.is_some (cursor ()) do
            incr rows
          done)
    in
    let leaves = ((last + 1) / per_leaf) - (first / per_leaf) + 1 in
    Alcotest.(check int) (name ^ ": rows") (last - first + 1) !rows;
    Alcotest.(check int) (name ^ ": pins = descent + later leaves") (height + leaves - 1)
      (S.Metrics.get c "latch.shared_acquisitions");
    Alcotest.(check int) (name ^ ": node reads = descent + later leaves") (height + leaves - 1)
      (S.Metrics.get c "btree.node_reads")
  in
  let range lo hi () = S.Btree.scan_range ~lo:(group_key lo) ~hi:(group_key hi) bt in
  let lo = per_leaf + 3 and hi = (3 * per_leaf) + 5 in
  expect "range" ~first:lo ~last:hi (range lo hi);
  let lo = per_leaf and hi = (3 * per_leaf) - 1 in
  expect "range ending on a leaf edge" ~first:lo ~last:hi (range lo hi);
  expect "prefix" ~first:50 ~last:99 (fun () -> S.Btree.scan_prefix bt ~prefix:(enc_int 1))

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
  let pool = S.Buffer_pool.create ~capacity:2 disk in
  let pages = List.init 8 (fun _ -> S.Buffer_pool.alloc_page pool) in
  S.Buffer_pool.drop_all pool;
  let touch () = List.iter (fun p -> S.Buffer_pool.with_page pool p ignore) pages in
  (* The pool enforces the cap on the I/O itself: the sixth (clean) miss
     crosses a cap of 5 and raises at once, with nothing left pinned. *)
  let budget = S.Budget.create ~max_page_ios:5 () in
  (match S.Budget.run budget touch with
   | () -> Alcotest.fail "budget should be exhausted"
   | exception S.Budget.Exhausted _ -> ());
  Alcotest.(check int) "stopped at the crossing read" 6 (S.Budget.page_ios budget);
  Alcotest.(check (list (pair int int))) "censored access: no pins" []
    (S.Buffer_pool.pinned_pages pool);
  (* [check] polls only the deadline and the time cap. *)
  S.Budget.check budget;
  (* Outside [run] nothing is enforced, and I/O is not charged. *)
  touch ();
  Alcotest.(check int) "unscoped reads not charged" 6 (S.Budget.page_ios budget);
  (* A budget without caps never trips. *)
  let free = S.Budget.create () in
  S.Budget.run free touch;
  Alcotest.(check int) "uncapped reads charged" 8 (S.Budget.page_ios free);
  (* The bound is the crossing read plus one victim write-back: a miss
     that evicts a dirty frame charges two I/Os before the check. *)
  let one = S.Buffer_pool.create ~capacity:1 disk in
  S.Buffer_pool.with_page_mut one (List.hd pages) ignore;
  let zero = S.Budget.create ~max_page_ios:0 () in
  (match S.Budget.run zero (fun () -> S.Buffer_pool.with_page one (List.nth pages 1) ignore) with
   | () -> Alcotest.fail "zero budget should be exhausted"
   | exception S.Budget.Exhausted _ -> ());
  Alcotest.(check int) "read plus write-back" 2 (S.Budget.page_ios zero);
  Alcotest.(check (list (pair int int))) "censored eviction: no pins" []
    (S.Buffer_pool.pinned_pages one)

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
        S.Budget.run budget (fun () ->
            Atomic.set turn 1;
            await 2;
            S.Budget.check_page_ios ();
            S.Budget.page_ios budget))
  in
  let b =
    Domain.spawn (fun () ->
        await 1;
        let mine = S.Budget.create () in
        S.Budget.run mine (fun () ->
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

(* The frame latch is not reentrant, so a page accessed again inside
   its own callback would block on itself.  Under the sanitizer lockdep
   reports the nesting, in a read and in a write, before the inner
   access blocks; unwinding leaves no pin and no latch behind. *)
let test_latch_nested_same_page_raises () =
  S.Lock_order.reset ();
  let disk = S.Disk.in_memory ~page_size:128 () in
  let pool = S.Buffer_pool.create ~capacity:4 ~sanitize:true disk in
  let p = S.Buffer_pool.alloc_page pool in
  List.iter
    (fun (what, outer) ->
      (match outer pool p (fun _ -> S.Buffer_pool.with_page pool p ignore) with
       | () -> Alcotest.failf "with_page nested %s on the same page should raise" what
       | exception S.Lock_order.Lock_order_violation msg ->
         let needle = "not reentrant" in
         let rec found i =
           i + String.length needle <= String.length msg
           && (String.sub msg i (String.length needle) = needle || found (i + 1))
         in
         Alcotest.(check bool) (what ^ ": names the re-entry") true (found 0));
      Alcotest.(check (list (pair int int))) (what ^ ": no pins survive") []
        (S.Buffer_pool.pinned_pages pool);
      Alcotest.(check (list (pair int int))) (what ^ ": no latches survive") []
        (S.Buffer_pool.latched_pages pool))
    [ ("in with_page", S.Buffer_pool.with_page);
      ("in with_page_mut", S.Buffer_pool.with_page_mut) ];
  Alcotest.(check bool) "held stacks drained" true (S.Lock_order.held_by_self () = []);
  S.Lock_order.reset ()

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

(* Sanitize mode must not change what programs compute: a write through
   one access is visible to the next, and write-back persists it. *)
let test_sanitizer_transparent () =
  let disk, pool = sanitize_pool () in
  let p = S.Buffer_pool.alloc_page pool in
  S.Buffer_pool.with_page_mut pool p (fun b -> Bytes.set b 0 'a');
  S.Buffer_pool.with_page_mut pool p (fun b ->
      Alcotest.(check char) "next access sees the write" 'a' (Bytes.get b 0);
      Bytes.set b 1 'b');
  S.Buffer_pool.with_page pool p (fun b ->
      Alcotest.(check char) "reader sees both writes" 'b' (Bytes.get b 1));
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
  Alcotest.(check (list (pair int int))) "btree under sanitizer: no pins" []
    (S.Buffer_pool.pinned_pages pool)

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

(* --- CRC-32 ----------------------------------------------------------------- *)

(* The definition, one bit at a time and independent of any table: the
   reference [Crc32.feed] must agree with bit for bit. *)
let crc_reference acc buf pos len =
  let acc = ref acc in
  for i = pos to pos + len - 1 do
    acc := !acc lxor Char.code (Bytes.get buf i);
    for _ = 0 to 7 do
      acc := if !acc land 1 <> 0 then 0xEDB88320 lxor (!acc lsr 1) else !acc lsr 1
    done
  done;
  !acc

(* A fixed 4 KB page whose stamped checksum is a constant, so the test
   also pins the on-disk format. *)
let pattern_page () = Bytes.init 4096 (fun i -> Char.chr ((i * 7 + i / 256) land 0xFF))

let test_crc32_known_answers () =
  Alcotest.(check int) "check value" 0xCBF43926
    (S.Crc32.digest (Bytes.of_string "123456789"));
  Alcotest.(check int) "empty input" 0 (S.Crc32.digest Bytes.empty);
  let page = pattern_page () in
  S.Page.stamp_checksum page;
  Alcotest.(check int) "4 KB pattern page" 0x209862B9 (S.Page.stored_checksum page);
  Alcotest.(check bool) "pattern page verifies" true (S.Page.checksum_matches page)

let test_crc32_bounds () =
  let buf = Bytes.create 32 in
  Alcotest.(check int) "empty slice at the end" S.Crc32.start
    (S.Crc32.feed S.Crc32.start buf 32 0);
  List.iter
    (fun (pos, len) ->
      match S.Crc32.feed S.Crc32.start buf pos len with
      | _ -> Alcotest.failf "feed ~pos:%d ~len:%d should raise" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 4); (0, -1); (0, 33); (30, 3); (33, 0); (max_int, 1); (1, max_int) ]

let gen_buffer size = G.map Bytes.of_string (G.string_size size)

(* Every start offset a word-sized step can be misaligned by, and every
   length from empty through several 16-byte steps plus a tail. *)
let crc32_short_slices =
  QCheck2.Test.make ~name:"crc32: every pos 0..15, len 0..64" ~count:50
    (gen_buffer (G.return 80))
    (fun buf ->
      for pos = 0 to 15 do
        for len = 0 to 64 do
          let acc = (S.Crc32.start lxor (pos * 0x01000193)) land 0xFFFFFFFF in
          if S.Crc32.feed acc buf pos len <> crc_reference acc buf pos len then
            QCheck2.Test.fail_reportf "pos %d len %d" pos len
        done
      done;
      true)

let crc32_random_slices =
  QCheck2.Test.make ~name:"crc32: random buffers and slices" ~count:300
    G.(triple (gen_buffer (int_bound 300)) nat nat)
    (fun (buf, a, b) ->
      let n = Bytes.length buf in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      S.Crc32.feed S.Crc32.start buf pos len = crc_reference S.Crc32.start buf pos len)

(* Full pages, checksummed whole and the way [Page.checksum] does it:
   fed in two pieces around its CRC slot. *)
let crc32_full_pages =
  QCheck2.Test.make ~name:"crc32: full pages" ~count:30 (gen_buffer (G.return 4096))
    (fun page ->
      let whole = S.Crc32.finish (crc_reference S.Crc32.start page 0 4096) in
      let around =
        S.Crc32.finish
          (crc_reference (crc_reference S.Crc32.start page 0 10) page 14 (4096 - 14))
      in
      S.Crc32.digest page = whole && S.Page.checksum page = around)

(* Chained feeds split at arbitrary points equal one feed over the whole. *)
let crc32_chained_feeds =
  QCheck2.Test.make ~name:"crc32: chained feeds" ~count:200
    G.(pair (gen_buffer (int_bound 600)) (list_size (int_bound 8) nat))
    (fun (buf, cuts) ->
      let n = Bytes.length buf in
      let cuts = List.sort_uniq Int.compare (List.map (fun c -> c mod (n + 1)) cuts) in
      let acc, last =
        List.fold_left
          (fun (acc, from) cut -> (S.Crc32.feed acc buf from (cut - from), cut))
          (S.Crc32.start, 0) cuts
      in
      let chained = S.Crc32.feed acc buf last (n - last) in
      chained = crc_reference S.Crc32.start buf 0 n)

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
  let replayed () =
    let seen = ref [] in
    let stats = S.Wal.replay wal ~apply:(fun ~lsn ~page_id:_ _ -> seen := lsn :: !seen) in
    (stats, List.rev !seen)
  in
  (* A first group reaches the log whole. *)
  for i = 0 to 1 do
    ignore (S.Wal.append wal ~page_id:i ~data:(payload i))
  done;
  S.Wal.sync wal;
  for i = 2 to 5 do
    ignore (S.Wal.append wal ~page_id:i ~data:(payload i))
  done;
  S.Wal.set_injector wal
    (Some (function S.Wal.Sync -> S.Wal.Torn "power cut" | S.Wal.Append -> S.Wal.No_fault));
  (match S.Wal.sync wal with
   | () -> Alcotest.fail "torn sync should raise"
   | exception S.Disk.Disk_error _ -> ());
  S.Wal.set_injector wal None;
  (* Half the second group landed whole, plus a damaged prefix of the
     next record, but never its commit record: replay must apply none of
     that group, keep the first one intact and flag the torn tail. *)
  let stats, lsns = replayed () in
  Alcotest.(check (list int)) "only the committed group replayed" [1; 2] lsns;
  Alcotest.(check bool) "torn tail detected" true stats.S.Wal.torn_tail;
  Alcotest.(check bool) "torn bytes discarded" true (stats.S.Wal.discarded_bytes > 0);
  Alcotest.(check int) "synced LSN rolled back to the committed group" 2
    (S.Wal.synced_lsn wal);
  (* Replay is idempotent: a second pass sees the same durable prefix. *)
  let stats2, lsns2 = replayed () in
  Alcotest.(check (list int)) "second replay identical" lsns lsns2;
  Alcotest.(check int) "same bytes discarded" stats.S.Wal.discarded_bytes
    stats2.S.Wal.discarded_bytes;
  (* Appending after recovery continues past the survivors, and the next
     group is written over the torn remains. *)
  let lsn = S.Wal.append wal ~page_id:9 ~data:(payload 0) in
  Alcotest.(check bool) "fresh LSN beyond survivors" true (lsn > S.Wal.synced_lsn wal);
  S.Wal.sync wal;
  let stats3, lsns3 = replayed () in
  Alcotest.(check (list int)) "next group follows the first" [1; 2; lsn] lsns3;
  Alcotest.(check bool) "torn remains overwritten" false stats3.S.Wal.torn_tail

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
  (* The mutation itself logs nothing: logging waits for the sync... *)
  S.Buffer_pool.with_page_mut pool p (fun buf -> Bytes.set buf 0 'q');
  Alcotest.(check int) "mutation appends nothing" 0 (S.Wal.last_lsn wal - appends_before);
  (* ...which the write-back runs once, however often the page write
     behind it is retried. *)
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
  Alcotest.(check int) "faulting write-back appended exactly one record" 1
    (S.Wal.last_lsn wal - appends_before);
  (* A clean frame re-flushed appends nothing either. *)
  S.Buffer_pool.flush_all pool;
  Alcotest.(check int) "clean flush appends nothing" 1 (S.Wal.last_lsn wal - appends_before)

(* The committed records with LSN above [after], as (lsn, page id). *)
let committed_since wal after =
  let seen = ref [] in
  ignore
    (S.Wal.replay wal ~apply:(fun ~lsn ~page_id _ ->
         if lsn > after then seen := (lsn, page_id) :: !seen));
  List.rev !seen

let test_wal_one_record_per_sync () =
  let disk = S.Disk.in_memory ~page_size:256 () in
  let wal = S.Wal.in_memory () in
  let pool = S.Buffer_pool.create ~capacity:2 ~wal disk in
  let pages_logged since = List.map snd (committed_since wal since) in
  (* Mutate a cached page many times, then evict it: one record. *)
  let p = S.Buffer_pool.alloc_page pool in
  for i = 1 to 10 do
    S.Buffer_pool.with_page_mut pool p (fun buf -> Bytes.set buf 0 (Char.chr i))
  done;
  let q = S.Buffer_pool.alloc_page pool in
  ignore (S.Buffer_pool.alloc_page pool);
  Alcotest.(check int) "ten mutations, one record for p" 1
    (List.length (List.filter (Int.equal p) (pages_logged 0)));
  Alcotest.(check (list int)) "the group also logged the other dirty frame"
    (List.sort compare [p; q]) (List.sort compare (pages_logged 0));
  (* A frame held exclusively while another frame is evicted is left out
     of that group, and the next group logs it. *)
  S.Buffer_pool.flush_all pool;
  let a = q in
  let b = S.Buffer_pool.alloc_page pool in
  S.Buffer_pool.flush_all pool;
  S.Buffer_pool.with_page_mut pool b (fun buf -> Bytes.set buf 0 'b');
  let l0 = S.Wal.last_lsn wal in
  let l1 =
    S.Buffer_pool.with_page_mut pool a (fun buf ->
        Bytes.set buf 0 'a';
        (* Both frames are taken: this evicts b while a is held. *)
        ignore (S.Buffer_pool.alloc_page pool);
        S.Wal.last_lsn wal)
  in
  Alcotest.(check (list int)) "held frame skipped by the eviction's group" [b]
    (pages_logged l0);
  S.Buffer_pool.flush_all pool;
  Alcotest.(check bool) "and logged by the next group" true (List.mem a (pages_logged l1));
  S.Buffer_pool.drop_all pool;
  S.Buffer_pool.with_page pool a (fun buf ->
      Alcotest.(check char) "the held frame's change persisted" 'a' (Bytes.get buf 0))

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

(* --- in-place node access ------------------------------------------------ *)

(* Keys over the bytes where signed and unsigned order disagree, and
   around them, behind shared prefixes: a comparison that reads signed
   bytes, past the key or off its offset gets a sign wrong. *)
let edge_bytes = "\000\001ab\127\128\254\255"

let gen_edge_key =
  G.(map2
       (fun prefix tail -> Bytes.of_string (prefix ^ String.of_seq (List.to_seq tail)))
       (oneofl [""; "\000"; "ab"; "\255\255"; "label\000"])
       (list_size (int_bound 8) (map (String.get edge_bytes) (int_bound 7))))

let sign c = Int.compare c 0

(* Probes around each stored key: itself, a proper prefix, an extension. *)
let probes_around key =
  let n = Bytes.length key in
  [key; Bytes.sub key 0 (n / 2); Bytes.cat key (Bytes.of_string "\000")]

let in_place_compare =
  QCheck2.Test.make ~name:"in-place key compares have the sign of Bytes.compare" ~count:300
    G.(pair (list_size (int_range 1 12) gen_edge_key) gen_edge_key)
    (fun (keys, probe) ->
      let leaf = Bytes.make 1024 '\000' and internal = Bytes.make 1024 '\000' in
      S.Page.init leaf;
      S.Page.init internal;
      List.iteri
        (fun i key ->
          (* Values and child ids of 0xff bytes, so reading past the key
             or off its offset shows. *)
          let value = Bytes.make (i mod 3) '\255' in
          ignore (S.Page.add_slot leaf (S.Btree.leaf_cell ~key ~value));
          ignore (S.Page.add_slot internal (S.Btree.internal_cell ~child:(i * 0x01010101) ~key)))
        keys;
      let probes = probe :: List.concat_map probes_around keys in
      List.for_all
        (fun probe ->
          List.for_all Fun.id
            (List.mapi
               (fun i key ->
                 let want = sign (Bytes.compare key probe) in
                 sign (S.Btree.compare_leaf_key leaf i probe) = want
                 && sign (S.Btree.compare_internal_key internal i probe) = want)
               keys))
        probes)

(* The slot directory moved one slot at a time: the plain definition
   the block move must match byte for byte.
   Slot [i] is the [u16 off | u16 len] pair [4 * (i + 1)] bytes before
   the page's end, and the header keeps the free offset at byte 6. *)
let ref_slot page i =
  let p = Bytes.length page - (4 * (i + 1)) in
  (S.Page.get_u16 page p, S.Page.get_u16 page (p + 2))

let ref_set_slot page i (off, len) =
  let p = Bytes.length page - (4 * (i + 1)) in
  S.Page.set_u16 page p off;
  S.Page.set_u16 page (p + 2) len

let ref_insert_slot_at page i record =
  let n = S.Page.slot_count page in
  let free_off = S.Page.get_u16 page 6 and len = Bytes.length record in
  Bytes.blit record 0 page free_off len;
  S.Page.set_slot_count page (n + 1);
  for j = n downto i + 1 do
    ref_set_slot page j (ref_slot page (j - 1))
  done;
  ref_set_slot page i (free_off, len);
  S.Page.set_u16 page 6 (free_off + len)

let ref_remove_slot_at page i =
  let n = S.Page.slot_count page in
  for j = i to n - 2 do
    ref_set_slot page j (ref_slot page (j + 1))
  done;
  S.Page.set_slot_count page (n - 1)

type slot_op =
  | Insert_at of int * int  (* position seed, record length *)
  | Remove_at of int
  | Compact

let slot_op_gen =
  G.(frequency
       [ (6, map2 (fun pos len -> Insert_at (pos, len)) nat (int_bound 24));
         (3, map (fun pos -> Remove_at pos) nat);
         (1, return Compact) ])

let slot_moves_match_reference =
  QCheck2.Test.make ~name:"slot directory block moves match the per-slot loop" ~count:200
    G.(pair (gen_buffer (return 512)) (list_size (int_range 1 120) slot_op_gen))
    (fun (garbage, ops) ->
      (* Both pages start from the same stale bytes: the free gap and
         dead slots must come out identical too. *)
      let page = Bytes.copy garbage in
      S.Page.init page;
      let reference = Bytes.copy page in
      List.iteri
        (fun k op ->
          let n = S.Page.slot_count page in
          (match op with
           | Insert_at (pos, len) ->
             if S.Page.free_space page >= len then begin
               let record = Bytes.init len (fun j -> Char.chr ((j * 31 + k) land 0xFF)) in
               S.Page.insert_slot_at page (pos mod (n + 1)) record;
               ref_insert_slot_at reference (pos mod (n + 1)) record
             end
           | Remove_at pos ->
             if n > 0 then begin
               S.Page.remove_slot_at page (pos mod n);
               ref_remove_slot_at reference (pos mod n)
             end
           | Compact ->
             S.Page.compact page;
             S.Page.compact reference);
          if not (Bytes.equal page reference) then
            QCheck2.Test.fail_reportf "pages differ after op %d (%d slots)" k
              (S.Page.slot_count page))
        ops;
      true)

let btree_edge_keys_model =
  QCheck2.Test.make ~name:"btree over edge-byte keys agrees with Map model" ~count:60
    G.(pair
         (list_size (int_range 1 300) (pair gen_edge_key small_nat))
         (list_size (int_bound 20) (pair gen_edge_key gen_edge_key)))
    (fun (inserts, ranges) ->
      let _, pool = fresh_pool ~page_size:256 () in
      let bt = S.Btree.create pool in
      let module M = Map.Make (Bytes) in
      let model =
        List.fold_left
          (fun model (key, v) ->
            let value = Bytes.of_string (string_of_int v) in
            S.Btree.insert bt ~key ~value;
            M.add key value model)
          M.empty inserts
      in
      S.Btree.check_invariants bt;
      let finds_agree key =
        Option.equal Bytes.equal (S.Btree.find bt ~key) (M.find_opt key model)
      in
      let rec drain cursor acc =
        match cursor () with
        | None -> List.rev acc
        | Some kv -> drain cursor (kv :: acc)
      in
      let range_agrees (lo, hi) =
        let want =
          List.filter
            (fun (k, _) -> Bytes.compare lo k <= 0 && Bytes.compare k hi <= 0)
            (M.bindings model)
        in
        List.equal
          (fun (k1, v1) (k2, v2) -> Bytes.equal k1 k2 && Bytes.equal v1 v2)
          want
          (drain (S.Btree.scan_range ~lo ~hi bt) [])
      in
      S.Btree.entry_count bt = M.cardinal model
      && List.for_all (fun (k, _) -> List.for_all finds_agree (probes_around k)) inserts
      && List.for_all (fun (lo, hi) -> finds_agree lo && finds_agree hi) ranges
      && List.for_all range_agrees ranges)

(* The pin bracket releases everything on the way out of an exception:
   one raised by the callback, one raised three accesses deep inside
   nested brackets on distinct pages, and a page-I/O cap tripping inside
   the frame insert of a miss.  Run on a plain and a sanitizing pool. *)
exception Callback_failed of int

let test_bracket_exception_safety () =
  List.iter
    (fun sanitize ->
      let disk = S.Disk.in_memory ~page_size:512 () in
      let pool = S.Buffer_pool.create ~capacity:4 ~sanitize disk in
      let page = S.Buffer_pool.alloc_page pool in
      let quiescent what =
        let what = Printf.sprintf "%s (sanitize %b)" what sanitize in
        Alcotest.(check (list (pair int int))) (what ^ ": no pins") []
          (S.Buffer_pool.pinned_pages pool);
        Alcotest.(check (list (pair int int))) (what ^ ": no latches") []
          (S.Buffer_pool.latched_pages pool);
        Alcotest.(check bool) (what ^ ": lockdep stack empty") true
          (S.Lock_order.held_by_self () = []);
        (* Another domain takes the table mutex and the page's latch. *)
        let other =
          Domain.spawn (fun () -> S.Buffer_pool.with_page_mut pool page S.Page.flags)
        in
        ignore (Domain.join other)
      in
      (match S.Buffer_pool.with_page_mut pool page (fun _ -> raise (Callback_failed 7)) with
       | _ -> Alcotest.fail "callback exception swallowed"
       | exception Callback_failed 7 -> ());
      quiescent "callback raised";
      (* The outer brackets' writes completed before the innermost
         callback raised; they stay, and reach the disk. *)
      let a = S.Buffer_pool.alloc_page pool in
      let b = S.Buffer_pool.alloc_page pool in
      (match
         S.Buffer_pool.with_page_mut pool a (fun buf_a ->
             Bytes.set buf_a 0 'a';
             S.Buffer_pool.with_page_mut pool b (fun buf_b ->
                 Bytes.set buf_b 0 'b';
                 S.Buffer_pool.with_page pool page (fun _ -> raise (Callback_failed 9))))
       with
       | _ -> Alcotest.fail "nested callback exception swallowed"
       | exception Callback_failed 9 -> ());
      quiescent "nested callback raised";
      S.Buffer_pool.drop_all pool;
      List.iter
        (fun (p, c) ->
          S.Buffer_pool.with_page pool p (fun buf ->
              Alcotest.(check char)
                (Printf.sprintf "write to page %d before the raise (sanitize %b)" p sanitize)
                c (Bytes.get buf 0)))
        [(a, 'a'); (b, 'b')];
      let budget = S.Budget.create ~max_page_ios:0 () in
      (match S.Budget.run budget (fun () -> S.Buffer_pool.with_page pool page S.Page.flags) with
       | _ -> Alcotest.fail "page-I/O cap not enforced on a miss"
       | exception S.Budget.Exhausted _ -> ());
      quiescent "page-I/O cap tripped")
    [false; true]

let () =
  let prop = QCheck_alcotest.to_alcotest in
  Alcotest.run "storage"
    [ ( "disk",
        [ Alcotest.test_case "in-memory" `Quick test_disk_mem;
          Alcotest.test_case "file-backed" `Quick test_disk_file;
          Alcotest.test_case "fresh pages are blank and verify" `Quick
            test_disk_alloc_blank ] );
      ( "buffer pool",
        [ Alcotest.test_case "eviction and persistence" `Quick test_buffer_pool;
          Alcotest.test_case "all pinned" `Quick test_pool_all_pinned;
          Alcotest.test_case "exhaustion recovers" `Quick test_pool_exhausted_recovers;
          Alcotest.test_case "LRU eviction order" `Quick test_pool_lru_order;
          Alcotest.test_case "pin bracket is exception-safe" `Quick
            test_bracket_exception_safety ] );
      ( "pages",
        [ Alcotest.test_case "slots" `Quick test_page_slots;
          Alcotest.test_case "overflow" `Quick test_page_overflow;
          Alcotest.test_case "overflow on ordered insert" `Quick test_page_overflow_insert_at;
          prop slot_moves_match_reference ] );
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
            test_checksum_per_page_type;
          Alcotest.test_case "crc32 known answers" `Quick test_crc32_known_answers;
          Alcotest.test_case "crc32 rejects out-of-range slices" `Quick test_crc32_bounds;
          prop crc32_short_slices;
          prop crc32_random_slices;
          prop crc32_full_pages;
          prop crc32_chained_feeds ] );
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
            test_wal_retry_no_duplicate_append;
          Alcotest.test_case "one record per page per sync" `Quick
            test_wal_one_record_per_sync ] );
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
          prop in_place_compare;
          prop btree_edge_keys_model;
          Alcotest.test_case "row scans pin each leaf once" `Quick
            test_btree_row_scans_one_pin_per_leaf;
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
        [ Alcotest.test_case "use after unpin reads poison" `Quick
            test_sanitizer_use_after_unpin;
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
          Alcotest.test_case "nested same-page use raises" `Quick
            test_latch_nested_same_page_raises;
          Alcotest.test_case "concurrent domains" `Quick test_pool_concurrent_domains ] );
      ( "lockdep",
        [ Alcotest.test_case "opposite-order nesting raises" `Quick
            test_lockdep_opposite_order;
          Alcotest.test_case "consistent nesting is clean" `Quick
            test_lockdep_consistent_order ] ) ]
