(* Node kinds, stored in the page-header flags. *)
let kind_leaf = 0
let kind_internal = 1
let kind_meta = 2

let m_node_reads = Metrics.counter "btree.node_reads"
let m_splits = Metrics.counter "btree.splits"
let m_inserts = Metrics.counter "btree.inserts"

type t = {
  pool : Buffer_pool.t;
  meta : int;  (* page id of the meta page *)
  mutable root : int;
  mutable count : int;
  mutable leaves : int;
  mutable height_ : int;
}
(* Mutated only while the loading domain builds the tree; published to
   reader domains through catalog registration (epoch bump). *)
[@@domain_local]

(* --- meta page -------------------------------------------------------- *)

(* Meta payload at fixed offsets after the slotted header:
   root:u32, count:u32, leaves:u32, height:u32. *)
let meta_off_root = Page.header_size
let meta_off_count = Page.header_size + 4
let meta_off_leaves = Page.header_size + 8
let meta_off_height = Page.header_size + 12

let save_meta t =
  Buffer_pool.with_page_mut t.pool t.meta (fun p ->
      Page.set_u32 p meta_off_root t.root;
      Page.set_u32 p meta_off_count t.count;
      Page.set_u32 p meta_off_leaves t.leaves;
      Page.set_u32 p meta_off_height t.height_)

let fresh_node pool kind =
  let id = Buffer_pool.alloc_page pool in
  Buffer_pool.with_page_mut pool id (fun p ->
      Page.init p;
      Page.set_flags p kind);
  id

let create pool =
  let meta = fresh_node pool kind_meta in
  let root = fresh_node pool kind_leaf in
  let t = { pool; meta; root; count = 0; leaves = 1; height_ = 1 } in
  save_meta t;
  t

let open_existing pool ~meta_page =
  Buffer_pool.with_page pool meta_page (fun p ->
      if Page.flags p <> kind_meta then invalid_arg "Btree.open_existing: not a meta page";
      { pool;
        meta = meta_page;
        root = Page.get_u32 p meta_off_root;
        count = Page.get_u32 p meta_off_count;
        leaves = Page.get_u32 p meta_off_leaves;
        height_ = Page.get_u32 p meta_off_height })

let meta_page t = t.meta
let entry_count t = t.count
let height t = t.height_
let leaf_pages t = t.leaves

(* --- cell encodings --------------------------------------------------- *)

let leaf_cell ~key ~value =
  let klen = Bytes.length key in
  let cell = Bytes.create (2 + klen + Bytes.length value) in
  Page.set_u16 cell 0 klen;
  Bytes.blit key 0 cell 2 klen;
  Bytes.blit value 0 cell (2 + klen) (Bytes.length value);
  cell

let leaf_cell_key cell =
  let klen = Page.get_u16 cell 0 in
  Bytes.sub cell 2 klen

let internal_cell ~child ~key =
  let cell = Bytes.create (4 + Bytes.length key) in
  Page.set_u32 cell 0 child;
  Bytes.blit key 0 cell 4 (Bytes.length key);
  cell

let internal_cell_child cell = Page.get_u32 cell 0
let internal_cell_key cell = Bytes.sub cell 4 (Bytes.length cell - 4)

(* --- cells read in place ------------------------------------------------ *)

(* Slot [i]'s key compared with [key] inside the page, and its key,
   value and child copied straight out of it. *)
let compare_leaf_key page i key =
  let off = Page.slot_off page i in
  Page.compare_bytes page (off + 2) (Page.get_u16 page off) key

let compare_internal_key page i key =
  Page.compare_bytes page (Page.slot_off page i + 4) (Page.slot_len page i - 4) key

let leaf_key page i =
  let off = Page.slot_off page i in
  Bytes.sub page (off + 2) (Page.get_u16 page off)

let leaf_value page i =
  let off = Page.slot_off page i in
  let klen = Page.get_u16 page off in
  Bytes.sub page (off + 2 + klen) (Page.slot_len page i - 2 - klen)

let internal_key page i = Bytes.sub page (Page.slot_off page i + 4) (Page.slot_len page i - 4)
let internal_child_at page i = Page.get_u32 page (Page.slot_off page i)

(* --- searching within a node ----------------------------------------- *)

(* The binary searches are top-level functions taking the page and the
   key as arguments: a local recursive [go] over them would allocate a
   closure per search. *)

(* Smallest slot in [lo, hi) whose key is >= [key]: keys below [lo] are
   < key, keys at or after [hi] are >= key. *)
let rec leaf_search page key lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if compare_leaf_key page mid key < 0 then leaf_search page key (mid + 1) hi
    else leaf_search page key lo mid
  end

let leaf_lower_bound page key = leaf_search page key 0 (Page.slot_count page)
let leaf_holds page pos key = pos < Page.slot_count page && compare_leaf_key page pos key = 0

(* Smallest slot in [lo, hi) whose separator is > [key]: separators
   below [lo] are <= key, at or after [hi] are > key. *)
let rec internal_search page key lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if compare_internal_key page mid key <= 0 then internal_search page key (mid + 1) hi
    else internal_search page key lo mid
  end

let internal_upper_bound page key = internal_search page key 0 (Page.slot_count page)

(* Child to descend into for [key]: the child of the largest separator
   <= key, or the leftmost child. *)
let internal_child page key =
  let pos = internal_upper_bound page key in
  if pos = 0 then Page.next page else internal_child_at page (pos - 1)

(* --- find ------------------------------------------------------------- *)

let rec find_from t pid key =
  Metrics.incr m_node_reads;
  let step =
    Buffer_pool.with_page t.pool pid (fun p ->
        if Page.flags p = kind_leaf then begin
          let pos = leaf_lower_bound p key in
          if leaf_holds p pos key then `Found (leaf_value p pos) else `Missing
        end
        else `Descend (internal_child p key))
  in
  match step with
  | `Found v -> Some v
  | `Missing -> None
  | `Descend child -> find_from t child key

let find t ~key = find_from t t.root key

(* --- insert ----------------------------------------------------------- *)

let max_cell_size t = Disk.page_size (Buffer_pool.disk t.pool) / 4

(* Rewrite [page] to contain exactly [cells] (already key-sorted). *)
let rewrite page kind ~next cells =
  Page.init page;
  Page.set_flags page kind;
  Page.set_next page next;
  Array.iter (fun cell -> ignore (Page.add_slot page cell)) cells

let all_cells page = Array.init (Page.slot_count page) (fun i -> Page.read_slot page i)

let array_insert arr i x =
  Array.append (Array.sub arr 0 i) (Array.append [|x|] (Array.sub arr i (Array.length arr - i)))

(* Split position: first index such that the left part exceeds half the
   total cell bytes.  Guarantees both sides non-empty for n >= 2. *)
let split_point cells =
  let total = Array.fold_left (fun acc c -> acc + Bytes.length c + 4) 0 cells in
  let rec go i acc =
    if i >= Array.length cells - 1 then i
    else begin
      let acc = acc + Bytes.length cells.(i) + 4 in
      if acc * 2 >= total then i + 1 else go (i + 1) acc
    end
  in
  max 1 (go 0 0)

type split = {
  sep : bytes;
  right : int;
}

(* A node pinned by a descent that trusts the tree's height must be the
   kind that height says it is. *)
let expect_kind p pid kind =
  if Page.flags p <> kind then Xqdb_error.corrupt "Btree: page %d is not a node of kind %d" pid kind

(* Insert [cell] (with key [key]) into the leaf [pid]; on overflow split
   and return the separator and the new right page. *)
let leaf_insert t pid ~key ~cell =
  Buffer_pool.with_page_mut t.pool pid (fun p ->
      expect_kind p pid kind_leaf;
      let pos = leaf_lower_bound p key in
      if leaf_holds p pos key then begin
        Page.remove_slot_at p pos;
        t.count <- t.count - 1
      end;
      t.count <- t.count + 1;
      let need = Bytes.length cell + 4 in
      if Page.free_space p >= need then begin
        Page.insert_slot_at p pos cell;
        None
      end
      else begin
        Page.compact p;
        if Page.free_space p >= need then begin
          Page.insert_slot_at p pos cell;
          None
        end
        else begin
          (* Split: redistribute all cells plus the new one. *)
          let cells = array_insert (all_cells p) pos cell in
          let cut = split_point cells in
          let left = Array.sub cells 0 cut in
          let right_cells = Array.sub cells cut (Array.length cells - cut) in
          let right = fresh_node t.pool kind_leaf in
          let old_next = Page.next p in
          rewrite p kind_leaf ~next:right left;
          Buffer_pool.with_page_mut t.pool right (fun rp ->
              rewrite rp kind_leaf ~next:old_next right_cells);
          t.leaves <- t.leaves + 1;
          Metrics.incr m_splits;
          Some { sep = leaf_cell_key right_cells.(0); right }
        end
      end)

(* Insert a (separator, child) produced by a child split into internal
   node [pid]. *)
let internal_insert t pid split_info =
  Buffer_pool.with_page_mut t.pool pid (fun p ->
      let cell = internal_cell ~child:split_info.right ~key:split_info.sep in
      (* Position: keep separators sorted. *)
      let pos = internal_upper_bound p split_info.sep in
      let need = Bytes.length cell + 4 in
      if Page.free_space p >= need then begin
        Page.insert_slot_at p pos cell;
        None
      end
      else begin
        Page.compact p;
        if Page.free_space p >= need then begin
          Page.insert_slot_at p pos cell;
          None
        end
        else begin
          let cells = array_insert (all_cells p) pos cell in
          let cut = split_point cells in
          (* The cell at [cut] is promoted: its key moves up, its child
             becomes the leftmost pointer of the right node. *)
          let promoted = cells.(cut) in
          let left = Array.sub cells 0 cut in
          let right_cells = Array.sub cells (cut + 1) (Array.length cells - cut - 1) in
          let right = fresh_node t.pool kind_internal in
          let p0 = Page.next p in
          rewrite p kind_internal ~next:p0 left;
          Buffer_pool.with_page_mut t.pool right (fun rp ->
              rewrite rp kind_internal ~next:(internal_cell_child promoted) right_cells);
          Metrics.incr m_splits;
          Some { sep = internal_cell_key promoted; right }
        end
      end)

(* The child of internal node [pid] for [key], in one shared pin. *)
let child_for t pid key =
  Buffer_pool.with_page t.pool pid (fun p ->
      expect_kind p pid kind_internal;
      internal_child p key)

(* [level] counts down from the tree's height to 1, the leaves: each
   level is pinned once on the way down, the leaf exclusively. *)
let rec insert_rec t pid level ~key ~cell =
  Metrics.incr m_node_reads;
  if level = 1 then leaf_insert t pid ~key ~cell
  else
    match insert_rec t (child_for t pid key) (level - 1) ~key ~cell with
    | None -> None
    | Some split_info -> internal_insert t pid split_info

let insert t ~key ~value =
  Metrics.incr m_inserts;
  let cell = leaf_cell ~key ~value in
  if Bytes.length cell + 4 > max_cell_size t then
    invalid_arg
      (Printf.sprintf "Btree.insert: cell of %d bytes exceeds max %d" (Bytes.length cell)
         (max_cell_size t));
  (match insert_rec t t.root t.height_ ~key ~cell with
   | None -> ()
   | Some { sep; right } ->
     (* Root split: grow the tree by one level. *)
     Metrics.incr m_splits;
     let new_root = fresh_node t.pool kind_internal in
     Buffer_pool.with_page_mut t.pool new_root (fun p ->
         Page.set_next p t.root;
         ignore (Page.add_slot p (internal_cell ~child:right ~key:sep)));
     t.root <- new_root;
     t.height_ <- t.height_ + 1);
  save_meta t

(* --- delete (lazy) ---------------------------------------------------- *)

let rec delete_rec t pid level key =
  if level = 1 then
    Buffer_pool.with_page_mut t.pool pid (fun p ->
        expect_kind p pid kind_leaf;
        let pos = leaf_lower_bound p key in
        if leaf_holds p pos key then begin
          Page.remove_slot_at p pos;
          true
        end
        else false)
  else delete_rec t (child_for t pid key) (level - 1) key

let delete t ~key =
  let removed = delete_rec t t.root t.height_ key in
  if removed then begin
    t.count <- t.count - 1;
    save_meta t
  end;
  removed

(* --- scans ------------------------------------------------------------ *)

(* Copy out the cells of the pinned leaf [p] from slot [start]: up to the
   first key satisfying [stop] (not taken) or the first satisfying
   [upto] (taken), either of which ends the walk.  Returns the cells in
   key order and the leaf to read next, 0 once the walk has ended. *)
let take_cells p start ~stop ~upto =
  let n = Page.slot_count p in
  let rec take i acc =
    if i >= n then (acc, Page.next p)
    else begin
      let key = leaf_key p i in
      if stop key then (acc, 0)
      else begin
        let acc = (key, leaf_value p i) :: acc in
        if upto key then (acc, 0) else take (i + 1) acc
      end
    end
  in
  let acc, next = take start [] in
  (Array.of_list (List.rev acc), next)

let never _ = false

(* Descend from the root to the leaf that would hold [key] (the leftmost
   leaf without one), pinning each level once.  [window pid p pos] runs
   inside the leaf's own pin, [pos] being the first slot to read, so the
   first leaf window is copied without a second pin. *)
let descend t key ~window =
  let rec go pid =
    Metrics.incr m_node_reads;
    let step =
      Buffer_pool.with_page t.pool pid (fun p ->
          match (Page.flags p = kind_leaf, key) with
          | true, None -> `Leaf (window pid p 0)
          | true, Some k -> `Leaf (window pid p (leaf_lower_bound p k))
          | false, None -> `Child (Page.next p)
          | false, Some k -> `Child (internal_child p k))
    in
    match step with
    | `Leaf w -> w
    | `Child child -> go child
  in
  go t.root

(* The one leaf walker.  It starts with the window the descent copied;
   each later pull pins the next leaf once and copies its window with
   [window] (from slot 0), which also decides where the walk ends.
   Never returns an empty array; an emptied leaf is walked past. *)
let leaf_cursor t ~window (cells, next) =
  let pending = ref cells in  (* copied, not yet returned *)
  let cur_leaf = ref next in  (* 0 once the walk has ended *)
  let rec pull () =
    if Array.length !pending > 0 then begin
      let cells = !pending in
      pending := [||];
      Some cells
    end
    else if !cur_leaf = 0 then None
    else begin
      let leaf = !cur_leaf in
      Metrics.incr m_node_reads;
      let cells, next = Buffer_pool.with_page t.pool leaf (fun p -> window leaf p 0) in
      pending := cells;
      cur_leaf := next;
      pull ()
    end
  in
  pull

(* A scan ends before the first key satisfying [stop]. *)
let scan_leaves t lo ~stop =
  let window _ p pos = take_cells p pos ~stop ~upto:never in
  leaf_cursor t ~window (descend t lo ~window)

let has_prefix ~prefix key =
  let plen = Bytes.length prefix in
  let rec same i =
    i = plen || (Char.equal (Bytes.get key i) (Bytes.get prefix i) && same (i + 1))
  in
  Bytes.length key >= plen && same 0

let scan_range_pages ?lo ?hi t =
  let stop =
    match hi with
    | None -> never
    | Some hi -> fun key -> Bytes.compare key hi > 0
  in
  scan_leaves t lo ~stop

let scan_prefix_pages t ~prefix =
  scan_leaves t (Some prefix) ~stop:(fun key -> not (has_prefix ~prefix key))

(* Row cursors serve each page's copied cells from memory. *)
let flatten pages =
  let cells = ref [||] in
  let pos = ref 0 in
  let rec pull () =
    if !pos < Array.length !cells then begin
      incr pos;
      Some !cells.(!pos - 1)
    end
    else
      match pages () with
      | None -> None
      | Some page ->
        cells := page;
        pos := 0;
        pull ()
  in
  pull

let scan_range ?lo ?hi t = flatten (scan_range_pages ?lo ?hi t)
let scan_prefix t ~prefix = flatten (scan_prefix_pages t ~prefix)

(* --- forward reader ----------------------------------------------------- *)

type reader = {
  tree : t;
  mutable leaf : int;  (* the last leaf read; 0 before the first range *)
  mutable first_key : bytes;  (* that leaf's key span *)
  mutable last_key : bytes;
}
(* Created per run and never handed to another domain. *)
[@@domain_local]

let reader tree = { tree; leaf = 0; first_key = Bytes.empty; last_key = Bytes.empty }

let read_range r ~lo ~hi f =
  let t = r.tree in
  let window pid p pos =
    let n = Page.slot_count p in
    if pid <> r.leaf && n > 0 then begin
      r.leaf <- pid;
      r.first_key <- leaf_key p 0;
      r.last_key <- leaf_key p (n - 1)
    end;
    take_cells p pos ~stop:(fun key -> Bytes.compare key hi > 0) ~upto:(Bytes.equal hi)
  in
  let first =
    if r.leaf <> 0 && Bytes.compare r.first_key lo <= 0 && Bytes.compare lo r.last_key <= 0
    then begin
      let leaf = r.leaf in
      Metrics.incr m_node_reads;
      Buffer_pool.with_page t.pool leaf (fun p -> window leaf p (leaf_lower_bound p lo))
    end
    else descend t (Some lo) ~window
  in
  let pages = leaf_cursor t ~window first in
  let rec drain () =
    match pages () with
    | None -> ()
    | Some cells ->
      f cells;
      drain ()
  in
  drain ()

let iter t f =
  let pages = scan_range_pages t in
  let rec go () =
    match pages () with
    | None -> ()
    | Some cells ->
      Array.iter (fun (k, v) -> f k v) cells;
      go ()
  in
  go ()

(* --- bulk load -------------------------------------------------------- *)

let of_cursor pool cursor =
  let t = create pool in
  let psize = Disk.page_size (Buffer_pool.disk pool) in
  let capacity = psize - Page.header_size in
  (* Build the leaf level. *)
  let leaves = ref [] in  (* (first_key, pid) in reverse order *)
  let current = ref t.root in
  let current_first = ref None in
  let used = ref 0 in
  let last_key = ref None in
  let n = ref 0 in
  let rec fill () =
    match cursor () with
    | None -> ()
    | Some (key, value) ->
      (match !last_key with
       | Some k when Bytes.compare k key >= 0 ->
         invalid_arg "Btree.of_cursor: keys not strictly increasing"
       | Some _ | None -> ());
      last_key := Some key;
      let cell = leaf_cell ~key ~value in
      if Bytes.length cell + 4 > psize / 4 then invalid_arg "Btree.of_cursor: cell too large";
      if !used + Bytes.length cell + 4 > capacity then begin
        (* Start a new leaf, chain it. *)
        let fresh = fresh_node pool kind_leaf in
        Buffer_pool.with_page_mut pool !current (fun p -> Page.set_next p fresh);
        (match !current_first with
         | Some fk -> leaves := (fk, !current) :: !leaves
         | None -> assert false);
        current := fresh;
        current_first := None;
        used := 0;
        t.leaves <- t.leaves + 1
      end;
      Buffer_pool.with_page_mut pool !current (fun p -> ignore (Page.add_slot p cell));
      if !current_first = None then current_first := Some key;
      used := !used + Bytes.length cell + 4;
      incr n;
      fill ()
  in
  fill ();
  (match !current_first with
   | Some fk -> leaves := (fk, !current) :: !leaves
   | None -> leaves := (Bytes.empty, !current) :: !leaves);
  t.count <- !n;
  (* Build internal levels until one node remains.  The input is
     [(first_key, pid)] per node; [first_key] doubles as the separator
     when the node becomes a non-leftmost child. *)
  let rec build_level nodes =
    match nodes with
    | [] -> assert false
    | [(_, pid)] -> pid
    | (first_key, first_child) :: rest ->
      let parents = ref [] in  (* reversed (first_key, pid) of the level above *)
      let node = ref (fresh_node pool kind_internal) in
      Buffer_pool.with_page_mut pool !node (fun p -> Page.set_next p first_child);
      let node_first = ref first_key in
      let used = ref 0 in
      let finalize () = parents := (!node_first, !node) :: !parents in
      List.iter
        (fun (sep, child) ->
          let cell = internal_cell ~child ~key:sep in
          if !used + Bytes.length cell + 4 > capacity then begin
            finalize ();
            node := fresh_node pool kind_internal;
            Buffer_pool.with_page_mut pool !node (fun p -> Page.set_next p child);
            node_first := sep;
            used := 0
          end
          else begin
            Buffer_pool.with_page_mut pool !node (fun p -> ignore (Page.add_slot p cell));
            used := !used + Bytes.length cell + 4
          end)
        rest;
      finalize ();
      t.height_ <- t.height_ + 1;
      build_level (List.rev !parents)
  in
  let nodes = List.rev !leaves in
  t.height_ <- 1;
  t.root <- build_level nodes;
  save_meta t;
  t

(* --- invariant checking ----------------------------------------------- *)

let check_invariants ?(min_fill = 0.) t =
  let fail fmt = Format.kasprintf (fun s -> raise (Xqdb_error.Corrupt s)) fmt in
  let capacity = Disk.page_size (Buffer_pool.disk t.pool) - Page.header_size in
  let min_live = int_of_float (min_fill *. float_of_int capacity) in
  let leaf_list = ref [] in
  (* Returns (leaf depth, number of keys). *)
  let rec walk pid lo hi =
    Buffer_pool.with_page t.pool pid (fun p ->
        let n = Page.slot_count p in
        (* Occupancy bounds: no node overflows its page, and — when the
           caller asserts a fill floor, as the insert-only workload tests
           do — every non-root node carries at least [min_fill] of the
           usable page.  (No unconditional floor: lazy deletion may
           legally empty a leaf.) *)
        let live = Page.live_bytes p in
        if live > capacity then fail "page %d overflows: %d live of %d" pid live capacity;
        if pid <> t.root && live < min_live then
          fail "page %d underfull: %d live bytes < required %d" pid live min_live;
        let check_bounds key =
          (match lo with
           | Some l when Bytes.compare key l < 0 ->
             fail "key below subtree lower bound on page %d" pid
           | Some _ | None -> ());
          match hi with
          | Some h when Bytes.compare key h >= 0 ->
            fail "key above subtree upper bound on page %d" pid
          | Some _ | None -> ()
        in
        if Page.flags p = kind_leaf then begin
          leaf_list := pid :: !leaf_list;
          let prev = ref None in
          for i = 0 to n - 1 do
            let key = leaf_key p i in
            check_bounds key;
            (match !prev with
             | Some k when Bytes.compare k key >= 0 -> fail "unsorted leaf %d" pid
             | Some _ | None -> ());
            prev := Some key
          done;
          (1, n)
        end
        else begin
          let seps = Array.init n (internal_key p) in
          Array.iteri
            (fun i sep ->
              check_bounds sep;
              if i > 0 && Bytes.compare seps.(i - 1) sep >= 0 then
                fail "unsorted internal node %d" pid)
            seps;
          let children =
            Page.next p
            :: List.init n (internal_child_at p)
          in
          let bounds i =
            let l = if i = 0 then lo else Some seps.(i - 1) in
            let h = if i = n then hi else Some seps.(i) in
            (l, h)
          in
          let depths_counts =
            List.mapi
              (fun i child ->
                let l, h = bounds i in
                walk child l h)
              children
          in
          let depths = List.map fst depths_counts in
          (match depths with
           | d :: rest when List.for_all (Int.equal d) rest -> ()
           | _ -> fail "unbalanced subtree under page %d" pid);
          let keys = List.fold_left (fun acc (_, c) -> acc + c) 0 depths_counts in
          (List.nth depths 0 + 1, keys)
        end)
  in
  let depth, keys = walk t.root None None in
  if depth <> t.height_ then fail "height mismatch: meta %d, actual %d" t.height_ depth;
  if keys <> t.count then fail "count mismatch: meta %d, actual %d" t.count keys;
  (* Leaf chain must visit exactly the leaves found by the walk, left to
     right. *)
  let chain = ref [] in
  let rec follow pid =
    if pid <> 0 then begin
      chain := pid :: !chain;
      follow (Buffer_pool.with_page t.pool pid Page.next)
    end
  in
  (match List.rev !leaf_list with
   | leftmost :: _ -> follow leftmost
   | [] -> ());
  if not (List.equal Int.equal (List.rev !chain) (List.rev !leaf_list)) then
    fail "leaf chain does not match tree walk";
  if List.length !leaf_list <> t.leaves then
    fail "leaf count mismatch: meta %d, actual %d" t.leaves (List.length !leaf_list)
