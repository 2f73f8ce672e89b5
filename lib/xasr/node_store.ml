module Storage = Xqdb_storage
module Btree = Storage.Btree
module Codec = Storage.Bytes_codec

type t = {
  pool : Storage.Buffer_pool.t;
  name : string;
  primary : Btree.t;
  label_idx : Btree.t;
  parent_idx : Btree.t;
  struct_idx : Btree.t;
}

let create pool ~name =
  { pool;
    name;
    primary = Btree.create pool;
    label_idx = Btree.create pool;
    parent_idx = Btree.create pool;
    struct_idx = Btree.create pool }

let name t = t.name
let pool t = t.pool

(* The serialized statistics embed the path summary, whose size scales
   with the document's distinct label paths — far past one page on deep
   documents.  Catalog records must each fit a page, so the blob is
   split into page-bounded chunks under [name.stats.<i>], with the
   chunk count under [name.stats.n]. *)
let stats_chunk_size t =
  max 64 (Storage.Disk.page_size (Storage.Buffer_pool.disk t.pool) / 4)

let register t catalog ~stats =
  let module C = Storage.Catalog in
  C.set_int catalog (t.name ^ ".primary") (Btree.meta_page t.primary);
  C.set_int catalog (t.name ^ ".label") (Btree.meta_page t.label_idx);
  C.set_int catalog (t.name ^ ".parent") (Btree.meta_page t.parent_idx);
  C.set_int catalog (t.name ^ ".struct") (Btree.meta_page t.struct_idx);
  let blob = Doc_stats.serialize stats in
  let chunk = stats_chunk_size t in
  let chunks = (String.length blob + chunk - 1) / chunk in
  for i = 0 to chunks - 1 do
    let off = i * chunk in
    let len = min chunk (String.length blob - off) in
    C.set catalog (Printf.sprintf "%s.stats.%d" t.name i) (String.sub blob off len)
  done;
  C.set_int catalog (t.name ^ ".stats.n") chunks;
  C.bump_epoch catalog;
  C.flush catalog

let open_existing pool catalog ~name =
  let module C = Storage.Catalog in
  let meta key =
    match C.get_int catalog (name ^ key) with
    | Some page -> page
    | None -> Storage.Xqdb_error.corrupt "Node_store.open_existing: no %s%s in catalog" name key
  in
  { pool;
    name;
    primary = Btree.open_existing pool ~meta_page:(meta ".primary");
    label_idx = Btree.open_existing pool ~meta_page:(meta ".label");
    parent_idx = Btree.open_existing pool ~meta_page:(meta ".parent");
    struct_idx = Btree.open_existing pool ~meta_page:(meta ".struct") }

(* The chunk-count key doubles as the registration marker: a document
   exists exactly when [name.stats.n] does, and it is the last thing
   [register] sets before flushing. *)
let stats_count_suffix = ".stats.n"

let registered_names catalog =
  let module C = Storage.Catalog in
  let suffix_len = String.length stats_count_suffix in
  List.filter_map
    (fun (key, _) ->
      let n = String.length key in
      if n > suffix_len
         && String.equal (String.sub key (n - suffix_len) suffix_len) stats_count_suffix
      then Some (String.sub key 0 (n - suffix_len))
      else None)
    (C.entries catalog)
  |> List.sort String.compare

let unregister catalog ~name =
  let module C = Storage.Catalog in
  (match C.get_int catalog (name ^ stats_count_suffix) with
  | Some chunks ->
    for i = 0 to chunks - 1 do
      C.remove catalog (Printf.sprintf "%s.stats.%d" name i)
    done
  | None -> ());
  List.iter
    (fun suffix -> C.remove catalog (name ^ suffix))
    [".primary"; ".label"; ".parent"; ".struct"; stats_count_suffix];
  C.bump_epoch catalog

let stats_of_catalog catalog ~name =
  let module C = Storage.Catalog in
  match C.get_int catalog (name ^ ".stats.n") with
  | Some chunks ->
    let buf = Buffer.create 256 in
    for i = 0 to chunks - 1 do
      match C.get catalog (Printf.sprintf "%s.stats.%d" name i) with
      | Some s -> Buffer.add_string buf s
      | None ->
        Storage.Xqdb_error.corrupt "Node_store.stats_of_catalog: %s stats chunk %d missing"
          name i
    done;
    Doc_stats.deserialize (Buffer.contents buf)
  | None ->
    Storage.Xqdb_error.corrupt "Node_store.stats_of_catalog: no stats for %s" name

let insert t ~level tuple =
  Btree.insert t.primary ~key:(Xasr.primary_key tuple.Xasr.nin) ~value:(Xasr.encode tuple);
  Btree.insert t.label_idx
    ~key:(Xasr.label_key tuple.Xasr.ntype tuple.Xasr.value tuple.Xasr.nin)
    ~value:Bytes.empty;
  Btree.insert t.parent_idx
    ~key:(Xasr.parent_key tuple.Xasr.parent_in tuple.Xasr.nin)
    ~value:Bytes.empty;
  match tuple.Xasr.ntype with
  | Xasr.Root | Xasr.Text -> ()
  | Xasr.Element ->
    Btree.insert t.struct_idx
      ~key:(Xasr.struct_key tuple.Xasr.value tuple.Xasr.nin)
      ~value:
        (Xasr.encode_struct
           { Xasr.s_nout = tuple.Xasr.nout;
             s_level = level;
             s_parent_in = tuple.Xasr.parent_in })

let tuple_count t = Btree.entry_count t.primary

let fetch t nin =
  Option.map Xasr.decode (Btree.find t.primary ~key:(Xasr.primary_key nin))

let root_tuple t =
  match fetch t 1 with
  | Some tuple -> tuple
  | None -> Storage.Xqdb_error.corrupt "Node_store.root_tuple: empty store"

let scan_in_range t ~lo ~hi =
  let cursor =
    Btree.scan_range ~lo:(Xasr.primary_key lo) ~hi:(Xasr.primary_key hi) t.primary
  in
  fun () -> Option.map (fun (_, v) -> Xasr.decode v) (cursor ())

type reader = Btree.reader

let reader t = Btree.reader t.primary

let read_range r ~lo ~hi f =
  Btree.read_range r ~lo:(Xasr.primary_key lo) ~hi:(Xasr.primary_key hi)
    (Array.iter (fun (_, v) -> f (Xasr.decode v)))

let scan_all t =
  let cursor = Btree.scan_range t.primary in
  fun () -> Option.map (fun (_, v) -> Xasr.decode v) (cursor ())

(* Page-at-a-time cursors: one pull decodes every qualifying entry of
   one leaf page, pinned once.  These feed the batch scan operators. *)

let decode_page cells = Array.map (fun (_, v) -> Xasr.decode v) cells

let scan_all_pages t =
  let cursor = Btree.scan_range_pages t.primary in
  fun () -> Option.map decode_page (cursor ())

let children_ins t parent_in =
  let cursor = Btree.scan_prefix t.parent_idx ~prefix:(Xasr.parent_prefix parent_in) in
  fun () -> Option.map (fun (k, _) -> Xasr.in_of_parent_key k) (cursor ())

let label_ins_pages t ntype value =
  let cursor =
    Btree.scan_prefix_pages t.label_idx ~prefix:(Xasr.label_prefix ntype value)
  in
  fun () -> Option.map (Array.map (fun (k, _) -> Xasr.in_of_label_key k)) (cursor ())

let struct_tuple label key data =
  let nin = Xasr.in_of_struct_key key in
  let e = Xasr.decode_struct data in
  { Xasr.nin;
    nout = e.Xasr.s_nout;
    parent_in = e.Xasr.s_parent_in;
    ntype = Xasr.Element;
    value = label }

let struct_stream t label =
  let cursor = Btree.scan_prefix t.struct_idx ~prefix:(Xasr.struct_prefix label) in
  fun () -> Option.map (fun (k, v) -> struct_tuple label k v) (cursor ())

let struct_stream_pages t label =
  let cursor = Btree.scan_prefix_pages t.struct_idx ~prefix:(Xasr.struct_prefix label) in
  fun () -> Option.map (Array.map (fun (k, v) -> struct_tuple label k v)) (cursor ())

let struct_entry_count t = Btree.entry_count t.struct_idx

(* Every element of the primary must have a structural entry agreeing on
   (out, level, parent); equal entry counts rule out extras.  This is
   the "agrees with a from-scratch rebuild" oracle the crash sweep runs
   over recovered stores. *)
let check_struct_agreement t =
  let next = scan_all t in
  (* Open-element stack, innermost first: nout per open ancestor. *)
  let stack = ref [] in
  let elements = ref 0 in
  let rec pop_closed nin =
    match !stack with
    | nout :: rest when nout < nin ->
      stack := rest;
      pop_closed nin
    | _ -> ()
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some tuple ->
      pop_closed tuple.Xasr.nin;
      (match tuple.Xasr.ntype with
      | Xasr.Root | Xasr.Text -> ()
      | Xasr.Element ->
        incr elements;
        let level = List.length !stack + 1 in
        (match Btree.find t.struct_idx ~key:(Xasr.struct_key tuple.Xasr.value tuple.Xasr.nin) with
        | None ->
          Storage.Xqdb_error.corrupt "Node_store.check_invariants: %s: element (%s, in %d) missing from struct index"
            t.name tuple.Xasr.value tuple.Xasr.nin
        | Some data ->
          let e = Xasr.decode_struct data in
          let nout = e.Xasr.s_nout and elevel = e.Xasr.s_level
          and eparent = e.Xasr.s_parent_in in
          if nout <> tuple.Xasr.nout || elevel <> level || eparent <> tuple.Xasr.parent_in
          then
            Storage.Xqdb_error.corrupt
              "Node_store.check_invariants: %s: struct entry (%s, in %d) disagrees: \
               (out %d, level %d, parent %d) vs primary (out %d, level %d, parent %d)"
              t.name tuple.Xasr.value tuple.Xasr.nin nout elevel eparent tuple.Xasr.nout
              level tuple.Xasr.parent_in);
        stack := tuple.Xasr.nout :: !stack);
      loop ()
  in
  loop ();
  let entries = struct_entry_count t in
  let elements = !elements in
  if entries <> elements then
    Storage.Xqdb_error.corrupt "Node_store.check_invariants: %s: struct index has %d entries for %d elements"
      t.name entries elements

let check_invariants ?min_fill t =
  Btree.check_invariants ?min_fill t.primary;
  Btree.check_invariants ?min_fill t.label_idx;
  Btree.check_invariants ?min_fill t.parent_idx;
  Btree.check_invariants ?min_fill t.struct_idx;
  check_struct_agreement t

let primary_height t = Btree.height t.primary
let primary_leaf_pages t = Btree.leaf_pages t.primary
let label_index_height t = Btree.height t.label_idx
let parent_index_height t = Btree.height t.parent_idx
let struct_index_height t = Btree.height t.struct_idx
let struct_leaf_pages t = Btree.leaf_pages t.struct_idx
