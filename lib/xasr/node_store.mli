(** Secondary storage for one shredded document.

    Milestone 2/4 storage layout, one Berkeley-DB-style keyed store per
    access path:

    - {b primary}: clustered B+-tree on [in], the whole tuple in the
      leaf.  [in] was "the natural choice" for the clustered primary
      index; range scans over [in] intervals enumerate subtrees in
      document order.
    - {b label index}: [(type, value, in)] — the access path behind
      index-based selection on element labels and text values.
    - {b parent index}: [(parent_in, in)] — the access path behind
      index-based nested-loop child joins.
    - {b structural index}: [(label, in)] keys carrying
      [(out, level, parent_in)] payloads — together the (label, pre,
      post, level) record of the structural-join literature, so
      staircase and twig operators stream whole element tuples per
      label without touching the primary.

    All cursors yield results in document order (ascending [in]). *)

type t

val create : Xqdb_storage.Buffer_pool.t -> name:string -> t
val name : t -> string
val pool : t -> Xqdb_storage.Buffer_pool.t

val register : t -> Xqdb_storage.Catalog.t -> stats:Doc_stats.t -> unit
(** Record the index meta pages and serialized statistics under
    ["<name>.*"] keys and flush the catalog. *)

val open_existing : Xqdb_storage.Buffer_pool.t -> Xqdb_storage.Catalog.t -> name:string -> t
val stats_of_catalog : Xqdb_storage.Catalog.t -> name:string -> Doc_stats.t

val registered_names : Xqdb_storage.Catalog.t -> string list
(** The documents registered in the catalog, sorted.  A document exists
    exactly when its ["<name>.stats.n"] chunk-count key does. *)

val unregister : Xqdb_storage.Catalog.t -> name:string -> unit
(** Remove every catalog key [register] wrote for [name] — index meta
    pages and all statistics chunks.  Does not flush. *)

val insert : t -> level:int -> Xasr.tuple -> unit
(** Insert into the primary and all secondary indexes.  [level] is the
    node's depth (root 0); it is persisted in the structural index for
    element nodes. *)

val tuple_count : t -> int

val fetch : t -> int -> Xasr.tuple option
(** Primary lookup by [in]. *)

val root_tuple : t -> Xasr.tuple
(** The virtual-root tuple ([in] = 1).  @raise Failure on an empty store. *)

val scan_in_range : t -> lo:int -> hi:int -> unit -> Xasr.tuple option
(** Clustered scan of tuples with [lo <= in <= hi], in document order. *)

type reader
(** A {!Xqdb_storage.Btree.reader} over the primary index: one per run. *)

val reader : t -> reader

val read_range : reader -> lo:int -> hi:int -> (Xasr.tuple -> unit) -> unit
(** [read_range r ~lo ~hi f] calls [f] on each tuple with
    [lo <= in <= hi], in document order, through the reader: a tuple
    with [in = hi] ends the range (nothing after it is read), and a
    range starting on the reader's last leaf pins no inner node. *)

val scan_all : t -> unit -> Xasr.tuple option

val scan_all_pages : t -> unit -> Xasr.tuple array option
(** Page-at-a-time variant of {!scan_all}: each pull pins one primary
    leaf once and decodes all its tuples (never an empty array).
    Document order across pulls. *)

val children_ins : t -> int -> unit -> int option
(** [in]s of the children of the node with the given [in], via the
    parent index, in document order. *)

val label_ins_pages : t -> Xasr.node_type -> string -> unit -> int array option
(** [in]s of all nodes with the given type and value, via the label
    index, in document order: each pull returns one leaf's worth. *)

val struct_stream : t -> string -> unit -> Xasr.tuple option
(** Full element tuples with the given label, streamed from the
    structural index alone in document order — no primary fetches. *)

val struct_stream_pages : t -> string -> unit -> Xasr.tuple array option
(** Page-at-a-time variant of {!struct_stream}. *)

val struct_entry_count : t -> int

val check_invariants : ?min_fill:float -> t -> unit
(** Run {!Xqdb_storage.Btree.check_invariants} over the primary and all
    secondary indexes, then rescan the primary and require the
    structural index to agree entry-for-entry with a from-scratch
    rebuild (same (out, level, parent) per element, equal counts) — the
    structural oracle the crash-recovery harness applies to every
    recovered document.
    @raise Xqdb_storage.Xqdb_error.Corrupt on any violation. *)

(* Index shape, for the cost model. *)
val primary_height : t -> int
val primary_leaf_pages : t -> int
val label_index_height : t -> int
val parent_index_height : t -> int
val struct_index_height : t -> int
val struct_leaf_pages : t -> int
