(** B+-trees over variable-length byte keys and values.

    Keys compare by unsigned lexicographic byte order — use
    {!Bytes_codec}'s order-preserving key encoders to build composite
    keys.  Keys are unique; inserting an existing key replaces its value.
    Leaves are chained left-to-right, so range scans are sequential.

    Milestone 4 builds three of these per document: the clustered primary
    index on [in] (tuples stored in the leaves), the label index on
    [(type, value, in)] and the parent index on [(parent_in, in)].
    Students' "creative workaround" — sorting by inserting into a
    clustered B-tree — is {!of_cursor} plus a full scan.

    Deletion is lazy (no rebalancing): the course kept updates minimal,
    and bulk-load-then-query is the only write pattern the system needs.

    Each tree owns a meta page recording the root and entry count, so a
    tree can be reopened from just that page id (via the {!Catalog}). *)

type t

val create : Buffer_pool.t -> t
val open_existing : Buffer_pool.t -> meta_page:int -> t
val meta_page : t -> int

val entry_count : t -> int
val height : t -> int
(** 1 for a lone leaf. *)

val leaf_pages : t -> int
(** Number of leaf pages, from meta statistics (maintained on split). *)

val insert : t -> key:bytes -> value:bytes -> unit
(** @raise Invalid_argument if the cell exceeds a quarter page. *)

val find : t -> key:bytes -> bytes option

val delete : t -> key:bytes -> bool
(** Lazy delete; [true] if the key was present. *)

(** {2 Scans}

    Every scan pins each page once per visit: the descent pins one node
    per level and copies out the first leaf's qualifying cells inside
    that leaf's own pin; each later pull of a page cursor pins the next
    leaf once and copies out, inside that single [with_page] window, its
    cells up to the scan's end.  The row cursors serve those copies from
    memory, so a consumer's pace does not change which pages are read.
    Each descent level and each later leaf visit counts one
    [btree.node_reads]: a scan over [k] leaves costs [height + k - 1]. *)

val scan_range_pages :
  ?lo:bytes -> ?hi:bytes -> t -> unit -> (bytes * bytes) array option
(** Page cursor over entries with [lo <= key <= hi] (both inclusive,
    both optional) in key order: each pull returns the qualifying cells
    of one leaf, never an empty array.  The batch scan operators are
    built on this. *)

val scan_prefix_pages : t -> prefix:bytes -> unit -> (bytes * bytes) array option
(** Page cursor over the entries whose key starts with [prefix]. *)

val scan_range : ?lo:bytes -> ?hi:bytes -> t -> unit -> (bytes * bytes) option
(** {!scan_range_pages}, one entry per pull. *)

val scan_prefix : t -> prefix:bytes -> unit -> (bytes * bytes) option
(** {!scan_prefix_pages}, one entry per pull. *)

(** {2 Forward reader}

    A run that reads many ranges in roughly ascending key order — output
    reconstruction, one [[in .. out]] range per result — keeps one
    reader.  It remembers the last leaf it read and that leaf's first
    and last key, so a range whose [lo] lies in that span starts there
    with one pin instead of a descent from the root. *)

type reader

val reader : t -> reader
(** A fresh reader with no leaf yet: its first range descends.  Owned
    by one run; never share it across domains. *)

val read_range : reader -> lo:bytes -> hi:bytes -> ((bytes * bytes) array -> unit) -> unit
(** [read_range r ~lo ~hi f] calls [f] on the cells with
    [lo <= key <= hi] of each leaf in turn, in key order (never with an
    empty array).  The bound is inclusive in the strong sense: a cell
    whose key equals [hi] ends the range and nothing after it is read,
    so a one-key range on the last cell of a leaf pins only that leaf.
    Otherwise the walk ends at the first key above [hi].  Costs [1]
    [btree.node_reads] when [lo] lies in the span of the reader's last
    leaf, else the tree's height, plus one per further leaf. *)

val iter : t -> (bytes -> bytes -> unit) -> unit
(** Every entry in key order, over the page walk. *)

val of_cursor : Buffer_pool.t -> (unit -> (bytes * bytes) option) -> t
(** Bulk-load from a cursor yielding entries in strictly increasing key
    order; builds packed leaves bottom-up.
    @raise Invalid_argument if keys are not strictly increasing. *)

(** {2 Node cells}

    What a node's slots hold, and the comparisons its searches run on
    them in place, without copying the key out.  Exposed for the
    property tests. *)

val leaf_cell : key:bytes -> value:bytes -> bytes
(** A leaf slot: [klen:u16 | key | value]. *)

val internal_cell : child:int -> key:bytes -> bytes
(** An internal slot: [child:u32 | key], the child holding the keys
    from [key] up to the next separator. *)

val compare_leaf_key : bytes -> int -> bytes -> int
(** [compare_leaf_key page i key] has the sign of [Bytes.compare k key],
    [k] being the key of leaf slot [i]. *)

val compare_internal_key : bytes -> int -> bytes -> int
(** The same for the separator of internal slot [i]. *)

val check_invariants : ?min_fill:float -> t -> unit
(** Walk the whole tree verifying key order, separator correctness,
    balance, meta accounting (entry and leaf counts) and leaf chaining;
    raises [Failure] with a diagnostic otherwise.  Used by the property
    tests.

    [min_fill] (a fraction of the usable page, default [0.]) additionally
    requires every non-root node to carry at least that many live bytes —
    a meaningful occupancy floor only for insert-only workloads, since
    lazy deletion may legally empty a leaf. *)
