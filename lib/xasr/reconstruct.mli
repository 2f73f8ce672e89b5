(** Rebuilding XML trees from XASR tuples.

    The paper: "XML documents stored using this schema can be
    reconstructed, because (1) the child relation is preserved by the
    parent_in values, and (2) the order of the children of a node is
    preserved by the in/out values."

    A subtree is rebuilt from one clustered range scan
    [in .. out] — the interval property makes the scan contain exactly
    the subtree, in document order — using a stack, in one pass. *)

val subtree : Node_store.t -> Xasr.tuple -> Xqdb_xml.Xml_tree.node
(** @raise Invalid_argument on the virtual root (use {!root_forest}). *)

val root_forest : Node_store.t -> Xqdb_xml.Xml_tree.forest
(** The whole document (children of the virtual root). *)

val write_range : Node_store.reader -> Buffer.t -> lo:int -> hi:int -> unit
(** Serialize the nodes with [lo <= in <= hi] straight from the primary
    index's leaf cells into [buf], in the canonical form of
    {!Xqdb_xml.Xml_print}, keeping only a stack of open
    [(label, out)] pairs — no tree is built.  [[in .. out - 1]] of a
    node is its subtree; [[2 .. out - 1]] of the virtual root is the
    whole document.  An element with [out = in + 1] has no children and
    prints as [<l/>]; the virtual-root tuple itself prints nothing. *)
