(** Milestone 2: the navigational XQ evaluator over secondary storage.

    Evaluates XQ directly against the {!Node_store}, never building the
    document tree: at any moment only the current variable bindings (one
    tuple each) are held in memory — possible because XQ variables
    always bind to single nodes.

    Axis steps become index accesses:
    - child: a parent-index prefix scan on the binding's [in];
    - descendant: a clustered primary range scan over ([in], [out]).

    Comparisons follow the paper's restriction: non-text operands raise
    {!Xqdb_xq.Xq_eval.Type_error}.

    The optional [budget]'s deadline and time cap are polled once per
    cursor pull, which is what lets a server time out runaway
    evaluations.  Its page-I/O cap is enforced by the buffer pool under
    the caller's {!Xqdb_storage.Budget.run}. *)

module Xq_ast := Xqdb_xq.Xq_ast

type env = (Xq_ast.var * Xasr.tuple) list

val axis_cursor :
  Node_store.t ->
  Xasr.tuple ->
  Xq_ast.axis ->
  Xq_ast.nodetest ->
  unit ->
  Xasr.tuple option
(** Matching nodes one step from the binding, in document order. *)

val eval_cond :
  ?budget:Xqdb_storage.Budget.t -> Node_store.t -> env -> Xq_ast.cond -> bool

val eval :
  ?budget:Xqdb_storage.Budget.t -> Node_store.t -> Xq_ast.query -> Xqdb_xml.Xml_tree.forest

val eval_string : ?budget:Xqdb_storage.Budget.t -> Node_store.t -> Xq_ast.query -> string
