(** The testbed's query sets.

    The paper: "For each engine and milestone, the correctness tests used
    all aforementioned XML documents and up to 16 complex XQ queries.
    These queries covered fairly all XQ constructs and combinations of
    them."  [public_queries] is such a set of 16.

    "For processing five secret XQ queries on the DBLP document ... We
    chose queries that admit query plans with costs varying by orders of
    magnitude ... The queries resemble in spirit the example query used
    in Section 2 to explain milestone 4."  [efficiency_queries] is such a
    set of 5, with the two specifics Figure 7 calls out: test 4 uses a
    non-existent node label, and test 5 has two nested, yet unrelated,
    for-loops whose joins have very different selectivities. *)

val public_queries : (string * string) list
(** (name, XQ source), 16 entries. *)

val efficiency_queries : (string * string) list
(** (name, XQ source), 5 entries, meant for DBLP-like data. *)

val example6 : string
(** The milestone-4 example query of Section 2 (authors of articles that
    have information on proceedings volume). *)

val deep_queries : (string * string) list
(** (name, XQ source), 3 entries, meant for Treebank-like data: a
    three-step descendant twig, a descendant pair and a descendant
    semijoin — the paths the structural index family answers with
    staircase and twig plans instead of per-outer probes. *)

val parsed : (string * string) list -> (string * Xqdb_xq.Xq_ast.query) list
