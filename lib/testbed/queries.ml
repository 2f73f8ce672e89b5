let public_queries =
  [ ("q01-empty", "()");
    ("q02-constructors", "<report><head>status</head><body>{ () }</body></report>");
    ("q03-root-child", "for $x in /dblp return <found/>");
    ("q04-desc-path", "for $t in //title return $t");
    ("q05-star-and-text", "for $x in //article return for $c in $x/* return <c>{ $c/text() }</c>");
    ("q06-nested-for", "<names>{ for $j in //journal return for $n in $j//name return $n }</names>");
    ("q07-constructor-between",
     "for $j in //journal return <j>{ for $n in $j//name return $n }</j>");
    ("q08-if-some", "for $x in //article return if (some $v in $x/volume satisfies true()) then $x/title else ()");
    ("q09-eq-const",
     "for $n in //name return for $t in $n/text() return if ($t = \"Ana\") then <ana/> else ()");
    ("q10-eq-vars",
     "for $a in //author return for $b in //name return if (some $ta in $a/text() satisfies (some $tb in $b/text() satisfies $ta = $tb)) then <match/> else ()");
    ("q11-and-or",
     "for $x in //book return if ((some $a in $x/author satisfies true()) and ((some $t in $x/title satisfies true()) or (some $y in $x/year satisfies true()))) then $x/title else ()");
    ("q12-not",
     "for $x in //article return if (not(some $v in $x/volume satisfies true())) then <novolume/> else ()");
    ("q13-multistep", "for $w in /dblp/article/author return $w");
    ("q14-deep-descendant", "for $np in //NP return for $n in $np//NN return $n");
    ("q15-sequence",
     "(for $v in //volume return $v), <sep/>, (for $n in //name return $n), text { \"end\" }");
    ("q16-mixed",
     "<summary>{ for $x in //article return if (some $v in $x/volume satisfies true()) then <hit>{ for $a in $x/author return $a, $x/volume }</hit> else () }</summary>") ]

let efficiency_queries =
  [ (* Everyone finishes; the optimized engines are just faster. *)
    ("test1-structural",
     "<titles>{ for $x in //article return for $t in $x/title return $t }</titles>");
    (* A rare label: index-based selection answers from a handful of
       probes; engines without the label index scan the whole relation. *)
    ("test2-needle", "for $v in //volume return for $t in $v/text() return $t");
    (* Example 6 at scale, written in the order that hurts structural
       planners: the highly selective volume-value test comes
       syntactically last, so engines that cannot reorder existential
       relations pay the author join for every article. *)
    ("test3-semijoin",
     "for $x in //article return for $y in $x//author return if ((some $v in $x/volume satisfies true()) and (some $d in //inproceedings satisfies true())) then $y else ()");
    (* Non-existent node label: statistics/index engines answer from the
       label lookup alone. *)
    ("test4-nolabel", "for $x in //proceedings return for $y in $x//cite return $y");
    (* Two nested, yet unrelated, for-loops: two joins with very
       different selectivities — the volume test is rare-but-satisfiable,
       the other loop searches every author for a child label that never
       occurs.  Exact statistics prove the second join empty; an engine
       with unlucky (inverted) estimates, or none, grinds through the
       author x probe product for every article. *)
    ("test5-unrelated",
     "for $x in //article return if ((some $v in $x/volume satisfies true()) and (some $y in //author satisfies (some $q in $y/text() satisfies $q = \"Erds Renyi\"))) then $x/title else ()") ]

let example6 =
  "for $x in //article return if (some $v in $x/volume satisfies true()) then (for $y in \
   $x//author return $y) else ()"

let deep_queries =
  [ ("deep-twig", "for $s in //S return for $np in $s//NP return for $nn in $np//NN return $nn");
    ("deep-pair", "for $np in //NP return for $nn in $np//NN return $nn");
    ("deep-semi",
     "for $np in //NP return if (some $vb in $np//VB satisfies true()) then <hit/> else ()") ]

let parsed queries =
  List.map (fun (name, src) -> (name, Xqdb_xq.Xq_parser.parse src)) queries
