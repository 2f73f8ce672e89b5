module A = Xqdb_tpm.Tpm_algebra
module Xasr = Xqdb_xasr.Xasr
module Path_summary = Xqdb_xasr.Path_summary
module Op = Xqdb_physical.Phys_op
module Tuple = Xqdb_physical.Tuple

type order_strategy =
  [ `Preserve
  | `Mem_sort
  | `Ext_sort
  | `Btree_sort ]

type config = {
  use_indexes : bool;
  use_struct : bool;
  cost_based : bool;
  order : order_strategy;
  materialize : [`Disk | `Mem];
  carry_out : bool;
}

let m3_config =
  { use_indexes = false; use_struct = false; cost_based = false; order = `Preserve;
    materialize = `Disk; carry_out = true }

let m4_config =
  { use_indexes = true; use_struct = true; cost_based = true; order = `Preserve;
    materialize = `Mem; carry_out = true }

type join_kind =
  | First
  | Nl of A.pred list
  | Inl_child of A.operand
  | Inl_desc of A.operand * A.operand
  | Inl_pk of A.operand
  | Struct_desc of string * A.operand * A.operand

type step = {
  alias : string;
  access : access;
  join : join_kind;
  local : A.pred list;
  residual : A.pred list;
  semijoin_keep : A.col list option;
  est_card : float;
  est_cost : float;
}

and access =
  | Full_scan
  | Label_scan of Xasr.node_type * string
  | Struct_scan of string

type twig_step = {
  tw_alias : string;
  tw_label : string;
  tw_axis : Path_summary.axis;
  tw_card : float;
  tw_cost : float;
}

type twig = {
  tw_anchor : (A.operand * A.operand) option;
  tw_steps : twig_step list;
}

type t = {
  config : config;
  steps : step list;
  twig : twig option;
  sort_cols : A.col list;
  out_cols : A.col list;
  est_cost : float;
  est_card : float;
  provably_empty : bool;
}

type env = Xqdb_xq.Xq_ast.var -> int * int

(* --- predicate classification ------------------------------------------ *)

let is_col_of aliases = function
  | A.Ocol c -> List.mem c.A.rel aliases
  | A.Oint _ | A.Ostr _ | A.Otype _ | A.Oextern_in _ | A.Oextern_out _ -> false

(* A predicate is available once all aliases it mentions are placed. *)
let available placed p = List.for_all (fun r -> List.mem r placed) (A.pred_rels p)

let mentions alias p = List.mem alias (A.pred_rels p)

(* Predicates on alias [a] alone (constants/externs allowed). *)
let local_preds psx a =
  List.filter (fun p -> A.pred_rels p = [a] || A.pred_rels p = [a; a]) psx.A.preds

(* Predicates newly available when placing [a] after [placed], excluding
   [a]'s local ones. *)
let connecting_preds psx placed a =
  List.filter
    (fun p ->
      mentions a p
      && (not (A.pred_rels p = [a] || A.pred_rels p = [a; a]))
      && available (a :: placed) p)
    psx.A.preds

(* --- feature extraction on local predicates ----------------------------- *)

type features = {
  ntype : Xasr.node_type option;
  value : string option;
  pk : bool;  (* in = const *)
  parent_const : bool;  (* parent_in = const *)
  range_lo : A.operand option;  (* lo < in *)
  range_hi : A.operand option;  (* out < hi *)
}

let is_const = function
  | A.Oint _ | A.Ostr _ | A.Otype _ | A.Oextern_in _ | A.Oextern_out _ -> true
  | A.Ocol _ -> false

let features_of alias preds =
  let init =
    { ntype = None; value = None; pk = false; parent_const = false; range_lo = None;
      range_hi = None }
  in
  let this field = function
    | A.Ocol c -> String.equal c.A.rel alias && c.A.field = field
    | A.Oint _ | A.Ostr _ | A.Otype _ | A.Oextern_in _ | A.Oextern_out _ -> false
  in
  List.fold_left
    (fun f (p : A.pred) ->
      match p.A.op with
      | A.Eq ->
        if this A.Type_ p.A.left then
          (match p.A.right with A.Otype ty -> { f with ntype = Some ty } | _ -> f)
        else if this A.Type_ p.A.right then
          (match p.A.left with A.Otype ty -> { f with ntype = Some ty } | _ -> f)
        else if this A.Value p.A.left then
          (match p.A.right with A.Ostr v -> { f with value = Some v } | _ -> f)
        else if this A.Value p.A.right then
          (match p.A.left with A.Ostr v -> { f with value = Some v } | _ -> f)
        else if this A.In p.A.left && is_const p.A.right then { f with pk = true }
        else if this A.In p.A.right && is_const p.A.left then { f with pk = true }
        else if this A.Parent_in p.A.left && is_const p.A.right then
          { f with parent_const = true }
        else if this A.Parent_in p.A.right && is_const p.A.left then
          { f with parent_const = true }
        else f
      | A.Lt ->
        (* x < a.in ; a.out < y *)
        if this A.In p.A.right && is_const p.A.left then { f with range_lo = Some p.A.left }
        else if this A.Out p.A.left && is_const p.A.right then
          { f with range_hi = Some p.A.right }
        else f
      | A.Gt ->
        if this A.In p.A.left && is_const p.A.right then { f with range_lo = Some p.A.right }
        else if this A.Out p.A.right && is_const p.A.left then
          { f with range_hi = Some p.A.left }
        else f)
    init preds

(* --- cardinality estimation -------------------------------------------- *)

let base_card stats feats =
  let n = Stats.node_count stats in
  let typed =
    match feats.ntype, feats.value with
    | Some Xasr.Element, Some v -> Stats.label_card stats v
    | Some Xasr.Element, None -> Stats.elem_count stats
    | Some Xasr.Text, Some v -> Stats.text_value_card stats v
    | Some Xasr.Text, None -> Stats.text_count stats
    | Some Xasr.Root, _ -> 1.0
    | None, Some v -> Stats.label_card stats v +. Stats.text_value_card stats v
    | None, None -> n
  in
  let frac = typed /. n in
  if feats.pk then Float.min 1.0 typed
  else if feats.parent_const then Stats.avg_fanout stats *. frac
  else if feats.range_lo <> None || feats.range_hi <> None then begin
    (* Descendants of one node; of the root, the whole document — but an
       engine that trusts a canned average depth (Unlucky) prices every
       descendant step as a tiny subtree, root included. *)
    match feats.range_lo with
    | Some (A.Oint 1) when Stats.quality stats = Stats.Good -> typed
    | Some _ | None -> Stats.avg_depth stats *. frac
  end
  else typed

(* Selectivity of one join predicate, given both sides placed. *)
let join_pred_selectivity stats (p : A.pred) =
  let n = Stats.node_count stats in
  let field_of = function
    | A.Ocol c -> Some c.A.field
    | A.Oint _ | A.Ostr _ | A.Otype _ | A.Oextern_in _ | A.Oextern_out _ -> None
  in
  match p.A.op, field_of p.A.left, field_of p.A.right with
  | A.Eq, Some A.Parent_in, Some A.In | A.Eq, Some A.In, Some A.Parent_in -> 1.0 /. n
  | A.Eq, Some A.In, Some A.In -> 1.0 /. n
  | A.Eq, Some A.Value, Some A.Value -> 0.01
  | (A.Lt | A.Gt), Some (A.In | A.Out), Some (A.In | A.Out) ->
    (* Half of an ancestor-descendant pair; the pair together contributes
       avg_depth / n. *)
    Float.sqrt (Stats.avg_depth stats /. n)
  | (A.Eq | A.Lt | A.Gt), _, _ -> 0.5

(* --- per-path structural edges ------------------------------------------ *)

(* The label alias [a] selects on, when its local predicates pin it to
   one element label — the precondition for every per-path estimate. *)
let element_label psx a =
  let feats = features_of a (local_preds psx a) in
  match feats.ntype, feats.value with
  | Some Xasr.Element, Some v -> Some v
  | _ -> None

(* Classify a column-column predicate relative to alias [a]: the two
   halves of a descendant interval ([b.in < a.in], [a.out < b.out]) and
   the child equality ([a.parent_in = b.in]), each with the partner
   alias.  [Gt] is normalized to [Lt]. *)
let edge_of a (p : A.pred) =
  match p.A.op, p.A.left, p.A.right with
  | A.Lt, A.Ocol l, A.Ocol r | A.Gt, A.Ocol r, A.Ocol l ->
    if
      String.equal r.A.rel a && r.A.field = A.In && l.A.field = A.In
      && not (String.equal l.A.rel a)
    then `Lo l.A.rel
    else if
      String.equal l.A.rel a && l.A.field = A.Out && r.A.field = A.Out
      && not (String.equal r.A.rel a)
    then `Hi r.A.rel
    else `Other
  | A.Eq, A.Ocol l, A.Ocol r ->
    if
      String.equal l.A.rel a && l.A.field = A.Parent_in && r.A.field = A.In
      && not (String.equal r.A.rel a)
    then `Child r.A.rel
    else if
      String.equal r.A.rel a && r.A.field = A.Parent_in && l.A.field = A.In
      && not (String.equal l.A.rel a)
    then `Child l.A.rel
    else `Other
  | (A.Eq | A.Lt | A.Gt), _, _ -> `Other

(* Structural edges among [preds] where [a] is the descendant (or child)
   side and both endpoints have known labels: the predicates the edge
   spans, plus the labelled relationship. *)
let labelled_edges psx a preds =
  match element_label psx a with
  | None -> []
  | Some la ->
    let lo =
      List.filter_map
        (fun p ->
          match edge_of a p with `Lo b -> Some (p, b) | `Hi _ | `Child _ | `Other -> None)
        preds
    and hi =
      List.filter_map
        (fun p ->
          match edge_of a p with `Hi b -> Some (p, b) | `Lo _ | `Child _ | `Other -> None)
        preds
    and child =
      List.filter_map
        (fun p ->
          match edge_of a p with `Child b -> Some (p, b) | `Lo _ | `Hi _ | `Other -> None)
        preds
    in
    let desc =
      List.filter_map
        (fun (plo, b) ->
          match
            List.find_opt (fun ((_ : A.pred), b') -> String.equal b b') hi,
            element_label psx b
          with
          | Some (phi, _), Some lb -> Some ([plo; phi], `Desc (lb, la))
          | (Some _ | None), _ -> None)
        lo
    and childs =
      List.filter_map
        (fun (p, b) ->
          match element_label psx b with
          | Some lb -> Some ([p], `Child_of (lb, la))
          | None -> None)
        child
    in
    desc @ childs

let edge_pair_card stats = function
  | `Desc (anc, desc) -> Stats.desc_pair_card stats ~anc ~desc
  | `Child_of (parent, child) -> Stats.child_pair_card stats ~parent ~child

(* Selectivity of the connecting predicates when placing [a].  Where a
   structural edge carries known labels on both ends, the exact per-path
   pair count replaces the depth heuristics (Good statistics only — the
   pair estimators return [None] under Unlucky); everything else keeps
   {!join_pred_selectivity}. *)
let connecting_selectivity stats psx a connecting =
  let generic acc p = acc *. join_pred_selectivity stats p in
  let exact =
    List.find_map
      (fun (handled, edge) ->
        match edge_pair_card stats edge with
        | None -> None
        | Some pairs ->
          let (`Desc (lb, la) | `Child_of (lb, la)) = edge in
          let denom =
            Float.max 1.0 (Stats.label_card stats la)
            *. Float.max 1.0 (Stats.label_card stats lb)
          in
          Some (handled, pairs /. denom))
      (labelled_edges psx a connecting)
  in
  match exact with
  | None -> List.fold_left generic 1.0 connecting
  | Some (handled, sel) ->
    List.fold_left (fun acc p -> if List.memq p handled then acc else generic acc p) sel
      connecting

(* --- cost model --------------------------------------------------------- *)

let access_cost stats access feats =
  match access with
  | Full_scan -> Stats.primary_leaf_pages stats
  | Label_scan (ntype, value) ->
    let matches =
      match ntype with
      | Xasr.Element -> Stats.label_card stats value
      | Xasr.Text -> Stats.text_value_card stats value
      | Xasr.Root -> 1.0
    in
    ignore feats;
    Stats.label_height stats
    +. (matches /. (3.0 *. Stats.tuples_per_page stats))
    +. (matches *. Stats.primary_height stats)
  | Struct_scan value ->
    (* Index-only: the label's run of the structural index, never the
       primary. *)
    ignore feats;
    Stats.struct_height stats
    +. Stats.struct_pages_of_label stats (Stats.label_card stats value)

let probe_cost stats kind feats =
  match kind with
  | Inl_pk _ -> Stats.primary_height stats
  | Inl_child _ ->
    Stats.parent_height stats +. (Stats.avg_fanout stats *. Stats.primary_height stats)
  | Inl_desc (lo, _) ->
    let scanned =
      match lo with
      | A.Oint 1 -> Stats.node_count stats
      | A.Ocol _ | A.Oint _ | A.Ostr _ | A.Otype _ | A.Oextern_in _ | A.Oextern_out _ ->
        Stats.avg_depth stats
    in
    ignore feats;
    Stats.primary_height stats +. Stats.pages_of_tuples stats scanned
  | First | Nl _ | Struct_desc _ -> invalid_arg "probe_cost"

(* --- building one candidate plan for a fixed relation order ------------- *)

let binding_aliases psx = List.map (fun b -> b.A.brel) psx.A.bindings

(* Columns of [placed] aliases needed by predicates touching aliases not
   yet placed. *)
let future_needed_cols psx placed remaining =
  List.concat_map
    (fun (p : A.pred) ->
      let rels = A.pred_rels p in
      if List.exists (fun r -> List.mem r remaining) rels then
        List.filter_map
          (function
            | A.Ocol c when List.mem c.A.rel placed -> Some c
            | A.Ocol _ | A.Oint _ | A.Ostr _ | A.Otype _ | A.Oextern_in _ | A.Oextern_out _
              -> None)
          [p.A.left; p.A.right]
      else [])
    psx.A.preds
  |> List.sort_uniq compare

let binding_cols config psx aliases =
  List.concat_map
    (fun (b : A.binding) ->
      if List.mem b.A.brel aliases then
        if config.carry_out then [A.col b.A.brel A.In; A.col b.A.brel A.Out]
        else [A.col b.A.brel A.In]
      else [])
    psx.A.bindings

(* Try to find an index probe for [a] among its available predicates.
   Probe operands must be constants or columns of placed aliases. *)
let find_probe placed a preds =
  let ok_operand op = is_const op || is_col_of placed op in
  let this field = function
    | A.Ocol c -> String.equal c.A.rel a && c.A.field = field
    | A.Oint _ | A.Ostr _ | A.Otype _ | A.Oextern_in _ | A.Oextern_out _ -> false
  in
  let child =
    List.find_opt
      (fun (p : A.pred) ->
        p.A.op = A.Eq
        && ((this A.Parent_in p.A.left && ok_operand p.A.right)
            || (this A.Parent_in p.A.right && ok_operand p.A.left)))
      preds
  in
  let pk =
    List.find_opt
      (fun (p : A.pred) ->
        p.A.op = A.Eq
        && ((this A.In p.A.left && ok_operand p.A.right)
            || (this A.In p.A.right && ok_operand p.A.left)))
      preds
  in
  let lo =
    List.find_opt
      (fun (p : A.pred) ->
        (p.A.op = A.Lt && this A.In p.A.right && ok_operand p.A.left)
        || (p.A.op = A.Gt && this A.In p.A.left && ok_operand p.A.right))
      preds
  in
  let hi =
    List.find_opt
      (fun (p : A.pred) ->
        (p.A.op = A.Lt && this A.Out p.A.left && ok_operand p.A.right)
        || (p.A.op = A.Gt && this A.Out p.A.right && ok_operand p.A.left))
      preds
  in
  let other_side (p : A.pred) field =
    if this field p.A.left then p.A.right else p.A.left
  in
  match pk, child, lo, hi with
  | Some p, _, _, _ -> Some (Inl_pk (other_side p A.In), [p])
  | None, Some p, _, _ -> Some (Inl_child (other_side p A.Parent_in), [p])
  | None, None, Some plo, Some phi ->
    Some (Inl_desc (other_side plo A.In, other_side phi A.Out), [plo; phi])
  | None, None, _, _ -> None

(* Build the plan for a fixed permutation, returning (steps, cost, card)
   or None if the order is invalid under `Preserve. *)
let build_for_order config stats psx order =
  let bindings = binding_aliases psx in
  let preserve = config.order = `Preserve in
  (* `Preserve validity: binding aliases must appear in binding order. *)
  let order_bindings = List.filter (fun a -> List.mem a bindings) order in
  let expected = List.filter (fun a -> List.mem a order) bindings in
  if preserve && order_bindings <> expected then None
  else begin
    let exception Invalid in
    try
      let rec go placed remaining steps card cost =
        match remaining with
        | [] -> Some (List.rev steps, card, cost)
        | a :: rest ->
          let local = local_preds psx a in
          let connecting = connecting_preds psx placed a in
          let feats = features_of a local in
          let access =
            match feats.ntype, feats.value with
            | Some Xasr.Element, Some v when config.use_indexes && config.use_struct ->
              Struct_scan v
            | Some ((Xasr.Element | Xasr.Text) as ty), Some v when config.use_indexes ->
              Label_scan (ty, v)
            | _ -> Full_scan
          in
          let a_card = base_card stats feats in
          let probe =
            if config.use_indexes then find_probe placed a (local @ connecting) else None
          in
          (* Join selectivity from connecting predicates; exact per-path
             pair counts where the structural edges carry labels. *)
          let join_sel = connecting_selectivity stats psx a connecting in
          let out_card =
            if placed = [] then a_card
            else Float.max 0.01 (card *. a_card *. join_sel)
          in
          let nl_cost () =
            let scan_cost = access_cost stats access feats in
            if placed = [] then scan_cost
            else begin
              let inner_pages = Stats.pages_of_tuples stats a_card in
              (* Order-preserving plans rescan the inner per outer tuple
                 (plain NL); the sorting strategies may use the
                 block-nested-loop join, which rescans per block. *)
              let rescan_factor =
                match config.order with
                | `Preserve -> Float.max 1.0 card
                | `Mem_sort | `Ext_sort | `Btree_sort ->
                  Float.max 1.0 (Float.ceil (card /. 64.0))
              in
              let rescans = rescan_factor *. inner_pages in
              (* An in-memory inner is roughly an order of magnitude
                 cheaper to re-iterate than a disk spool. *)
              let rescans, spill =
                match config.materialize with
                | `Disk -> (rescans, inner_pages)
                | `Mem -> (0.05 *. rescans, 0.0)
              in
              scan_cost +. rescans +. spill
            end
          in
          let step_cost, join, local_kept, residual =
            match probe with
            | Some (kind, consumed) ->
              let probe_total = Float.max 1.0 card *. probe_cost stats kind feats in
              (* The staircase join reads the inner label's structural-
                 index run once, whatever the outer cardinality — it
                 replaces a descendant-interval probe whenever the inner
                 is a labelled element. *)
              let kind, probe_total =
                match kind, feats.ntype, feats.value with
                | Inl_desc (lo, hi), Some Xasr.Element, Some v when config.use_struct ->
                  let struct_total =
                    Stats.struct_height stats
                    +. Stats.struct_pages_of_label stats (Stats.label_card stats v)
                  in
                  if (not config.cost_based) || struct_total < probe_total then
                    (Struct_desc (v, lo, hi), struct_total)
                  else (kind, probe_total)
                | _, _, _ -> (kind, probe_total)
              in
              (* Milestone-4 engines rank access methods by cost; the
                 structural engines (cost_based = false) use an index
                 whenever one applies. *)
              if config.cost_based && nl_cost () < probe_total then
                (nl_cost (), (if placed = [] then First else Nl connecting), local, connecting)
              else begin
                let local_kept = List.filter (fun p -> not (List.memq p consumed)) local in
                let residual =
                  List.filter (fun p -> not (List.memq p consumed)) connecting
                in
                (probe_total, kind, local_kept, residual)
              end
            | None ->
              (nl_cost (), (if placed = [] then First else Nl connecting), local, connecting)
          in
          (* Semijoin: drop an existential relation's columns right after
             its join when nothing downstream needs them. *)
          let semijoin_keep =
            if preserve && not (List.mem a bindings) then begin
              let needed = future_needed_cols psx (a :: placed) rest in
              let references_a =
                List.exists (fun (c : A.col) -> String.equal c.A.rel a) needed
              in
              if references_a then begin
                (* Cannot drop [a]; order stays valid only if all bindings
                   are already placed. *)
                if List.exists (fun b -> List.mem b rest) bindings then raise Invalid;
                None
              end
              else begin
                let keep =
                  List.sort_uniq compare
                    (binding_cols config psx (a :: placed) @ needed)
                in
                Some keep
              end
            end
            else begin
              (* A binding relation joined in the middle keeps everything;
                 in `Preserve mode that is fine: binding order is the sort
                 order. *)
              None
            end
          in
          let dedup_card =
            match semijoin_keep with
            | Some _ ->
              (* A semijoin filters the left side: at most one output row
                 per left row, fewer when matches are rare. *)
              Float.max 0.01 (Float.min card out_card)
            | None -> out_card
          in
          let step =
            { alias = a;
              access;
              join;
              local = local_kept;
              residual;
              semijoin_keep;
              est_card = dedup_card;
              est_cost = cost +. step_cost }
          in
          go (a :: placed) rest (step :: steps) dedup_card (cost +. step_cost)
      in
      go [] order [] 1.0 0.0
    with Invalid -> None
  end

(* --- search ------------------------------------------------------------- *)

let structural_order config psx =
  let bindings = binding_aliases psx in
  if config.order = `Preserve then
    bindings @ List.filter (fun a -> not (List.mem a bindings)) psx.A.rels
  else psx.A.rels

let permutations xs =
  let rec go = function
    | [] -> [[]]
    | xs ->
      List.concat_map
        (fun x -> List.map (fun rest -> x :: rest) (go (List.filter (( <> ) x) xs)))
        xs
  in
  go xs

let sort_cols_of psx =
  List.map (fun (b : A.binding) -> A.col b.A.brel A.In) psx.A.bindings

let out_cols_of config psx = binding_cols config psx psx.A.rels

(* With exact (Good) statistics and no updates, the path summary proves
   emptiness: a label absent from every path (the optimization behind
   the paper's observation that the non-existent-label query ran in
   under 0.01 seconds on engines that consulted their statistics), or a
   labelled structural edge whose exact pair count is zero — //a//b over
   sibling <a/><b/>.  Both estimators return [None] under Unlucky: a
   degraded engine proves nothing and executes the plan. *)
let provably_empty config stats psx =
  (config.use_indexes || config.cost_based)
  && List.exists
       (fun a ->
         let label_absent =
           match element_label psx a with
           | Some v ->
             (match Stats.path_chain_card stats [(Path_summary.Descendant, v)] with
              | Some c -> c <= 0.0
              | None -> false)
           | None -> false
         in
         label_absent
         || List.exists
              (fun ((_ : A.pred list), edge) ->
                match edge_pair_card stats edge with
                | Some c -> c <= 0.0
                | None -> false)
              (labelled_edges psx a psx.A.preds))
       psx.A.rels

let finalize config psx (steps, card, cost) =
  let sort_cost =
    match config.order with
    | `Preserve -> 0.0
    | `Mem_sort -> 1.0 +. (card /. 100.0)
    | `Ext_sort -> 3.0 *. Float.max 1.0 (card /. 100.0)
    | `Btree_sort -> 3.0 *. card
  in
  { config;
    steps;
    twig = None;
    sort_cols = sort_cols_of psx;
    out_cols = out_cols_of config psx;
    est_cost = cost +. sort_cost;
    est_card = card;
    provably_empty = false }

(* --- twig recognition ---------------------------------------------------- *)

(* A PSX is a twig (path pattern) when its relations are exactly its
   bindings in binding order, each one a labelled element with no other
   local predicates (the first may carry a constant/extern anchor
   interval), and consecutive relations are linked by exactly one child
   equality or one descendant-interval pair — the shape produced by
   step chains like //NP//NN.  Such a chain can bypass join ordering
   entirely and run as one holistic stack merge over the structural
   index streams. *)
let recognize_twig config stats psx =
  let bindings = binding_aliases psx in
  let rels = psx.A.rels in
  if
    not
      (config.use_indexes && config.use_struct && config.cost_based
       && (match config.order with
           | `Preserve -> true
           | `Mem_sort | `Ext_sort | `Btree_sort -> false))
    || List.length rels < 2
    || List.length rels <> List.length bindings
    || not (List.for_all (fun a -> List.mem a bindings) rels)
  then None
  else begin
    let exception No in
    try
      let placed_preds = ref 0 in
      let anchor = ref None in
      let rec go i placed prev acc = function
        | [] -> List.rev acc
        | a :: rest ->
          let local = local_preds psx a in
          let feats = features_of a local in
          let label =
            match feats.ntype, feats.value with
            | Some Xasr.Element, Some v -> v
            | _ -> raise No
          in
          if feats.pk || feats.parent_const then raise No;
          let expected_local =
            if i = 0 then begin
              match feats.range_lo, feats.range_hi with
              | Some lo, Some hi ->
                anchor := Some (lo, hi);
                4
              | None, None -> 2
              | Some _, None | None, Some _ -> raise No
            end
            else if feats.range_lo <> None || feats.range_hi <> None then raise No
            else 2
          in
          if List.length local <> expected_local then raise No;
          let connecting = connecting_preds psx placed a in
          let axis =
            if i = 0 then
              if connecting = [] then Path_summary.Descendant else raise No
            else begin
              match prev, List.map (edge_of a) connecting with
              | Some b0, ([`Lo b; `Hi b'] | [`Hi b'; `Lo b])
                when String.equal b b0 && String.equal b' b0 ->
                Path_summary.Descendant
              | Some b0, [`Child b] when String.equal b b0 -> Path_summary.Child
              | _, _ -> raise No
            end
          in
          placed_preds := !placed_preds + List.length local + List.length connecting;
          let sel = connecting_selectivity stats psx a connecting in
          let card =
            match acc with
            | [] -> base_card stats feats
            | last :: _ -> Float.max 0.01 (last.tw_card *. base_card stats feats *. sel)
          in
          let cost =
            (match acc with [] -> 0.0 | last :: _ -> last.tw_cost)
            +. Stats.struct_height stats
            +. Stats.struct_pages_of_label stats (Stats.label_card stats label)
          in
          let step =
            { tw_alias = a; tw_label = label; tw_axis = axis; tw_card = card;
              tw_cost = cost }
          in
          go (i + 1) (a :: placed) (Some a) (step :: acc) rest
      in
      let steps = go 0 [] None [] rels in
      if !placed_preds <> List.length psx.A.preds then raise No;
      Some { tw_anchor = !anchor; tw_steps = steps }
    with No -> None
  end

let twig_cost tw =
  match List.rev tw.tw_steps with
  | last :: _ -> last.tw_cost
  | [] -> 0.0

(* A join chain hands each intermediate binding tuple to the next step;
   the stack-based twig evaluation holds only one root-to-leaf stack per
   open path and emits solutions directly.  Charging the chain for the
   pages its non-final intermediates occupy is what makes the twig win
   on deep chains with fat middles, while a two-step chain with a small
   intermediate keeps the generic plan. *)
let intermediate_pages stats (generic : t) =
  match generic.steps with
  | [] | [_] -> 0.0
  | steps ->
    let rec sum = function
      | [] | [_] -> 0.0
      | (step : step) :: rest -> Stats.pages_of_tuples stats step.est_card +. sum rest
    in
    sum steps

let prefer_twig config stats psx generic =
  match recognize_twig config stats psx with
  | Some tw when twig_cost tw < generic.est_cost +. intermediate_pages stats generic ->
    { generic with steps = []; twig = Some tw; est_cost = twig_cost tw }
  | Some _ | None -> generic

let plan config stats psx =
  if provably_empty config stats psx then
    { config;
      steps = [];
      twig = None;
      sort_cols = sort_cols_of psx;
      out_cols = out_cols_of config psx;
      est_cost = Stats.label_height stats;
      est_card = 0.0;
      provably_empty = true }
  else if psx.A.rels = [] then finalize config psx ([], 1.0, 0.0)
  else if not config.cost_based then begin
    match build_for_order config stats psx (structural_order config psx) with
    | Some result -> finalize config psx result
    | None -> Xqdb_storage.Xqdb_error.internal "Planner: structural order invalid"
  end
  else begin
    let candidates =
      if List.length psx.A.rels <= 7 then permutations psx.A.rels
      else [structural_order config psx]
    in
    let best =
      List.fold_left
        (fun best order ->
          match build_for_order config stats psx order with
          | None -> best
          | Some (_, _, cost) as result ->
            (match best with
             | Some (_, _, best_cost) when best_cost <= cost -> best
             | Some _ | None -> result))
        None candidates
    in
    match best with
    | Some result -> prefer_twig config stats psx (finalize config psx result)
    | None ->
      (match build_for_order config stats psx (structural_order config psx) with
       | Some result -> finalize config psx result
       | None -> Xqdb_storage.Xqdb_error.internal "Planner: no valid join order")
  end

let plan_with_order config stats psx order =
  if List.sort compare order <> List.sort compare psx.A.rels then
    invalid_arg "Planner.plan_with_order: not a permutation of the PSX relations";
  match build_for_order config stats psx order with
  | Some result -> finalize config psx result
  | None -> invalid_arg "Planner.plan_with_order: order invalid under this configuration"

(* --- templates ---------------------------------------------------------- *)

let templates_built = Xqdb_storage.Metrics.counter "planner.templates_built"
let template_binds = Xqdb_storage.Metrics.counter "planner.template_binds"

type template = {
  plan : t;
  params : Tuple.params;
  ctx : Op.ctx;
  op : Op.t;
}

let operand_externs = function
  | A.Oextern_in x | A.Oextern_out x -> [x]
  | A.Ocol _ | A.Oint _ | A.Ostr _ | A.Otype _ -> []

let step_externs step =
  let of_preds ps = List.concat_map A.pred_externs ps in
  of_preds step.local @ of_preds step.residual
  @ (match step.join with
     | First -> []
     | Nl preds -> of_preds preds
     | Inl_child op | Inl_pk op -> operand_externs op
     | Inl_desc (lo, hi) | Struct_desc (_, lo, hi) ->
       operand_externs lo @ operand_externs hi)

let plan_externs plan =
  let twig_externs =
    match plan.twig with
    | Some { tw_anchor = Some (lo, hi); _ } -> operand_externs lo @ operand_externs hi
    | Some { tw_anchor = None; _ } | None -> []
  in
  List.sort_uniq compare (twig_externs @ List.concat_map step_externs plan.steps)

(* Build the operator tree for a plan once.  External references stay in
   the predicates/probes: the operators compile them against the
   context's parameter slots, so the tree serves every outer binding. *)
let build_twig ctx plan tw =
  let steps =
    List.map
      (fun s ->
        { Op.tw_alias = s.tw_alias;
          tw_label = s.tw_label;
          tw_axis =
            (match s.tw_axis with
             | Path_summary.Child -> Op.Twig_child
             | Path_summary.Descendant -> Op.Twig_desc) })
      tw.tw_steps
  in
  Op.project ~cols:plan.out_cols ~dedup:`Adjacent
    (Op.twig_match ctx ~anchor:tw.tw_anchor ~steps)

let build ctx plan =
  if plan.provably_empty then Op.empty plan.out_cols
  else match plan.twig with
  | Some tw -> build_twig ctx plan tw
  | None ->
  begin
  let maybe_spool op =
    match plan.config.materialize with
    | `Disk -> Op.materialize `Disk op ctx
    | `Mem -> op
  in
  let access_op step preds =
    match step.access with
    | Full_scan -> Op.full_scan ctx step.alias ~preds
    | Label_scan (ntype, value) -> Op.label_scan ctx step.alias ~ntype ~value ~preds
    | Struct_scan label -> Op.struct_scan ctx step.alias ~label ~preds
  in
  let left =
    List.fold_left
      (fun left step ->
        let local = step.local in
        let residual = step.residual in
        (* A step whose columns are immediately projected away is a pure
           existence test: its join can stop at the first match. *)
        let semi =
          match step.semijoin_keep with
          | Some keep -> not (List.exists (fun (c : A.col) -> String.equal c.A.rel step.alias) keep)
          | None -> false
        in
        let join_to l =
          match step.join with
          | First -> access_op step local
          | Nl preds ->
            let inner = access_op step local in
            (match plan.config.order with
             | `Preserve ->
               Op.nl_join ~materialize_inner:plan.config.materialize ~semi ~preds l inner ctx
             | `Mem_sort | `Ext_sort | `Btree_sort ->
               (* Order is restored by the final sort, so the cheaper,
                  order-destroying block join is allowed. *)
               Op.bnl_join ~preds l inner ctx)
          | Inl_child op ->
            Op.inl_join ~semi ctx ~probe:(Op.Probe_child op) ~alias:step.alias
              ~preds:local ~residual l
          | Inl_desc (lo, hi) ->
            Op.inl_join ~semi ctx
              ~probe:(Op.Probe_desc (lo, hi))
              ~alias:step.alias ~preds:local ~residual l
          | Inl_pk op ->
            Op.inl_join ~semi ctx ~probe:(Op.Probe_pk op) ~alias:step.alias
              ~preds:local ~residual l
          | Struct_desc (label, lo, hi) ->
            Op.struct_join ~semi ctx ~lo ~hi ~alias:step.alias ~label ~preds:local
              ~residual l
        in
        let joined =
          match step.join, left with
          | First, None -> access_op step local
          | First, Some _ -> Xqdb_storage.Xqdb_error.internal "Planner.build: First after first step"
          | (Nl _ | Inl_child _ | Inl_desc _ | Inl_pk _ | Struct_desc _), Some l -> join_to l
          | (Nl _ | Inl_child _ | Inl_desc _ | Inl_pk _ | Struct_desc _), None ->
            (* First relation accessed through an index probe from the
               unit relation (constant probe operands). *)
            join_to (Op.singleton [] [||])
        in
        let with_semijoin =
          match step.semijoin_keep with
          | Some keep -> Op.project ~cols:keep ~dedup:`Adjacent joined
          | None -> joined
        in
        Some (maybe_spool with_semijoin))
      None plan.steps
  in
  let base =
    match left with
    | Some op -> op
    | None -> Op.singleton [] [||]  (* nullary PSX over no relations *)
  in
  match plan.config.order with
  | `Preserve -> Op.project ~cols:plan.out_cols ~dedup:`Adjacent base
  | `Mem_sort ->
    Op.project ~cols:plan.out_cols ~dedup:`No
      (Op.sort ~mode:`In_mem ~key_cols:plan.sort_cols base ctx)
  | `Ext_sort ->
    Op.project ~cols:plan.out_cols ~dedup:`No
      (Op.sort ~mode:`External ~key_cols:plan.sort_cols base ctx)
  | `Btree_sort ->
    Op.project ~cols:plan.out_cols ~dedup:`No
      (Op.btree_sort ~key_cols:plan.sort_cols base ctx)
  end

let template ctx plan =
  let params = Tuple.make_params (plan_externs plan) in
  let ctx = Op.with_params ctx params in
  let op = build ctx plan in
  Xqdb_storage.Metrics.incr templates_built;
  { plan; params; ctx; op }

let bind tmpl ~env =
  Xqdb_storage.Metrics.incr template_binds;
  Tuple.bind_params tmpl.params env;
  Op.rebind tmpl.op;
  tmpl.op.Op.reset ()

let instantiate ctx plan ~env =
  let tmpl = template ctx plan in
  bind tmpl ~env;
  tmpl.op

(* --- explain ------------------------------------------------------------ *)

let join_kind_name = function
  | First -> "access"
  | Nl _ -> "nl-join"
  | Inl_child _ -> "inl-join(child)"
  | Inl_desc _ -> "inl-join(desc)"
  | Inl_pk _ -> "inl-join(pk)"
  | Struct_desc _ -> "struct-join(desc)"

let pp ppf plan =
  Format.fprintf ppf "@[<v>";
  if plan.provably_empty then Format.fprintf ppf "provably empty (path statistics)@,";
  (match plan.twig with
   | Some tw ->
     List.iteri
       (fun i s ->
         let name =
           if i = 0 then "twig-anchor"
           else
             match s.tw_axis with
             | Path_summary.Child -> "twig(child)"
             | Path_summary.Descendant -> "twig(desc)"
         in
         Format.fprintf ppf "%-16s XASR[%s] via sidx(%s)  (card %.1f, cost %.1f)@," name
           s.tw_alias s.tw_label s.tw_card s.tw_cost)
       tw.tw_steps
   | None -> ());
  List.iter
    (fun step ->
      let access =
        match step.access, step.join with
        | _, Struct_desc (v, _, _) -> Printf.sprintf "sidx(%s)" v
        | _, (Inl_child _ | Inl_desc _ | Inl_pk _) -> "index probe"
        | Full_scan, _ -> "scan"
        | Label_scan (ty, v), _ ->
          Printf.sprintf "idx(%s,%s)" (Xasr.node_type_name ty) v
        | Struct_scan v, _ -> Printf.sprintf "sidx(%s)" v
      in
      Format.fprintf ppf "%-16s XASR[%s] via %s%s  (card %.1f, cost %.1f)@,"
        (join_kind_name step.join) step.alias access
        (match step.semijoin_keep with
         | Some _ -> ", then semijoin-project"
         | None -> "")
        step.est_card step.est_cost)
    plan.steps;
  let order =
    match plan.config.order with
    | `Preserve -> "order-preserving; one-pass dedup projection"
    | `Mem_sort -> "in-memory sort + dedup"
    | `Ext_sort -> "external sort + dedup"
    | `Btree_sort -> "clustered B-tree sort + dedup"
  in
  Format.fprintf ppf "output: %s  (est. card %.1f, est. cost %.1f)@]" order plan.est_card
    plan.est_cost

let to_string plan = Format.asprintf "%a" pp plan
