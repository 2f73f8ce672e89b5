module A = Xqdb_tpm.Tpm_algebra
module Store = Xqdb_xasr.Node_store
module Xasr = Xqdb_xasr.Xasr
module Budget = Xqdb_storage.Budget

type ctx = {
  store : Store.t;
  pool : Xqdb_storage.Buffer_pool.t;
  mutable budget : Budget.t option;
  params : Tuple.params;
  batch_size : int;
}
(* Owned by the query's driving domain. *)
[@@domain_local]

let make_ctx ?budget ?(params = Tuple.no_params) ?(batch_size = 256) store =
  if batch_size < 1 then invalid_arg "Phys_op.make_ctx: batch_size must be positive";
  { store; pool = Store.pool store; budget; params; batch_size }

let with_params ctx params = { ctx with params }

let set_budget ctx budget = ctx.budget <- budget

(* The per-batch poll of the deadline and time cap.  The page-I/O cap
   needs no poll: the buffer pool checks it on every frame insert. *)
let tick ctx =
  match ctx.budget with
  | None -> ()
  | Some b -> Budget.check b

(* Which preds/operands read parameter slots — decides whether a cache
   built below them survives a rebind. *)
let operand_param_dep = function
  | A.Oextern_in _ | A.Oextern_out _ -> true
  | A.Ocol _ | A.Oint _ | A.Ostr _ | A.Otype _ -> false

let preds_param_dep preds =
  List.exists (fun p -> A.pred_externs p <> []) preds

type info = {
  name : string;
  detail : string;
}

type stats = {
  mutable rows : int;
  mutable batches : int;
  mutable ios : int;  (* inclusive: includes the children's I/O *)
  mutable seconds : float;  (* inclusive CPU seconds *)
}
[@@domain_local]

type t = {
  schema : Tuple.schema;
  next_batch : unit -> Tuple.batch option;
  reset : unit -> unit;
  info : info;
  stats : stats;
  kids : t list;
  param_dep : bool;  (* does this subtree's output depend on parameter slots? *)
  clear : unit -> unit;  (* drop caches invalidated by a rebind (no recursion) *)
}

(* Every constructor goes through [make], which wraps [next_batch] and
   [reset] so the operator's stats accumulate rows and batches produced
   plus the page I/Os (charged to the installed Metrics scope, i.e. the
   running request) and time spent inside its call windows.  The
   measurements are inclusive — a child only ever runs inside its
   parent's [next_batch] or [reset] — so the per-operator (exclusive)
   share is recovered in {!profile} by subtracting the children's
   inclusive totals.  Measuring per batch rather than per tuple is the
   vectorization payoff on the hot path: two scope reads and two clock
   reads per batch instead of per row.

   [param_dep] is the operator's own dependence on parameter slots; the
   stored flag is the subtree's (own or any kid's).  [clear] is the
   constructor's cache-invalidation hook — constructors that cache a
   parameter-independent subtree deliberately pass [ignore] so the cache
   survives rebinds (that survival is the point of templates). *)
let make ~schema ~info ?(kids = []) ?(param_dep = false) ?(clear = ignore) ~next_batch
    ~reset () =
  let param_dep = param_dep || List.exists (fun k -> k.param_dep) kids in
  let stats = { rows = 0; batches = 0; ios = 0; seconds = 0. } in
  (* Elapsed time, not process CPU time: operator profiles must
     attribute I/O wait to the operator that paid it, and under
     concurrent sessions CPU time would charge every session for every
     other session's work. *)
  let measured f () =
    let scope = Xqdb_storage.Metrics.current () in
    let io0 = Xqdb_storage.Disk.scope_ios scope in
    let t0 = Xqdb_storage.Monotonic.now () in
    Fun.protect f ~finally:(fun () ->
        stats.ios <- stats.ios + (Xqdb_storage.Disk.scope_ios scope - io0);
        stats.seconds <- stats.seconds +. Xqdb_storage.Monotonic.elapsed_since t0)
  in
  let next_batch =
    let inner = measured next_batch in
    fun () ->
      let result = inner () in
      (match result with
       | Some b ->
         stats.rows <- stats.rows + b.Tuple.len;
         stats.batches <- stats.batches + 1
       | None -> ());
      result
  in
  { schema; next_batch; reset = measured reset; info; stats; kids; param_dep; clear }

let next_batch t = t.next_batch ()

let rec rebind t =
  List.iter rebind t.kids;
  t.clear ()

let rec zero_stats t =
  t.stats.rows <- 0;
  t.stats.batches <- 0;
  t.stats.ios <- 0;
  t.stats.seconds <- 0.;
  List.iter zero_stats t.kids

type profile = {
  op : string;
  args : string;
  rows : int;
  batches : int;
  ios : int;  (** inclusive page I/Os *)
  own_ios : int;  (** exclusive: [ios] minus the inputs' [ios] *)
  seconds : float;
  own_seconds : float;
  inputs : profile list;
}

let rec profile t =
  let inputs = List.map profile t.kids in
  let kid_ios = List.fold_left (fun acc p -> acc + p.ios) 0 inputs in
  let kid_seconds = List.fold_left (fun acc p -> acc +. p.seconds) 0. inputs in
  { op = t.info.name;
    args = t.info.detail;
    rows = t.stats.rows;
    batches = t.stats.batches;
    ios = t.stats.ios;
    own_ios = max 0 (t.stats.ios - kid_ios);
    seconds = t.stats.seconds;
    own_seconds = Float.max 0. (t.stats.seconds -. kid_seconds);
    inputs }

let rec pp_profile ppf p =
  if String.equal p.args "" then Format.fprintf ppf "@[<v 2>%s" p.op
  else Format.fprintf ppf "@[<v 2>%s [%s]" p.op p.args;
  Format.fprintf ppf "  rows %d  batches %d  ios %d (own %d)  %.3fs (own %.3fs)" p.rows
    p.batches p.ios p.own_ios p.seconds p.own_seconds;
  List.iter (fun i -> Format.fprintf ppf "@,%a" pp_profile i) p.inputs;
  Format.fprintf ppf "@]"

let profile_to_string p = Format.asprintf "%a" pp_profile p

(* Reset [op] and feed its rows, in order, to [f]. *)
let iter_rows f op =
  op.reset ();
  let rec go () =
    match op.next_batch () with
    | None -> ()
    | Some b ->
      for i = 0 to b.Tuple.len - 1 do
        f (Tuple.batch_row b i)
      done;
      go ()
  in
  go ()

let drain op =
  let acc = ref [] in
  iter_rows (fun tuple -> acc := tuple :: !acc) op;
  List.rev !acc

let count op =
  op.reset ();
  let rec go n =
    match op.next_batch () with
    | None -> n
    | Some b -> go (n + b.Tuple.len)
  in
  go 0

(* A tuple-at-a-time view of a child's batch stream, for the outer side
   of the nested loops.  Rows are materialized lazily and the current
   batch is fully consumed before the child is asked for the next one,
   so batch reuse is safe. *)
type cursor = {
  pull : unit -> Tuple.t option;
  restart : unit -> unit;  (* reset the child and forget the held batch *)
}

let cursor_of op =
  let held = ref None in
  let idx = ref 0 in
  let rec pull () =
    match !held with
    | Some b when !idx < b.Tuple.len ->
      let t = Tuple.batch_row b !idx in
      incr idx;
      Some t
    | _ ->
      (match op.next_batch () with
       | None ->
         held := None;
         idx := 0;
         None
       | Some b ->
         held := Some b;
         idx := 0;
         pull ())
  in
  { pull;
    restart =
      (fun () ->
        op.reset ();
        held := None;
        idx := 0) }

let list_pull items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
      rest := tl;
      Some x

let out_batch ctx schema = Tuple.batch_create ~width:(List.length schema) ctx.batch_size

(* The one place a batch ends.  Each call polls the deadline and time
   cap, clears the reusable output batch, then calls [step b] until the
   batch is full or [step] returns [false] (its input is exhausted).  A
   step adds at most one row. *)
let fill_batches ctx ~schema step =
  let b = out_batch ctx schema in
  fun () ->
    tick ctx;
    Tuple.batch_clear b;
    let rec fill () = if (not (Tuple.batch_full b)) && step b then fill () in
    fill ();
    if b.Tuple.len = 0 then None else Some b

(* A batch producer over a row generator. *)
let batched ctx ~schema gen =
  fill_batches ctx ~schema (fun b ->
      match gen () with
      | None -> false
      | Some tuple ->
        Tuple.batch_push b tuple;
        true)

let preds_detail preds =
  String.concat " ∧ " (List.map Xqdb_tpm.Tpm_print.pred_to_string preds)

let as_int what = function
  | Tuple.I v -> v
  | Tuple.S s -> invalid_arg (Printf.sprintf "%s %S" what s)

(* --- access paths ------------------------------------------------------ *)

let cursor_op ~schema ~info ~param_dep ~make_cursor =
  let cursor = ref (make_cursor ()) in
  make ~schema ~info ~param_dep
    ~next_batch:(fun () -> !cursor ())
    ~reset:(fun () -> cursor := make_cursor ())
    ()

(* Write an XASR tuple's five columns into the batch's staging row
   (index [len]) without materializing a [Tuple.t]; the caller commits
   the row by bumping [len] once the predicates pass. *)
let stage_xasr b (xt : Xasr.tuple) =
  let row = b.Tuple.len in
  let cols = b.Tuple.cols in
  cols.(0).(row) <- Tuple.I xt.Xasr.nin;
  cols.(1).(row) <- Tuple.I xt.Xasr.nout;
  cols.(2).(row) <- Tuple.I xt.Xasr.parent_in;
  cols.(3).(row) <- Tuple.I (Xasr.node_type_code xt.Xasr.ntype);
  cols.(4).(row) <- Tuple.S xt.Xasr.value

(* The one scan loop: a page-at-a-time cursor yields whole leaves of
   entries, [tuple] turns an entry into its XASR tuple, and each row is
   staged straight into the output columns, where the compiled
   predicates run in place — no per-tuple [Tuple.t] is allocated on the
   scan path. *)
let xasr_page_scan ctx ~schema ~preds ~info ~tuple ~make_pages =
  let keep = Tuple.compile_preds_batch ~params:ctx.params schema preds in
  let make_cursor () =
    let pages = make_pages () in
    let pending = ref [||] in
    let pos = ref 0 in
    fill_batches ctx ~schema (fun b ->
        if !pos < Array.length !pending then begin
          let entry = (!pending).(!pos) in
          incr pos;
          stage_xasr b (tuple entry);
          if keep b b.Tuple.len then b.Tuple.len <- b.Tuple.len + 1;
          true
        end
        else
          match pages () with
          | None -> false
          | Some arr ->
            pending := arr;
            pos := 0;
            true)
  in
  cursor_op ~schema ~param_dep:(preds_param_dep preds) ~info ~make_cursor

let full_scan ctx alias ~preds =
  xasr_page_scan ctx ~schema:(Tuple.xasr_schema alias) ~preds
    ~info:{ name = Printf.sprintf "scan XASR[%s]" alias; detail = preds_detail preds }
    ~tuple:Fun.id
    ~make_pages:(fun () -> Store.scan_all_pages ctx.store)

let struct_scan ctx alias ~label ~preds =
  xasr_page_scan ctx ~schema:(Tuple.xasr_schema alias) ~preds
    ~info:
      { name = Printf.sprintf "sidx-scan XASR[%s]" alias;
        detail =
          Printf.sprintf "struct(%s)%s" label
            (if preds = [] then "" else "; " ^ preds_detail preds) }
    ~tuple:Fun.id
    ~make_pages:(fun () -> Store.struct_stream_pages ctx.store label)

(* The label index yields whole leaves of matching [in]s; each one still
   costs a primary fetch (that is the access path's nature), made as the
   row is staged. *)
let label_scan ctx alias ~ntype ~value ~preds =
  xasr_page_scan ctx ~schema:(Tuple.xasr_schema alias) ~preds
    ~info:
      { name = Printf.sprintf "idx-scan XASR[%s]" alias;
        detail =
          Printf.sprintf "label(%s, %s)%s" (Xasr.node_type_name ntype) value
            (if preds = [] then "" else "; " ^ preds_detail preds) }
    ~tuple:(fun nin ->
      match Store.fetch ctx.store nin with
      | Some xt -> xt
      | None -> Xqdb_storage.Xqdb_error.corrupt "Phys_op.label_scan: dangling label-index entry")
    ~make_pages:(fun () -> Store.label_ins_pages ctx.store ntype value)

let empty schema =
  make ~schema
    ~info:{ name = "empty"; detail = "provably empty" }
    ~next_batch:(fun () -> None)
    ~reset:(fun () -> ())
    ()

let singleton schema tuple =
  let b = Tuple.batch_create ~width:(List.length schema) 1 in
  Tuple.batch_push b tuple;
  let produced = ref false in
  make ~schema
    ~info:{ name = "unit"; detail = "" }
    ~next_batch:(fun () ->
      if !produced then None
      else begin
        produced := true;
        Some b
      end)
    ~reset:(fun () -> produced := false)
    ()

(* --- spools -------------------------------------------------------------- *)

(* A heap-file spool of [child]'s rows, shared by disk materialization
   and nl_join's disk inner.  The first [replay] drains the child into a
   fresh heap file, polling the budget per row; every [replay] returns a
   pull over the file from its start; [forget] drops the file so the
   next replay refills it. *)
let spool ctx child =
  let file = ref None in
  let replay () =
    let hf =
      match !file with
      | Some hf -> hf
      | None ->
        let hf = Xqdb_storage.Heap_file.create ctx.pool in
        iter_rows
          (fun tuple ->
            tick ctx;
            ignore (Xqdb_storage.Heap_file.append hf (Tuple.encode tuple)))
          child;
        file := Some hf;
        hf
    in
    let scan = Xqdb_storage.Heap_file.scan hf in
    fun () -> Option.map Tuple.decode (scan ())
  in
  (replay, fun () -> file := None)

(* Materialize-on-first-use operator over a list-producing fill; the
   cached list is served out through a reusable batch. *)
let replay_op ~schema ~info ~kids ~clear_on_rebind ~ctx ~fill =
  let cache = ref None in
  let serving = ref None in
  let gen () =
    let pull =
      match !serving with
      | Some pull -> pull
      | None ->
        let rows =
          match !cache with
          | Some rows -> rows
          | None ->
            let rows = fill () in
            cache := Some rows;
            rows
        in
        let pull = list_pull rows in
        serving := Some pull;
        pull
    in
    pull ()
  in
  (* A fill that must be dropped on rebind reads parameter slots, so the
     operator itself is parameter-dependent (kids contribute via make). *)
  make ~schema ~info ~kids ~param_dep:clear_on_rebind
    ~clear:
      (if clear_on_rebind then (fun () ->
           cache := None;
           serving := None)
       else ignore)
    ~next_batch:(batched ctx ~schema gen)
    ~reset:(fun () -> serving := None)
    ()

(* --- joins ------------------------------------------------------------- *)

(* The one nested loop: for each outer row, [open_inner] pulls the inner
   candidates; a candidate is emitted when [keep_inner] holds on it and
   [keep] on the concatenation, and a semijoin moves on to the next
   outer row after its first match.  The output is outer-major, inner in
   candidate order. *)
let nested_loop ctx ~schema ~semi ~open_inner ~keep_inner ~keep left =
  let outer = cursor_of left in
  let current = ref None in
  let rec gen () =
    match !current with
    | None ->
      (match outer.pull () with
       | None -> None
       | Some l ->
         current := Some (l, open_inner l);
         gen ())
    | Some (l, inner) ->
      (match inner () with
       | None ->
         current := None;
         gen ()
       | Some r when keep_inner r ->
         let tuple = Tuple.concat l r in
         if keep tuple then begin
           if semi then current := None;
           Some tuple
         end
         else gen ()
       | Some _ -> gen ())
  in
  let reset () =
    outer.restart ();
    current := None
  in
  (batched ctx ~schema gen, reset)

type probe =
  | Probe_child of A.operand
  | Probe_desc of A.operand * A.operand
  | Probe_pk of A.operand

(* Value-keyed buckets for the keyed in-memory inner of {!nl_join}.
   [Tuple.value_equal] keeps [I 3] and [S "3"] apart even when their
   hashes collide. *)
module Value_tbl = Hashtbl.Make (struct
  type t = Tuple.value

  let equal = Tuple.value_equal
  let hash = function Tuple.I n -> Int.hash n | Tuple.S s -> String.hash s
end)

(* The first predicate equating an outer column with an inner one, in
   either orientation: [(outer position, inner position, inner column)].
   The inner column must not also be an outer one, or the join predicate
   would read the outer copy and the buckets would be keyed on the wrong
   value. *)
let equi_key left right preds =
  let key outer inner =
    if List.mem outer left.schema && List.mem inner right.schema
       && not (List.mem inner left.schema)
    then Some (Tuple.position left.schema outer, Tuple.position right.schema inner, inner)
    else None
  in
  List.find_map
    (fun (p : A.pred) ->
      match p with
      | { A.left = A.Ocol a; op = A.Eq; right = A.Ocol b } ->
        (match key a b with Some k -> Some k | None -> key b a)
      | _ -> None)
    preds

let nl_join ?(materialize_inner = `Mem) ?(semi = false) ~preds left right ctx =
  let schema = left.schema @ right.schema in
  (* Inner-side cache.  [clear] drops it on rebind, but only when the
     inner subtree reads parameter slots — a parameter-independent inner
     cache is valid for every outer binding and surviving rebinds is the
     template payoff. *)
  let open_inner, inner_clear, cache_detail =
    match materialize_inner with
    | `Mem ->
      (* With an equi-join key the cache is also bucketed by the inner
         key, each bucket in inner order, and an outer row walks only its
         own bucket: the rows skipped are exactly those the key predicate
         would reject, so output, order and semi's first match are the
         full loop's.  The inner is drained exactly as without a key. *)
      let key = equi_key left right preds in
      let cache = ref None in
      let fill () =
        match !cache with
        | Some c -> c
        | None ->
          let rows = drain right in
          let index =
            Option.map
              (fun (li, ri, _) ->
                let tbl = Value_tbl.create 64 in
                List.iter
                  (fun r ->
                    let k = r.(ri) in
                    let bucket = Option.value ~default:[] (Value_tbl.find_opt tbl k) in
                    Value_tbl.replace tbl k (r :: bucket))
                  (List.rev rows);
                (li, tbl))
              key
          in
          cache := Some (rows, index);
          (rows, index)
      in
      let open_inner l =
        list_pull
          (match fill () with
           | _, Some (li, tbl) -> Option.value ~default:[] (Value_tbl.find_opt tbl l.(li))
           | rows, None -> rows)
      in
      let detail =
        match key with
        | None -> "inner in memory"
        | Some (_, _, c) ->
          "inner in memory, keyed on " ^ Xqdb_tpm.Tpm_print.operand_to_string (A.Ocol c)
      in
      (open_inner, (fun () -> cache := None), detail)
    | `Disk ->
      let replay, forget = spool ctx right in
      ((fun _ -> replay ()), forget, "inner on disk")
  in
  let next_batch, reset =
    nested_loop ctx ~schema ~semi ~open_inner ~keep_inner:(fun _ -> true)
      ~keep:(Tuple.compile_preds ~params:ctx.params schema preds) left
  in
  make ~schema ~kids:[left; right] ~next_batch ~reset
    ~param_dep:(preds_param_dep preds)
    ~clear:(if right.param_dep then inner_clear else ignore)
    ~info:
      { name = (if preds = [] then (if semi then "semi-product" else "product")
                else if semi then "semi-nl-join"
                else "nl-join");
        detail =
          (if preds = [] then cache_detail else preds_detail preds ^ "; " ^ cache_detail) }
    ()

let bnl_join ?(block_size = 64) ~preds left right ctx =
  if block_size < 1 then invalid_arg "Phys_op.bnl_join: block_size must be positive";
  let schema = left.schema @ right.schema in
  let keep = Tuple.compile_preds ~params:ctx.params schema preds in
  let left_cur = cursor_of left in
  (* The inner is spooled once; each block replays it. *)
  let inner = ref None in
  let fill_inner () =
    match !inner with
    | Some tuples -> tuples
    | None ->
      let tuples = drain right in
      inner := Some tuples;
      tuples
  in
  let block = ref [||] in
  let remaining_inner = ref [] in
  let block_pos = ref 0 in
  let exhausted = ref false in
  let refill_block () =
    let buf = ref [] in
    let rec take n =
      if n > 0 then
        match left_cur.pull () with
        | None -> ()
        | Some l ->
          buf := l :: !buf;
          take (n - 1)
    in
    take block_size;
    block := Array.of_list (List.rev !buf);
    if Array.length !block = 0 then exhausted := true
    else begin
      remaining_inner := fill_inner ();
      block_pos := 0
    end
  in
  let rec gen () =
    if !exhausted then None
    else if Array.length !block = 0 then begin
      refill_block ();
      gen ()
    end
    else
      match !remaining_inner with
      | [] ->
        (* Block done: fetch the next block of outer tuples. *)
        block := [||];
        refill_block ();
        gen ()
      | r :: rest ->
        if !block_pos >= Array.length !block then begin
          remaining_inner := rest;
          block_pos := 0;
          gen ()
        end
        else begin
          let l = (!block).(!block_pos) in
          incr block_pos;
          let tuple = Tuple.concat l r in
          if keep tuple then Some tuple else gen ()
        end
  in
  let reset () =
    left_cur.restart ();
    block := [||];
    remaining_inner := [];
    block_pos := 0;
    exhausted := false
  in
  make ~schema ~kids:[left; right]
    ~next_batch:(batched ctx ~schema gen) ~reset
    ~param_dep:(preds_param_dep preds)
    ~clear:(if right.param_dep then (fun () -> inner := None) else ignore)
    ~info:
      { name = (if preds = [] then "bnl-product" else "bnl-join");
        detail =
          (if preds = [] then Printf.sprintf "block %d" block_size
           else preds_detail preds ^ Printf.sprintf "; block %d" block_size) }
    ()

let join_detail preds residual =
  (if preds = [] then "" else "; " ^ preds_detail preds)
  ^ (if residual = [] then "" else "; residual " ^ preds_detail residual)

let inl_join ?(semi = false) ctx ~probe ~alias ~preds ~residual left =
  let inner_schema = Tuple.xasr_schema alias in
  let schema = left.schema @ inner_schema in
  let operand = Tuple.compile_operand ~params:ctx.params left.schema in
  let as_int = as_int "inl_join: non-integer probe value" in
  let open_probe =
    match probe with
    | Probe_child op ->
      let v = operand op in
      fun l ->
        let ins = Store.children_ins ctx.store (as_int (v l)) in
        fun () ->
          Option.map
            (fun nin ->
              match Store.fetch ctx.store nin with
              | Some xt -> xt
              | None -> Xqdb_storage.Xqdb_error.corrupt "inl_join: dangling parent-index entry")
            (ins ())
    | Probe_desc (in_op, out_op) ->
      let vin = operand in_op in
      let vout = operand out_op in
      fun l -> Store.scan_in_range ctx.store ~lo:(as_int (vin l) + 1) ~hi:(as_int (vout l) - 1)
    | Probe_pk op ->
      let v = operand op in
      fun l -> list_pull (Option.to_list (Store.fetch ctx.store (as_int (v l))))
  in
  let next_batch, reset =
    nested_loop ctx ~schema ~semi
      ~open_inner:(fun l ->
        let pull = open_probe l in
        fun () -> Option.map Tuple.of_xasr (pull ()))
      ~keep_inner:(Tuple.compile_preds ~params:ctx.params inner_schema preds)
      ~keep:(Tuple.compile_preds ~params:ctx.params schema residual)
      left
  in
  let probe_param_dep, probe_detail =
    let show = Xqdb_tpm.Tpm_print.operand_to_string in
    match probe with
    | Probe_child op ->
      (operand_param_dep op, Printf.sprintf "%s.parent_in = %s" alias (show op))
    | Probe_desc (i, o) ->
      ( operand_param_dep i || operand_param_dep o,
        Printf.sprintf "%s.in in (%s, %s)" alias (show i) (show o) )
    | Probe_pk op -> (operand_param_dep op, Printf.sprintf "%s.in = %s" alias (show op))
  in
  make ~schema ~kids:[left] ~next_batch ~reset
    ~param_dep:(probe_param_dep || preds_param_dep preds || preds_param_dep residual)
    ~info:
      { name = (if semi then "semi-inl-join" else "inl-join");
        detail = probe_detail ^ join_detail preds residual }
    ()

(* Staircase join over the structural index: the label's run is loaded
   once into a sorted-by-[in] array (it never depends on parameters, so
   it survives rebinds like a cached nl-join inner); each outer tuple
   binary-searches its (lo, hi) interval and emits the contained
   entries.  Output order matches {!inl_join} with [Probe_desc]:
   outer-major, inner in document order — the property the index-vs-scan
   differential oracle relies on. *)
let struct_join ?(semi = false) ctx ~lo ~hi ~alias ~label ~preds ~residual left =
  let inner_schema = Tuple.xasr_schema alias in
  let schema = left.schema @ inner_schema in
  let as_int = as_int "struct_join: non-integer bound" in
  let vlo = Tuple.compile_operand ~params:ctx.params left.schema lo in
  let vhi = Tuple.compile_operand ~params:ctx.params left.schema hi in
  let entries = ref None in
  let load () =
    match !entries with
    | Some pair -> pair
    | None ->
      let pages = Store.struct_stream_pages ctx.store label in
      let rec go acc =
        tick ctx;
        match pages () with
        | None -> List.rev acc
        | Some arr -> go (Array.fold_left (fun acc xt -> Tuple.of_xasr xt :: acc) acc arr)
      in
      let tuples = Array.of_list (go []) in
      let ins = Array.map (fun t -> as_int t.(0)) tuples in
      let pair = (tuples, ins) in
      entries := Some pair;
      pair
  in
  (* First index whose [in] exceeds [bound]. *)
  let lower_bound ins bound =
    let rec go a b =
      if a >= b then a
      else begin
        let mid = (a + b) / 2 in
        if ins.(mid) > bound then go a mid else go (mid + 1) b
      end
    in
    go 0 (Array.length ins)
  in
  let open_inner l =
    let tuples, ins = load () in
    let lo_v = as_int (vlo l) in
    let hi_v = as_int (vhi l) in
    let idx = ref (lower_bound ins lo_v) in
    fun () ->
      if !idx >= Array.length tuples || ins.(!idx) >= hi_v then None
      else begin
        let inner = tuples.(!idx) in
        incr idx;
        Some inner
      end
  in
  let next_batch, reset =
    nested_loop ctx ~schema ~semi ~open_inner
      ~keep_inner:(Tuple.compile_preds ~params:ctx.params inner_schema preds)
      ~keep:(Tuple.compile_preds ~params:ctx.params schema residual)
      left
  in
  make ~schema ~kids:[left] ~next_batch ~reset
    ~param_dep:
      (operand_param_dep lo || operand_param_dep hi || preds_param_dep preds
      || preds_param_dep residual)
    ~info:
      { name = (if semi then "semi-struct-join" else "struct-join");
        detail =
          Printf.sprintf "%s.in in (%s, %s); struct(%s)" alias
            (Xqdb_tpm.Tpm_print.operand_to_string lo)
            (Xqdb_tpm.Tpm_print.operand_to_string hi)
            label
          ^ join_detail preds residual }
    ()

(* --- twig matching ------------------------------------------------------- *)

type twig_axis =
  | Twig_child
  | Twig_desc

type twig_step = {
  tw_alias : string;
  tw_label : string;
  tw_axis : twig_axis;
}

(* PathStack (Bruno et al.): one structural-index stream and one stack
   per step, streams merged by [in].  Stack entries are (tuple, partner
   index into the previous stack); each stack holds a chain of nested
   intervals, so a stream entry's ancestors with the previous step's
   label are exactly the un-popped entries below its partner pointer.
   Solutions are enumerated at the leaf step and sorted lexicographically
   by the aliases' [in] columns, which reproduces the order of the
   equivalent left-deep nested-loop plan. *)
let twig_match ctx ~anchor ~steps =
  (match steps with
  | [] -> invalid_arg "Phys_op.twig_match: no steps"
  | _ :: _ -> ());
  let schema = List.concat_map (fun s -> Tuple.xasr_schema s.tw_alias) steps in
  let steps_arr = Array.of_list steps in
  let k = Array.length steps_arr in
  let as_int = as_int "twig_match: non-integer bound" in
  let anchor_fn =
    match anchor with
    | None -> None
    | Some (lo, hi) ->
      (* Anchor operands are constants or externs — never columns — so
         they compile against the empty schema. *)
      let vlo = Tuple.compile_operand ~params:ctx.params [] lo in
      let vhi = Tuple.compile_operand ~params:ctx.params [] hi in
      Some (fun () -> (as_int (vlo [||]), as_int (vhi [||])))
  in
  let tuple_in t = as_int t.(0) in
  let tuple_out t = as_int t.(1) in
  let fill () =
    let lo, hi =
      match anchor_fn with
      | None -> (min_int, max_int)
      | Some f -> f ()
    in
    let dummy = ([||], -1) in
    let stacks = Array.init k (fun _ -> ref (Array.make 8 dummy)) in
    let lens = Array.make k 0 in
    let push i entry =
      let arr = !(stacks.(i)) in
      if lens.(i) >= Array.length arr then begin
        let bigger = Array.make (2 * Array.length arr) dummy in
        Array.blit arr 0 bigger 0 lens.(i);
        stacks.(i) := bigger
      end;
      !(stacks.(i)).(lens.(i)) <- entry;
      lens.(i) <- lens.(i) + 1
    in
    let get i j = !(stacks.(i)).(j) in
    let pop_closed nin =
      Array.iteri
        (fun i _ ->
          let rec go () =
            if lens.(i) > 0 then begin
              let t, _ = get i (lens.(i) - 1) in
              if tuple_out t < nin then begin
                lens.(i) <- lens.(i) - 1;
                go ()
              end
            end
          in
          go ())
        lens
    in
    (* One stream per step; heads merged by ascending [in], ties broken
       by step order (two steps over the same label see the same node). *)
    let streams =
      Array.map (fun s -> Store.struct_stream ctx.store s.tw_label) steps_arr
    in
    let heads = Array.map (fun stream -> stream ()) streams in
    let advance i = heads.(i) <- streams.(i) () in
    let next_entry () =
      let best = ref (-1) in
      Array.iteri
        (fun i head ->
          match head with
          | None -> ()
          | Some xt ->
            (match !best with
            | -1 -> best := i
            | b ->
              (match heads.(b) with
              | Some bxt when bxt.Xasr.nin <= xt.Xasr.nin -> ()
              | Some _ | None -> best := i)))
        heads;
      match !best with
      | -1 -> None
      | i ->
        let xt = heads.(i) in
        advance i;
        Option.map (fun xt -> (i, xt)) xt
    in
    (* Partner index of an entry joining step [i]: for the first step,
       [-1] if the entry lies inside the anchor; for Desc, the topmost
       previous-stack entry that is a *strict* ancestor (a same-label
       node at the same [in] is excluded); for Child, the entry whose
       [in] equals the parent pointer, searched downward.  [None] when
       the entry joins nothing. *)
    let partner_of i (xt : Xasr.tuple) =
      let nin = xt.Xasr.nin in
      if i = 0 then (if lo < nin && xt.Xasr.nout < hi then Some (-1) else None)
      else
        let found =
          match steps_arr.(i).tw_axis with
          | Twig_desc ->
            let top = lens.(i - 1) - 1 in
            if top < 0 then -1
            else begin
              let t, _ = get (i - 1) top in
              if tuple_in t = nin then top - 1 else top
            end
          | Twig_child ->
            let rec find j =
              if j < 0 then -1
              else begin
                let t, _ = get (i - 1) j in
                let pin = tuple_in t in
                if pin = xt.Xasr.parent_in then j
                else if pin < xt.Xasr.parent_in then -1
                else find (j - 1)
              end
            in
            find (lens.(i - 1) - 1)
        in
        if found >= 0 then Some found else None
    in
    let solutions = ref [] in
    (* All chains from a step-[i] entry [(tuple, ptr)] down to step 0,
       leaf-first. *)
    let rec chains i tuple ptr =
      if i = 0 then [ [ tuple ] ]
      else begin
        let partners =
          match steps_arr.(i).tw_axis with
          | Twig_desc -> List.init (ptr + 1) Fun.id
          | Twig_child -> [ ptr ]
        in
        List.concat_map
          (fun p ->
            let t, q = get (i - 1) p in
            List.map (fun chain -> tuple :: chain) (chains (i - 1) t q))
          partners
      end
    in
    let rec consume () =
      tick ctx;
      match next_entry () with
      | None -> ()
      | Some (i, xt) ->
        pop_closed xt.Xasr.nin;
        (match partner_of i xt with
         | None -> ()
         | Some ptr ->
           let tuple = Tuple.of_xasr xt in
           if i < k - 1 then push i (tuple, ptr)
           else
             List.iter
               (fun chain ->
                 match List.rev chain with
                 | [] -> ()
                 | first :: rest ->
                   solutions := List.fold_left Tuple.concat first rest :: !solutions)
               (chains i tuple ptr));
        consume ()
    in
    consume ();
    (* Lexicographic (a1.in, ..., ak.in) order = the nested-loop plan's
       output order. *)
    let by_ins t1 t2 =
      let rec go i =
        if i >= k then 0
        else begin
          let c = Int.compare (as_int t1.(i * 5)) (as_int t2.(i * 5)) in
          if c <> 0 then c else go (i + 1)
        end
      in
      go 0
    in
    List.sort by_ins !solutions
  in
  let clear_on_rebind =
    match anchor with
    | None -> false
    | Some (lo, hi) -> operand_param_dep lo || operand_param_dep hi
  in
  replay_op ~schema ~kids:[] ~clear_on_rebind ~ctx
    ~info:
      { name = "twig-match";
        detail =
          String.concat " / "
            (List.map
               (fun s ->
                 Printf.sprintf "%s%s:%s"
                   (match s.tw_axis with Twig_child -> "child " | Twig_desc -> "desc ")
                   s.tw_alias s.tw_label)
               steps)
          ^ (match anchor with
            | None -> ""
            | Some (lo, hi) ->
              Printf.sprintf "; anchor (%s, %s)"
                (Xqdb_tpm.Tpm_print.operand_to_string lo)
                (Xqdb_tpm.Tpm_print.operand_to_string hi)) }
    ~fill

(* --- project, sort, materialize ------------------------------------------ *)

let tuples_equal t1 t2 = Array.for_all2 Tuple.value_equal t1 t2

(* Project works batch-to-batch: each row of the child's batch is
   remapped into a reusable output batch sized off the child's, skipping
   the row-generator machinery entirely. *)
let project ~cols ~dedup child =
  let positions = Array.of_list (List.map (Tuple.position child.schema) cols) in
  let width = Array.length positions in
  (* The last row emitted, for one-pass adjacent dedup over sorted
     input. *)
  let prev = ref None in
  let accept tuple =
    match dedup, !prev with
    | `No, _ -> true
    | `Adjacent, Some p when tuples_equal p tuple -> false
    | `Adjacent, (Some _ | None) ->
      prev := Some tuple;
      true
  in
  let out = ref None in
  let rec next_batch () =
    match child.next_batch () with
    | None -> None
    | Some cb ->
      let b =
        match !out with
        | Some b when b.Tuple.cap >= cb.Tuple.cap -> b
        | Some _ | None ->
          let b = Tuple.batch_create ~width (max 1 cb.Tuple.cap) in
          out := Some b;
          b
      in
      Tuple.batch_clear b;
      for i = 0 to cb.Tuple.len - 1 do
        let projected = Array.map (fun p -> cb.Tuple.cols.(p).(i)) positions in
        if accept projected then Tuple.batch_push b projected
      done;
      if b.Tuple.len = 0 then next_batch () else Some b
  in
  make ~schema:cols ~kids:[child] ~next_batch
    ~reset:(fun () ->
      child.reset ();
      prev := None)
    ~info:
      { name = "project";
        detail =
          String.concat ", "
            (List.map (fun c -> Printf.sprintf "%s.%s" c.A.rel (A.field_name c.A.field)) cols)
          ^ (match dedup with `No -> "" | `Adjacent -> "; dedup:adjacent") }
    ()

let key_positions schema key_cols =
  Array.of_list (List.map (Tuple.position schema) key_cols)

let compare_on positions t1 t2 =
  let rec go i =
    if i >= Array.length positions then 0
    else begin
      let c = Tuple.value_compare t1.(positions.(i)) t2.(positions.(i)) in
      if c <> 0 then c else go (i + 1)
    end
  in
  go 0

let sort_detail key_cols =
  String.concat ", "
    (List.map (fun c -> Printf.sprintf "%s.%s" c.A.rel (A.field_name c.A.field)) key_cols)
  ^ "; dedup"

let sort ~mode ~key_cols child ctx =
  let positions = key_positions child.schema key_cols in
  (* Sorted input: drop every row whose key equals its predecessor's. *)
  let dedup tuples =
    let rec go prev = function
      | [] -> []
      | t :: rest ->
        (match prev with
         | Some p when compare_on positions p t = 0 -> go prev rest
         | Some _ | None -> t :: go (Some t) rest)
    in
    go None tuples
  in
  let fill_mem () = dedup (List.stable_sort (compare_on positions) (drain child)) in
  let fill_external () =
    let compare_records a b =
      Xqdb_storage.Bytes_codec.compare_bytes (Tuple.key_of_encoded a) (Tuple.key_of_encoded b)
    in
    let sorter = Xqdb_storage.Ext_sort.create ctx.pool ~compare:compare_records in
    iter_rows
      (fun tuple ->
        Xqdb_storage.Ext_sort.feed sorter (Tuple.encode_with_key ~key_positions:positions tuple))
      child;
    let cursor = Xqdb_storage.Ext_sort.sorted_cursor sorter in
    let rec collect acc =
      tick ctx;
      match cursor () with
      | None -> List.rev acc
      | Some record -> collect (snd (Tuple.decode_keyed record) :: acc)
    in
    dedup (collect [])
  in
  let fill = match mode with
    | `In_mem -> fill_mem
    | `External -> fill_external
  in
  replay_op ~schema:child.schema ~kids:[child] ~ctx
    ~clear_on_rebind:child.param_dep
    ~info:
      { name = (match mode with `In_mem -> "sort" | `External -> "ext-sort");
        detail = sort_detail key_cols }
    ~fill

let btree_sort ~key_cols child ctx =
  let positions = key_positions child.schema key_cols in
  let fill () =
    let bt = Xqdb_storage.Btree.create ctx.pool in
    (* Key collisions overwrite: the duplicate elimination wanted on
       vartuples. *)
    iter_rows
      (fun tuple ->
        tick ctx;
        Xqdb_storage.Btree.insert bt
          ~key:(Tuple.key_of_encoded (Tuple.encode_with_key ~key_positions:positions tuple))
          ~value:(Tuple.encode tuple))
      child;
    let cursor = Xqdb_storage.Btree.scan_range bt in
    let rec collect acc =
      tick ctx;
      match cursor () with
      | None -> List.rev acc
      | Some (_, value) -> collect (Tuple.decode value :: acc)
    in
    collect []
  in
  replay_op ~schema:child.schema ~kids:[child] ~ctx
    ~clear_on_rebind:child.param_dep
    ~info:{ name = "btree-sort"; detail = sort_detail key_cols }
    ~fill

let materialize where child ctx =
  match where with
  | `Mem ->
    replay_op ~schema:child.schema ~kids:[child] ~ctx
      ~clear_on_rebind:child.param_dep
      ~info:{ name = "materialize"; detail = "memory" }
      ~fill:(fun () -> drain child)
  | `Disk ->
    let replay, forget = spool ctx child in
    let rows = ref None in
    let rewind () = rows := Some (replay ()) in
    let rec gen () =
      match !rows with
      | Some pull -> pull ()
      | None ->
        rewind ();
        gen ()
    in
    make ~schema:child.schema ~kids:[child]
      ~clear:
        (if child.param_dep then (fun () ->
             forget ();
             rows := None)
         else ignore)
      ~info:{ name = "materialize"; detail = "disk" }
      ~next_batch:(batched ctx ~schema:child.schema gen)
      ~reset:rewind
      ()
