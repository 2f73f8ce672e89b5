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
  scan_domains : int;
}
(* Owned by the query's driving domain; par_scan workers only read the
   immutable fields and return their batches to the owner. *)
[@@domain_local]

let make_ctx ?budget ?(params = Tuple.no_params) ?(batch_size = 256)
    ?(scan_domains = 1) store =
  if batch_size < 1 then invalid_arg "Phys_op.make_ctx: batch_size must be positive";
  if scan_domains < 1 then invalid_arg "Phys_op.make_ctx: scan_domains must be positive";
  { store; pool = Store.pool store; budget; params; batch_size; scan_domains }

let with_params ctx params = { ctx with params }

let set_budget ctx budget = ctx.budget <- budget

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
  children : info list;
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

(* Operators never hold page pins between [next_batch] calls — every
   access goes through the pool's scoped [with_page] — so "closing" a
   drained tree is a sanitizer checkpoint, not a resource release: under
   a sanitizing pool it asserts the discipline actually held. *)
let close ctx op =
  ignore op;
  if Xqdb_storage.Buffer_pool.sanitizing ctx.pool then
    Xqdb_storage.Buffer_pool.assert_unpinned ~where:"Phys_op.close" ctx.pool

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

(* Sum two profiles of the same plan shape — used when a nested relfor
   re-instantiates the same operator tree once per outer binding and the
   engine wants one aggregate breakdown per compile-time site. *)
let rec merge_profile a b =
  { op = a.op;
    args = a.args;
    rows = a.rows + b.rows;
    batches = a.batches + b.batches;
    ios = a.ios + b.ios;
    own_ios = a.own_ios + b.own_ios;
    seconds = a.seconds +. b.seconds;
    own_seconds = a.own_seconds +. b.own_seconds;
    inputs = merge_inputs a.inputs b.inputs }

and merge_inputs xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | x :: xs', y :: ys' -> merge_profile x y :: merge_inputs xs' ys'

let rec pp_profile ppf p =
  if String.equal p.args "" then Format.fprintf ppf "@[<v 2>%s" p.op
  else Format.fprintf ppf "@[<v 2>%s [%s]" p.op p.args;
  Format.fprintf ppf "  rows %d  batches %d  ios %d (own %d)  %.3fs (own %.3fs)" p.rows
    p.batches p.ios p.own_ios p.seconds p.own_seconds;
  List.iter (fun i -> Format.fprintf ppf "@,%a" pp_profile i) p.inputs;
  Format.fprintf ppf "@]"

let profile_to_string p = Format.asprintf "%a" pp_profile p

let rec pp_info ppf i =
  if String.equal i.detail "" then Format.fprintf ppf "@[<v 2>%s" i.name
  else Format.fprintf ppf "@[<v 2>%s [%s]" i.name i.detail;
  List.iter (fun c -> Format.fprintf ppf "@,%a" pp_info c) i.children;
  Format.fprintf ppf "@]"

let info_to_string i = Format.asprintf "%a" pp_info i

let drain op =
  op.reset ();
  let acc = ref [] in
  let rec go () =
    match op.next_batch () with
    | None -> List.rev !acc
    | Some b ->
      for i = 0 to b.Tuple.len - 1 do
        acc := Tuple.batch_row b i :: !acc
      done;
      go ()
  in
  go ()

let count op =
  op.reset ();
  let rec go n =
    match op.next_batch () with
    | None -> n
    | Some b -> go (n + b.Tuple.len)
  in
  go 0

(* A tuple-at-a-time view of a child's batch stream, for operators whose
   inner logic is inherently row-wise (joins, sorts, spools).  Rows are
   materialized lazily and the current batch is fully consumed before
   the child is asked for the next one, so batch reuse is safe. *)
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

let out_batch ctx schema = Tuple.batch_create ~width:(List.length schema) ctx.batch_size

(* Wrap a row generator into a batch producer over a reusable output
   batch; the budget is polled once per batch. *)
let batched ctx ~schema gen =
  let b = out_batch ctx schema in
  fun () ->
    tick ctx;
    Tuple.batch_clear b;
    let rec fill () =
      if Tuple.batch_full b then ()
      else
        match gen () with
        | None -> ()
        | Some tuple ->
          Tuple.batch_push b tuple;
          fill ()
    in
    fill ();
    if b.Tuple.len = 0 then None else Some b

let preds_detail preds =
  String.concat " ∧ " (List.map Xqdb_tpm.Tpm_print.pred_to_string preds)

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

(* Shared shape of the batch scans: a page-at-a-time cursor yields whole
   leaves of decoded XASR tuples; each [next_batch] stages rows straight
   into the output columns and evaluates the compiled predicates in
   place — no per-tuple [Tuple.t] is allocated on the scan path. *)
let xasr_page_scan ctx ~schema ~preds ~info ~make_pages =
  let keep = Tuple.compile_preds_batch ~params:ctx.params schema preds in
  let make_cursor () =
    let pages = make_pages () in
    let pending = ref [||] in
    let pos = ref 0 in
    let b = out_batch ctx schema in
    fun () ->
      tick ctx;
      Tuple.batch_clear b;
      let exhausted = ref false in
      while (not (Tuple.batch_full b)) && not !exhausted do
        if !pos < Array.length !pending then begin
          let xt = (!pending).(!pos) in
          incr pos;
          stage_xasr b xt;
          if keep b b.Tuple.len then b.Tuple.len <- b.Tuple.len + 1
        end
        else
          match pages () with
          | None -> exhausted := true
          | Some arr ->
            pending := arr;
            pos := 0
      done;
      if b.Tuple.len = 0 then None else Some b
  in
  cursor_op ~schema ~param_dep:(preds_param_dep preds) ~info ~make_cursor

let full_scan ctx alias ~preds =
  xasr_page_scan ctx ~schema:(Tuple.xasr_schema alias) ~preds
    ~info:
      { name = Printf.sprintf "scan XASR[%s]" alias;
        detail = preds_detail preds;
        children = [] }
    ~make_pages:(fun () -> Store.scan_all_pages ctx.store)

let struct_scan ctx alias ~label ~preds =
  xasr_page_scan ctx ~schema:(Tuple.xasr_schema alias) ~preds
    ~info:
      { name = Printf.sprintf "sidx-scan XASR[%s]" alias;
        detail =
          Printf.sprintf "struct(%s)%s" label
            (if preds = [] then "" else "; " ^ preds_detail preds);
        children = [] }
    ~make_pages:(fun () -> Store.struct_stream_pages ctx.store label)

let label_scan ctx alias ~ntype ~value ~preds =
  let schema = Tuple.xasr_schema alias in
  let keep = Tuple.compile_preds_batch ~params:ctx.params schema preds in
  let make_cursor () =
    (* The label index yields whole leaves of matching [in]s; each one
       still costs a primary fetch (that is the access path's nature),
       but staging and filtering stay allocation-free. *)
    let pages = Store.label_ins_pages ctx.store ntype value in
    let pending = ref [||] in
    let pos = ref 0 in
    let b = out_batch ctx schema in
    fun () ->
      tick ctx;
      Tuple.batch_clear b;
      let exhausted = ref false in
      while (not (Tuple.batch_full b)) && not !exhausted do
        if !pos < Array.length !pending then begin
          let nin = (!pending).(!pos) in
          incr pos;
          match Store.fetch ctx.store nin with
          | None ->
            Xqdb_storage.Xqdb_error.corrupt "Phys_op.label_scan: dangling label-index entry"
          | Some xt ->
            stage_xasr b xt;
            if keep b b.Tuple.len then b.Tuple.len <- b.Tuple.len + 1
        end
        else
          match pages () with
          | None -> exhausted := true
          | Some arr ->
            pending := arr;
            pos := 0
      done;
      if b.Tuple.len = 0 then None else Some b
  in
  cursor_op ~schema ~param_dep:(preds_param_dep preds)
    ~info:
      { name = Printf.sprintf "idx-scan XASR[%s]" alias;
        detail =
          Printf.sprintf "label(%s, %s)%s" (Xasr.node_type_name ntype) value
            (if preds = [] then "" else "; " ^ preds_detail preds);
        children = [] }
    ~make_cursor

let empty schema =
  make ~schema
    ~info:{ name = "empty"; detail = "provably empty"; children = [] }
    ~next_batch:(fun () -> None)
    ~reset:(fun () -> ())
    ()

let singleton schema tuple =
  let b = Tuple.batch_create ~width:(List.length schema) 1 in
  Tuple.batch_push b tuple;
  let produced = ref false in
  make ~schema
    ~info:{ name = "unit"; detail = ""; children = [] }
    ~next_batch:(fun () ->
      if !produced then None
      else begin
        produced := true;
        Some b
      end)
    ~reset:(fun () -> produced := false)
    ()

(* --- parallel scan ------------------------------------------------------ *)

(* Partitioned clustered scan: the document's [in] space [1, root.out]
   is split into one contiguous range per domain; each domain runs a
   page-at-a-time primary scan of its range against the shared
   (domain-safe) buffer pool and filters locally.  Concatenating the
   partitions in range order is document order, so the output is
   byte-identical to {!full_scan}.  The result is materialized once and
   replayed across [reset]s; the cache survives rebinds unless the
   predicates read parameter slots. *)
let par_scan_fill ctx ~keep ~domains () =
  if Store.tuple_count ctx.store = 0 then []
  else begin
    let root = Store.root_tuple ctx.store in
    let total = root.Xasr.nout in
    let n = max 1 (min domains total) in
    let chunk = (total + n - 1) / n in
    let ranges =
      List.init n (fun d ->
          let lo = 1 + (d * chunk) in
          let hi = min total (lo + chunk - 1) in
          (lo, hi))
      |> List.filter (fun (lo, hi) -> lo <= hi)
    in
    let scan_range (lo, hi) () =
      let pages = Store.scan_in_range_pages ctx.store ~lo ~hi in
      let acc = ref [] in
      let rec go () =
        tick ctx;
        match pages () with
        | None -> ()
        | Some arr ->
          Array.iter
            (fun xt ->
              let tuple = Tuple.of_xasr xt in
              if keep tuple then acc := tuple :: !acc)
            arr;
          go ()
      in
      go ();
      List.rev !acc
    in
    match ranges with
    | [ r ] -> scan_range r ()
    | ranges ->
      (* Workers charge the request that spawned them, budget included. *)
      let scope = Xqdb_storage.Metrics.current () in
      let spawn r = Domain.spawn (fun () -> Xqdb_storage.Metrics.with_scope scope (scan_range r)) in
      let handles = List.map spawn ranges in
      (* Join every domain before re-raising: an abandoned domain would
         keep scanning against the shared pool. *)
      let outcomes =
        List.map (fun h -> match Domain.join h with r -> Ok r | exception e -> Error e)
          handles
      in
      tick ctx;
      List.concat_map (function Ok part -> part | Error e -> raise e) outcomes
  end

(* --- joins ------------------------------------------------------------- *)

type probe =
  | Probe_child of A.operand
  | Probe_desc of A.operand * A.operand
  | Probe_pk of A.operand

let nl_join ?(materialize_inner = `Mem) ?(semi = false) ~preds left right ctx =
  let schema = left.schema @ right.schema in
  let keep = Tuple.compile_preds ~params:ctx.params schema preds in
  let left_cur = cursor_of left in
  (* Inner-side cache.  [clear] drops it on rebind, but only when the
     inner subtree reads parameter slots — a parameter-independent inner
     cache is valid for every outer binding and surviving rebinds is the
     template payoff. *)
  let inner_next, inner_rewind, inner_clear, cache_detail =
    match materialize_inner with
    | `None ->
      let rc = cursor_of right in
      (rc.pull, rc.restart, ignore, "recompute")
    | `Mem ->
      let cache = ref None in
      let pos = ref [] in
      let fill () =
        match !cache with
        | Some c -> c
        | None ->
          let c = drain right in
          cache := Some c;
          c
      in
      let next () =
        match !pos with
        | [] -> None
        | tuple :: rest ->
          pos := rest;
          Some tuple
      in
      let clear () =
        cache := None;
        pos := []
      in
      (next, (fun () -> pos := fill ()), clear, "inner in memory")
    | `Disk ->
      let rc = cursor_of right in
      let spool = ref None in
      let cursor = ref (fun () -> None) in
      let fill () =
        match !spool with
        | Some hf -> hf
        | None ->
          let hf = Xqdb_storage.Heap_file.create ctx.pool in
          rc.restart ();
          let rec go () =
            match rc.pull () with
            | None -> ()
            | Some tuple ->
              ignore (Xqdb_storage.Heap_file.append hf (Tuple.encode tuple));
              go ()
          in
          go ();
          spool := Some hf;
          hf
      in
      let next () =
        match !cursor () with
        | None -> None
        | Some data -> Some (Tuple.decode data)
      in
      let clear () =
        spool := None;
        cursor := (fun () -> None)
      in
      (next, (fun () -> cursor := Xqdb_storage.Heap_file.scan (fill ())), clear, "inner on disk")
  in
  let current_left = ref None in
  let gen () =
    let rec step () =
      match !current_left with
      | None ->
        (match left_cur.pull () with
         | None -> None
         | Some l ->
           current_left := Some l;
           inner_rewind ();
           step ())
      | Some l ->
        (match inner_next () with
         | None ->
           current_left := None;
           step ()
         | Some r ->
           let tuple = Tuple.concat l r in
           if keep tuple then begin
             (* Semijoin mode: one match per outer tuple suffices. *)
             if semi then current_left := None;
             Some tuple
           end
           else step ())
    in
    step ()
  in
  let reset () =
    left_cur.restart ();
    current_left := None
  in
  make ~schema ~kids:[left; right]
    ~next_batch:(batched ctx ~schema gen) ~reset
    ~param_dep:(preds_param_dep preds)
    ~clear:(if right.param_dep then inner_clear else ignore)
    ~info:
      { name = (if preds = [] then (if semi then "semi-product" else "product")
                else if semi then "semi-nl-join"
                else "nl-join");
        detail =
          (if preds = [] then cache_detail else preds_detail preds ^ "; " ^ cache_detail);
        children = [left.info; right.info] }
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
           else preds_detail preds ^ Printf.sprintf "; block %d" block_size);
        children = [left.info; right.info] }
    ()

let inl_join ?(semi = false) ctx ~probe ~alias ~preds ~residual left =
  let inner_schema = Tuple.xasr_schema alias in
  let schema = left.schema @ inner_schema in
  let keep_inner = Tuple.compile_preds ~params:ctx.params inner_schema preds in
  let keep_residual = Tuple.compile_preds ~params:ctx.params schema residual in
  let as_int = function
    | Tuple.I v -> v
    | Tuple.S s -> invalid_arg (Printf.sprintf "inl_join: non-integer probe value %S" s)
  in
  let probe_param_dep =
    match probe with
    | Probe_child op | Probe_pk op -> operand_param_dep op
    | Probe_desc (i, o) -> operand_param_dep i || operand_param_dep o
  in
  let make_probe =
    match probe with
    | Probe_child op ->
      let v = Tuple.compile_operand ~params:ctx.params left.schema op in
      fun l ->
        let ins = Store.children_ins ctx.store (as_int (v l)) in
        let pull () =
          match ins () with
          | None -> None
          | Some nin ->
            (match Store.fetch ctx.store nin with
             | None -> Xqdb_storage.Xqdb_error.corrupt "inl_join: dangling parent-index entry"
             | Some xt -> Some xt)
        in
        pull
    | Probe_desc (in_op, out_op) ->
      let vin = Tuple.compile_operand ~params:ctx.params left.schema in_op in
      let vout = Tuple.compile_operand ~params:ctx.params left.schema out_op in
      fun l -> Store.scan_in_range ctx.store ~lo:(as_int (vin l) + 1) ~hi:(as_int (vout l) - 1)
    | Probe_pk op ->
      let v = Tuple.compile_operand ~params:ctx.params left.schema op in
      fun l ->
        let fetched = ref false in
        fun () ->
          if !fetched then None
          else begin
            fetched := true;
            Store.fetch ctx.store (as_int (v l))
          end
  in
  let left_cur = cursor_of left in
  let current = ref None in
  let gen () =
    let rec step () =
      match !current with
      | None ->
        (match left_cur.pull () with
         | None -> None
         | Some l ->
           current := Some (l, make_probe l);
           step ())
      | Some (l, cursor) ->
        (match cursor () with
         | None ->
           current := None;
           step ()
         | Some xt ->
           let inner = Tuple.of_xasr xt in
           if keep_inner inner then begin
             let tuple = Tuple.concat l inner in
             if keep_residual tuple then begin
               if semi then current := None;
               Some tuple
             end
             else step ()
           end
           else step ())
    in
    step ()
  in
  let reset () =
    left_cur.restart ();
    current := None
  in
  let probe_detail =
    match probe with
    | Probe_child op -> Printf.sprintf "%s.parent_in = %s" alias (Xqdb_tpm.Tpm_print.operand_to_string op)
    | Probe_desc (i, o) ->
      Printf.sprintf "%s.in in (%s, %s)" alias (Xqdb_tpm.Tpm_print.operand_to_string i)
        (Xqdb_tpm.Tpm_print.operand_to_string o)
    | Probe_pk op -> Printf.sprintf "%s.in = %s" alias (Xqdb_tpm.Tpm_print.operand_to_string op)
  in
  make ~schema ~kids:[left]
    ~next_batch:(batched ctx ~schema gen) ~reset
    ~param_dep:(probe_param_dep || preds_param_dep preds || preds_param_dep residual)
    ~info:
      { name = (if semi then "semi-inl-join" else "inl-join");
        detail =
          probe_detail
          ^ (if preds = [] then "" else "; " ^ preds_detail preds)
          ^ (if residual = [] then "" else "; residual " ^ preds_detail residual);
        children = [left.info] }
    ()

let replay_op ~schema ~info ~kids ~clear_on_rebind ~ctx ~fill =
  (* Materialize-on-first-use operator over a list-producing fill; the
     cached list is served out through a reusable batch. *)
  let cache = ref None in
  let serving = ref None in
  let ensure () =
    match !cache with
    | Some c -> c
    | None ->
      let c = fill () in
      cache := Some c;
      c
  in
  let out = out_batch ctx schema in
  (* A fill that must be dropped on rebind reads parameter slots, so the
     operator itself is parameter-dependent (kids contribute via make). *)
  make ~schema ~info ~kids ~param_dep:clear_on_rebind
    ~clear:
      (if clear_on_rebind then (fun () ->
           cache := None;
           serving := None)
       else ignore)
    ~next_batch:(fun () ->
      tick ctx;
      let items = match !serving with
        | Some items -> items
        | None -> ensure ()
      in
      Tuple.batch_clear out;
      let rec take = function
        | [] -> []
        | items when Tuple.batch_full out -> items
        | tuple :: rest ->
          Tuple.batch_push out tuple;
          take rest
      in
      let rest = take items in
      serving := Some rest;
      if out.Tuple.len = 0 then None else Some out)
    ~reset:(fun () -> serving := None)
    ()

let par_scan ctx ~domains alias ~preds =
  if domains < 1 then invalid_arg "Phys_op.par_scan: domains must be positive";
  let schema = Tuple.xasr_schema alias in
  let keep = Tuple.compile_preds ~params:ctx.params schema preds in
  replay_op ~schema ~kids:[] ~ctx
    ~clear_on_rebind:(preds_param_dep preds)
    ~info:
      { name = Printf.sprintf "par-scan XASR[%s]" alias;
        detail =
          Printf.sprintf "domains %d" domains
          ^ (if preds = [] then "" else "; " ^ preds_detail preds);
        children = [] }
    ~fill:(par_scan_fill ctx ~keep ~domains)

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
  let keep_inner = Tuple.compile_preds ~params:ctx.params inner_schema preds in
  let keep_residual = Tuple.compile_preds ~params:ctx.params schema residual in
  let as_int = function
    | Tuple.I v -> v
    | Tuple.S s -> invalid_arg (Printf.sprintf "struct_join: non-integer bound %S" s)
  in
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
  let left_cur = cursor_of left in
  let current = ref None in
  let gen () =
    let rec step () =
      match !current with
      | None ->
        (match left_cur.pull () with
         | None -> None
         | Some l ->
           let tuples, ins = load () in
           let lo_v = as_int (vlo l) in
           let hi_v = as_int (vhi l) in
           current := Some (l, hi_v, ref (lower_bound ins lo_v), tuples, ins);
           step ())
      | Some (l, hi_v, idx, tuples, ins) ->
        if !idx >= Array.length tuples || ins.(!idx) >= hi_v then begin
          current := None;
          step ()
        end
        else begin
          let inner = tuples.(!idx) in
          incr idx;
          if keep_inner inner then begin
            let tuple = Tuple.concat l inner in
            if keep_residual tuple then begin
              if semi then current := None;
              Some tuple
            end
            else step ()
          end
          else step ()
        end
    in
    step ()
  in
  let reset () =
    left_cur.restart ();
    current := None
  in
  make ~schema ~kids:[left]
    ~next_batch:(batched ctx ~schema gen) ~reset
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
          ^ (if preds = [] then "" else "; " ^ preds_detail preds)
          ^ (if residual = [] then "" else "; residual " ^ preds_detail residual);
        children = [left.info] }
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
  let as_int = function
    | Tuple.I v -> v
    | Tuple.S s -> invalid_arg (Printf.sprintf "twig_match: non-integer bound %S" s)
  in
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
    (* Partner index of an entry joining step [i] (> 0): for Desc, the
       topmost previous-stack entry that is a *strict* ancestor (a
       same-label node at the same [in] is excluded); for Child, the
       entry whose [in] equals the parent pointer, searched downward. *)
    let partner_of i nin parent_in =
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
            if pin = parent_in then j else if pin < parent_in then -1 else find (j - 1)
          end
        in
        find (lens.(i - 1) - 1)
    in
    let solutions = ref [] in
    (* All chains from stack [i] entry [j] down to stack 0, leaf-first. *)
    let rec chains i j =
      let tuple, ptr = get i j in
      if i = 0 then [ [ tuple ] ]
      else begin
        let partners =
          match steps_arr.(i).tw_axis with
          | Twig_desc -> List.init (ptr + 1) (fun p -> p)
          | Twig_child -> [ ptr ]
        in
        List.concat_map
          (fun p -> List.map (fun chain -> tuple :: chain) (chains (i - 1) p))
          partners
      end
    in
    let emit_leaf tuple ptr =
      let leaf_chains =
        if k = 1 then [ [ tuple ] ]
        else begin
          let partners =
            match steps_arr.(k - 1).tw_axis with
            | Twig_desc -> List.init (ptr + 1) (fun p -> p)
            | Twig_child -> [ ptr ]
          in
          List.concat_map
            (fun p -> List.map (fun chain -> tuple :: chain) (chains (k - 2) p))
            partners
        end
      in
      List.iter
        (fun chain ->
          let parts = List.rev chain in
          let solution =
            match parts with
            | [] -> [||]
            | first :: rest -> List.fold_left Tuple.concat first rest
          in
          solutions := solution :: !solutions)
        leaf_chains
    in
    let rec consume () =
      tick ctx;
      match next_entry () with
      | None -> ()
      | Some (i, xt) ->
        let nin = xt.Xasr.nin in
        pop_closed nin;
        (if i = 0 then begin
           if lo < nin && xt.Xasr.nout < hi then
             if k = 1 then emit_leaf (Tuple.of_xasr xt) (-1)
             else push 0 (Tuple.of_xasr xt, -1)
         end
         else begin
           let ptr = partner_of i nin xt.Xasr.parent_in in
           if ptr >= 0 then
             if i = k - 1 then emit_leaf (Tuple.of_xasr xt) ptr
             else push i (Tuple.of_xasr xt, ptr)
         end);
        consume ()
    in
    consume ();
    (* Lexicographic (a1.in, ..., ak.in) order = the nested-loop plan's
       output order. *)
    let in_positions = Array.init k (fun i -> i * 5) in
    let by_ins t1 t2 =
      let rec go i =
        if i >= k then 0
        else begin
          let c = Int.compare (as_int t1.(in_positions.(i))) (as_int t2.(in_positions.(i))) in
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
                (Xqdb_tpm.Tpm_print.operand_to_string hi));
        children = [] }
    ~fill

(* --- filter, project, sort, materialize -------------------------------- *)

(* Filter and project work batch-to-batch: rows of the child's batch are
   tested (and for project, remapped) column-wise into a reusable output
   batch sized off the child's, skipping the row-generator machinery
   entirely. *)

let ensure_out out ~width cap =
  match !out with
  | Some b when b.Tuple.cap >= cap -> b
  | Some _ | None ->
    let b = Tuple.batch_create ~width (max 1 cap) in
    out := Some b;
    b

let filter ?params ~preds child =
  let keep = Tuple.compile_preds_batch ?params child.schema preds in
  let width = List.length child.schema in
  let out = ref None in
  let rec next_batch () =
    match child.next_batch () with
    | None -> None
    | Some cb ->
      let b = ensure_out out ~width cb.Tuple.cap in
      Tuple.batch_clear b;
      for i = 0 to cb.Tuple.len - 1 do
        if keep cb i then Tuple.batch_copy_row cb i b
      done;
      if b.Tuple.len = 0 then next_batch () else Some b
  in
  make ~schema:child.schema ~kids:[child] ~next_batch
    ~reset:child.reset
    ~param_dep:(preds_param_dep preds)
    ~info:{ name = "filter"; detail = preds_detail preds; children = [child.info] }
    ()

let tuples_equal t1 t2 = Array.for_all2 Tuple.value_equal t1 t2

let project ~cols ~dedup child =
  let positions = Array.of_list (List.map (Tuple.position child.schema) cols) in
  let width = Array.length positions in
  let dedup_name, fresh_state =
    match dedup with
    | `No -> ("", fun () -> fun _ -> true)
    | `Adjacent ->
      ( "dedup:adjacent",
        fun () ->
          let prev = ref None in
          fun tuple ->
            match !prev with
            | Some p when tuples_equal p tuple -> false
            | Some _ | None ->
              prev := Some tuple;
              true )
    | `Hash ->
      ( "dedup:hash",
        fun () ->
          let seen = Hashtbl.create 256 in
          fun tuple ->
            let key = Tuple.encode tuple in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.replace seen key ();
              true
            end )
  in
  let accept = ref (fresh_state ()) in
  let out = ref None in
  let rec next_batch () =
    match child.next_batch () with
    | None -> None
    | Some cb ->
      let b = ensure_out out ~width cb.Tuple.cap in
      Tuple.batch_clear b;
      for i = 0 to cb.Tuple.len - 1 do
        let projected = Array.map (fun p -> cb.Tuple.cols.(p).(i)) positions in
        if !accept projected then Tuple.batch_push b projected
      done;
      if b.Tuple.len = 0 then next_batch () else Some b
  in
  make ~schema:cols ~kids:[child] ~next_batch
    ~reset:(fun () ->
      child.reset ();
      accept := fresh_state ())
    ~info:
      { name = "project";
        detail =
          String.concat ", "
            (List.map (fun c -> Printf.sprintf "%s.%s" c.A.rel (A.field_name c.A.field)) cols)
          ^ (if String.equal dedup_name "" then "" else "; " ^ dedup_name);
        children = [child.info] }
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

let sort ?(dedup = false) ~mode ~key_cols child ctx =
  let positions = key_positions child.schema key_cols in
  let dedup_pass tuples =
    if not dedup then tuples
    else begin
      let rec go prev = function
        | [] -> []
        | t :: rest ->
          (match prev with
           | Some p when compare_on positions p t = 0 -> go prev rest
           | Some _ | None -> t :: go (Some t) rest)
      in
      go None tuples
    end
  in
  let fill_mem () =
    dedup_pass (List.stable_sort (compare_on positions) (drain child))
  in
  let fill_external () =
    let compare_records a b =
      Xqdb_storage.Bytes_codec.compare_bytes (Tuple.key_of_encoded a) (Tuple.key_of_encoded b)
    in
    let sorter = Xqdb_storage.Ext_sort.create ctx.pool ~compare:compare_records in
    let cur = cursor_of child in
    cur.restart ();
    let rec feed () =
      match cur.pull () with
      | None -> ()
      | Some tuple ->
        Xqdb_storage.Ext_sort.feed sorter (Tuple.encode_with_key ~key_positions:positions tuple);
        feed ()
    in
    feed ();
    let cursor = Xqdb_storage.Ext_sort.sorted_cursor sorter in
    let rec collect acc =
      tick ctx;
      match cursor () with
      | None -> List.rev acc
      | Some record -> collect (snd (Tuple.decode_keyed record) :: acc)
    in
    dedup_pass (collect [])
  in
  let fill = match mode with
    | `In_mem -> fill_mem
    | `External -> fill_external
  in
  replay_op ~schema:child.schema ~kids:[child] ~ctx
    ~clear_on_rebind:child.param_dep
    ~info:
      { name = (match mode with `In_mem -> "sort" | `External -> "ext-sort");
        detail =
          String.concat ", "
            (List.map (fun c -> Printf.sprintf "%s.%s" c.A.rel (A.field_name c.A.field)) key_cols)
          ^ (if dedup then "; dedup" else "");
        children = [child.info] }
    ~fill

let btree_sort ?(dedup = true) ~key_cols child ctx =
  let positions = key_positions child.schema key_cols in
  let fill () =
    let bt = Xqdb_storage.Btree.create ctx.pool in
    let cur = cursor_of child in
    cur.restart ();
    let seq = ref 0 in
    let rec feed () =
      tick ctx;
      match cur.pull () with
      | None -> ()
      | Some tuple ->
        let key =
          if dedup then Tuple.key_of_encoded (Tuple.encode_with_key ~key_positions:positions tuple)
          else begin
            (* Non-dedup mode appends a sequence number as tiebreak. *)
            incr seq;
            let buf = Buffer.create 48 in
            Buffer.add_bytes buf
              (Tuple.key_of_encoded (Tuple.encode_with_key ~key_positions:positions tuple));
            Xqdb_storage.Bytes_codec.key_int buf !seq;
            Buffer.to_bytes buf
          end
        in
        Xqdb_storage.Btree.insert bt ~key ~value:(Tuple.encode tuple);
        feed ()
    in
    feed ();
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
    ~info:
      { name = "btree-sort";
        detail =
          String.concat ", "
            (List.map (fun c -> Printf.sprintf "%s.%s" c.A.rel (A.field_name c.A.field)) key_cols)
          ^ (if dedup then "; dedup" else "");
        children = [child.info] }
    ~fill

let materialize where child ctx =
  match where with
  | `Mem ->
    replay_op ~schema:child.schema ~kids:[child] ~ctx
      ~clear_on_rebind:child.param_dep
      ~info:{ name = "materialize"; detail = "memory"; children = [child.info] }
      ~fill:(fun () -> drain child)
  | `Disk ->
    let spool = ref None in
    let cursor = ref (fun () -> None) in
    let cur = cursor_of child in
    let fill () =
      match !spool with
      | Some hf -> hf
      | None ->
        let hf = Xqdb_storage.Heap_file.create ctx.pool in
        cur.restart ();
        let rec go () =
          tick ctx;
          match cur.pull () with
          | None -> ()
          | Some tuple ->
            ignore (Xqdb_storage.Heap_file.append hf (Tuple.encode tuple));
            go ()
        in
        go ();
        spool := Some hf;
        hf
    in
    let started = ref false in
    let gen () =
      if not !started then begin
        started := true;
        cursor := Xqdb_storage.Heap_file.scan (fill ())
      end;
      match !cursor () with
      | None -> None
      | Some data -> Some (Tuple.decode data)
    in
    make ~schema:child.schema ~kids:[child]
      ~clear:
        (if child.param_dep then (fun () ->
             spool := None;
             cursor := (fun () -> None);
             started := false)
         else ignore)
      ~info:{ name = "materialize"; detail = "disk"; children = [child.info] }
      ~next_batch:(batched ctx ~schema:child.schema gen)
      ~reset:(fun () ->
        started := true;
        cursor := Xqdb_storage.Heap_file.scan (fill ()))
      ()
