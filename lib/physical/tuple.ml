module A = Xqdb_tpm.Tpm_algebra
module Codec = Xqdb_storage.Bytes_codec

type value =
  | I of int
  | S of string

type t = value array

type schema = A.col list

let value_equal v1 v2 =
  match v1, v2 with
  | I a, I b -> Int.equal a b
  | S a, S b -> String.equal a b
  | I _, S _ | S _, I _ -> false

let value_compare v1 v2 =
  match v1, v2 with
  | I a, I b -> Int.compare a b
  | S a, S b -> String.compare a b
  | I _, S _ -> -1
  | S _, I _ -> 1

let position schema col =
  let rec go i = function
    | [] -> raise Not_found
    | c :: rest -> if c = col then i else go (i + 1) rest
  in
  go 0 schema

let concat = Array.append

let ground_operand env = function
  | A.Oextern_in x -> A.Oint (fst (env x))
  | A.Oextern_out x -> A.Oint (snd (env x))
  | (A.Ocol _ | A.Oint _ | A.Ostr _ | A.Otype _) as op -> op

(* Parameter slots: a template's outer-variable references compile to
   closures that read these mutable cells, so re-binding a plan to a new
   outer environment is a handful of writes, not a recompilation. *)

type param_slot = {
  mutable bound_in : int;
  mutable bound_out : int;
}
[@@domain_local]

type params = (Xqdb_xq.Xq_ast.var * param_slot) list

let no_params : params = []

let make_params vars : params =
  List.sort_uniq String.compare vars
  |> List.map (fun v -> (v, { bound_in = 0; bound_out = 0 }))

let param_vars (params : params) = List.map fst params

let bind_params (params : params) env =
  List.iter
    (fun (v, slot) ->
      let nin, nout = env v in
      slot.bound_in <- nin;
      slot.bound_out <- nout)
    params

(* What a compiled operand reads: a column position, a constant, or a
   parameter slot's in or out value. *)
type source =
  | Column of int
  | Const of value
  | Slot_in of param_slot
  | Slot_out of param_slot

let resolve ~fn params schema operand =
  let slot x =
    match List.assoc_opt x params with
    | Some s -> s
    | None ->
      invalid_arg
        (Printf.sprintf "Tuple.%s: unresolved external %s" fn (Xqdb_xq.Xq_print.var x))
  in
  match operand with
  | A.Ocol c -> Column (position schema c)
  | A.Oint v -> Const (I v)
  | A.Ostr s -> Const (S s)
  | A.Otype ty -> Const (I (Xqdb_xasr.Xasr.node_type_code ty))
  | A.Oextern_in x -> Slot_in (slot x)
  | A.Oextern_out x -> Slot_out (slot x)

let compile_operand ?(params = no_params) schema operand =
  match resolve ~fn:"compile_operand" params schema operand with
  | Column i -> fun tuple -> tuple.(i)
  | Const v -> fun _ -> v
  | Slot_in s -> fun _ -> I s.bound_in
  | Slot_out s -> fun _ -> I s.bound_out

let compile_pred ?params schema (p : A.pred) =
  let left = compile_operand ?params schema p.A.left in
  let right = compile_operand ?params schema p.A.right in
  match p.A.op with
  | A.Eq -> fun tuple -> value_equal (left tuple) (right tuple)
  | A.Lt -> fun tuple -> value_compare (left tuple) (right tuple) < 0
  | A.Gt -> fun tuple -> value_compare (left tuple) (right tuple) > 0

let compile_preds ?params schema preds =
  let compiled = List.map (compile_pred ?params schema) preds in
  fun tuple -> List.for_all (fun p -> p tuple) compiled

(* Columnar batches: one value array per schema column plus a fill
   length, over backing storage an operator allocates once and reuses
   across [next_batch] calls.  A consumer must finish with a batch before
   asking its producer for the next one — the arrays are overwritten in
   place. *)

type batch = {
  cols : value array array;
  cap : int;
  mutable len : int;
}
(* Producer-owned: a batch is filled and consumed on one domain. *)
[@@domain_local]

let batch_create ~width cap =
  if cap <= 0 then invalid_arg "Tuple.batch_create: capacity must be positive";
  { cols = Array.init width (fun _ -> Array.make cap (I 0)); cap; len = 0 }

let batch_clear b = b.len <- 0
let batch_full b = b.len >= b.cap

let batch_push b tuple =
  let row = b.len in
  Array.iteri (fun c col -> col.(row) <- tuple.(c)) b.cols;
  b.len <- row + 1

let batch_row b i =
  Array.map (fun col -> col.(i)) b.cols

(* Batch-compiled operands and predicates read column arrays directly —
   no per-row tuple is materialized on the scan hot paths. *)

let compile_operand_batch ?(params = no_params) schema operand =
  match resolve ~fn:"compile_operand_batch" params schema operand with
  | Column i -> fun b row -> b.cols.(i).(row)
  | Const v -> fun _ _ -> v
  | Slot_in s -> fun _ _ -> I s.bound_in
  | Slot_out s -> fun _ _ -> I s.bound_out

let compile_pred_batch ?params schema (p : A.pred) =
  let left = compile_operand_batch ?params schema p.A.left in
  let right = compile_operand_batch ?params schema p.A.right in
  match p.A.op with
  | A.Eq -> fun b row -> value_equal (left b row) (right b row)
  | A.Lt -> fun b row -> value_compare (left b row) (right b row) < 0
  | A.Gt -> fun b row -> value_compare (left b row) (right b row) > 0

let compile_preds_batch ?params schema preds =
  let compiled = List.map (compile_pred_batch ?params schema) preds in
  fun b row -> List.for_all (fun p -> p b row) compiled

let xasr_schema alias =
  [ A.col alias A.In;
    A.col alias A.Out;
    A.col alias A.Parent_in;
    A.col alias A.Type_;
    A.col alias A.Value ]

let of_xasr (x : Xqdb_xasr.Xasr.tuple) =
  [| I x.Xqdb_xasr.Xasr.nin;
     I x.nout;
     I x.parent_in;
     I (Xqdb_xasr.Xasr.node_type_code x.ntype);
     S x.value |]

let encode tuple =
  let buf = Buffer.create 32 in
  Codec.write_uvarint buf (Array.length tuple);
  Array.iter
    (fun v ->
      match v with
      | I x ->
        Buffer.add_char buf '\000';
        Codec.write_uvarint buf x
      | S s ->
        Buffer.add_char buf '\001';
        Codec.write_string buf s)
    tuple;
  Buffer.to_bytes buf

let decode_reader r =
  let n = Codec.read_uvarint r in
  Array.init n (fun _ ->
      let tag = Bytes.get r.Codec.data r.Codec.pos in
      r.Codec.pos <- r.Codec.pos + 1;
      match tag with
      | '\000' -> I (Codec.read_uvarint r)
      | '\001' -> S (Codec.read_string r)
      | c -> invalid_arg (Printf.sprintf "Tuple.decode: bad tag %C" c))

let decode data = decode_reader (Codec.reader data)

let encode_with_key ~key_positions tuple =
  (* Layout: uvarint key length, key bytes, then the encoded tuple.
     Compare by the {e extracted} key bytes, not the whole record — the
     length prefix is not order-preserving for variable-width keys. *)
  let key_buf = Buffer.create 48 in
  Array.iter
    (fun i ->
      match tuple.(i) with
      | I v -> Codec.key_int key_buf v
      | S s -> Codec.key_string key_buf s)
    key_positions;
  let out = Buffer.create 80 in
  Codec.write_uvarint out (Buffer.length key_buf);
  Buffer.add_buffer out key_buf;
  Buffer.add_bytes out (encode tuple);
  Buffer.to_bytes out

let decode_keyed data =
  let r = Codec.reader data in
  let klen = Codec.read_uvarint r in
  let key = Bytes.sub r.Codec.data r.Codec.pos klen in
  r.Codec.pos <- r.Codec.pos + klen;
  (key, decode_reader r)

let key_of_encoded data =
  let r = Codec.reader data in
  let klen = Codec.read_uvarint r in
  Bytes.sub r.Codec.data r.Codec.pos klen

let pp ppf tuple =
  Format.fprintf ppf "(%s)"
    (String.concat ", "
       (Array.to_list
          (Array.map
             (function
               | I v -> string_of_int v
               | S s -> Printf.sprintf "%S" s)
             tuple)))
