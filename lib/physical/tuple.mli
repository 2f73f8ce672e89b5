(** Runtime tuples flowing between physical operators.

    A tuple is a flat array of values; its schema — which TPM column
    lives at which position — is carried by the operators, not the
    tuples.  Node types travel as their integer codes so that all
    comparisons are int/string comparisons. *)

type value =
  | I of int
  | S of string

type t = value array

type schema = Xqdb_tpm.Tpm_algebra.col list

val value_equal : value -> value -> bool
val value_compare : value -> value -> int

val position : schema -> Xqdb_tpm.Tpm_algebra.col -> int
(** @raise Not_found if the column is not in the schema. *)

val concat : t -> t -> t

val ground_operand : (Xqdb_xq.Xq_ast.var -> int * int) -> Xqdb_tpm.Tpm_algebra.operand -> Xqdb_tpm.Tpm_algebra.operand
(** Resolve [Oextern_in]/[Oextern_out] through an environment giving
    each outer variable's (in, out).  Templates no longer need this —
    they compile externals against {!params} slots — but it remains the
    simplest way to fully ground a predicate. *)

(** {2 Parameter slots}

    A plan template compiles each external reference into a closure over
    a mutable {!param_slot}.  {!bind_params} writes a new outer
    environment into the slots; the compiled operators observe the new
    values on their next call, so one operator tree serves every outer
    tuple. *)

type param_slot = {
  mutable bound_in : int;
  mutable bound_out : int;
}

type params = (Xqdb_xq.Xq_ast.var * param_slot) list

val no_params : params

val make_params : Xqdb_xq.Xq_ast.var list -> params
(** Fresh zero-initialized slots, one per distinct variable. *)

val param_vars : params -> Xqdb_xq.Xq_ast.var list

val bind_params : params -> (Xqdb_xq.Xq_ast.var -> int * int) -> unit
(** Write each variable's (in, out) into its slot.
    @raise the environment's own exception on an unknown variable. *)

val compile_operand :
  ?params:params -> schema -> Xqdb_tpm.Tpm_algebra.operand -> t -> value
(** @raise Invalid_argument on an external with no slot in [params]. *)

val compile_pred : ?params:params -> schema -> Xqdb_tpm.Tpm_algebra.pred -> t -> bool
val compile_preds : ?params:params -> schema -> Xqdb_tpm.Tpm_algebra.pred list -> t -> bool

(** {2 Columnar batches}

    The unit of flow between physical operators: one value array per
    schema column plus a fill length, over backing storage the producer
    allocates once ({!batch_create}) and reuses.  A batch returned by a
    producer is valid only until the producer's next call — consumers
    drain it (or copy rows out with {!batch_row}) before asking for
    more. *)

type batch = {
  cols : value array array;  (** one array per column; length = capacity *)
  cap : int;  (** row capacity of the backing arrays *)
  mutable len : int;  (** rows currently filled, [0 <= len <= cap] *)
}

val batch_create : width:int -> int -> batch
(** [batch_create ~width cap]: empty batch with [width] column arrays of
    [cap] rows each.  @raise Invalid_argument when [cap <= 0]. *)

val batch_clear : batch -> unit
val batch_full : batch -> bool

val batch_push : batch -> t -> unit
(** Append a row (the caller checks {!batch_full} first). *)

val batch_row : batch -> int -> t
(** Materialize row [i] as a fresh tuple. *)

val compile_operand_batch :
  ?params:params -> schema -> Xqdb_tpm.Tpm_algebra.operand -> batch -> int -> value
(** Like {!compile_operand} but reading a batch row in place — the scan
    hot paths evaluate predicates without materializing tuples. *)

val compile_pred_batch :
  ?params:params -> schema -> Xqdb_tpm.Tpm_algebra.pred -> batch -> int -> bool

val compile_preds_batch :
  ?params:params -> schema -> Xqdb_tpm.Tpm_algebra.pred list -> batch -> int -> bool

val xasr_schema : string -> schema
(** The five columns of one XASR copy under an alias, in storage order:
    in, out, parent_in, type, value. *)

val of_xasr : Xqdb_xasr.Xasr.tuple -> t

(* Serialization for materialization and sorting. *)
val encode : t -> bytes
val decode : bytes -> t

val encode_with_key : key_positions:int array -> t -> bytes
(** An order-preserving key built from the given positions, followed by
    the encoded tuple.  Compare records by the key returned from
    {!decode_keyed} (or {!key_of_encoded}); the record as a whole is not
    order-preserving. *)

val decode_keyed : bytes -> bytes * t
(** Returns (key bytes, tuple). *)

val key_of_encoded : bytes -> bytes
(** Extract just the key of an {!encode_with_key} record. *)

val pp : Format.formatter -> t -> unit
