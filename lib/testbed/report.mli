(** A minimal JSON value type with a writer and a (strict, recursive
    descent) parser — deliberately hand-rolled so the testbed carries no
    dependency beyond the standard library.  The end-to-end benchmark
    reads and writes its result files with it. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val to_string : json -> string
(** Compact rendering with full string escaping. *)

val parse : string -> (json, string) result
(** Strict parse of a complete JSON document (trailing garbage is an
    error).  Numbers with [.], [e] or [E] become [Float], others [Int]. *)

val member : string -> json -> json option
(** Field lookup; [None] when absent or not an object. *)

val write_file : string -> json -> unit

val parse_file : string -> (json, string) result
