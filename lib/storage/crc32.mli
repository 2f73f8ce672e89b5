(** CRC-32 (IEEE, reflected polynomial [0xEDB88320]), the checksum behind
    {!Page}'s header slot and the {!Wal}'s per-record integrity check.

    The streaming interface ([start]/[feed]/[finish]) lets a caller
    checksum a buffer while skipping a hole — {!Page.checksum} skips the
    page's own CRC field.  Values fit in 32 bits, so they round-trip
    through a u32 header slot unchanged on any platform. *)

val start : int
(** The initial accumulator. *)

val feed : int -> bytes -> int -> int -> int
(** [feed acc buf pos len] folds [len] bytes of [buf] starting at [pos]
    into the accumulator.
    @raise Invalid_argument if [pos] and [len] do not name a slice of [buf]. *)

val finish : int -> int
(** Final xor; the value to store or compare. *)

val digest : bytes -> int
(** [finish (feed start buf 0 (length buf))]. *)
