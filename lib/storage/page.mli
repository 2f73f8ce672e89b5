(** Byte-level page access and the slotted-page record layout.

    A slotted page stores variable-length records:

    {v
    [ header | record area ->   ...   <- slot directory ]
    v}

    The header layout is [ next:u32 | nslots:u16 | free_off:u16 |
    flags:u16 | crc:u32 ] (14 bytes); [next] is a chain pointer used by
    {!Heap_file} and by B+-tree leaves (internal B+-tree nodes reuse it
    as the leftmost-child pointer), and [flags] is free for the client
    (the B+-tree stores the node kind there).  Each slot is a [u16 offset, u16 length] pair growing from
    the page end; slot order is the caller's business (insertion order
    for heaps, key order for B+-tree nodes). *)

(* Scalar accessors (little-endian). *)
val get_u16 : bytes -> int -> int
val set_u16 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int
val set_u32 : bytes -> int -> int -> unit

exception Page_full of string
(** Raised by {!add_slot} and {!insert_slot_at} when the record (plus
    its slot entry) does not fit in the page's free space.  A typed
    error rather than a bare [Failure] so the engine can surface it as a
    run status instead of letting it escape. *)

val header_size : int

(* Slotted-page operations.  [init] must be called on a fresh page. *)
val init : bytes -> unit
val next : bytes -> int
val set_next : bytes -> int -> unit
val flags : bytes -> int
val set_flags : bytes -> int -> unit
val slot_count : bytes -> int

val free_space : bytes -> int
(** Bytes available for one more record {e including} its slot entry. *)

val read_slot : bytes -> int -> bytes
(** [read_slot page i] copies record [i]. *)

val slot_off : bytes -> int -> int
val slot_len : bytes -> int -> int
(** Where record [i] lies in the page, read without copying it. *)

val compare_bytes : bytes -> int -> int -> bytes -> int
(** [compare_bytes page off len key] compares the [len] bytes at [off]
    in [page] with [key] in place, with the sign {!Bytes.compare} gives
    on a copy of them: unsigned bytes, and the shorter first on a common
    prefix. *)

val add_slot : bytes -> bytes -> int
(** [add_slot page record] appends a record, returning its slot index.
    @raise Page_full if the record does not fit; callers check
    {!free_space} first. *)

val insert_slot_at : bytes -> int -> bytes -> unit
(** [insert_slot_at page i record] inserts a record so that it becomes
    slot [i], shifting slots [i..] up by one (one move of the slot
    directory).  Used by B+-tree nodes to keep slots in key order. *)

(** {2 Checksums}

    Every page carries a CRC-32 of its full contents (excluding the CRC
    slot itself) in the header.  {!Disk} stamps it on every write-back
    and allocation and verifies it on every read, so a torn or bit-flipped
    page surfaces as a typed {!Xqdb_error.Corrupt} instead of being
    returned as data.  Clients of the slotted layout never touch these. *)

val checksum : bytes -> int
(** CRC-32 over the whole page, skipping the header's CRC slot. *)

val stored_checksum : bytes -> int

val stamp_checksum : bytes -> unit
(** Store {!checksum} into the header slot. *)

val checksum_matches : bytes -> bool

val remove_slot_at : bytes -> int -> unit
(** Remove slot [i], shifting higher slots down.  The record bytes are
    dead space until {!compact}. *)

val set_slot_count : bytes -> int -> unit
(** Truncate (or logically extend) the slot directory; used by node
    splits.  Record bytes of dropped slots become dead space. *)

val compact : bytes -> unit
(** Rewrite the record area dropping dead space, preserving slot order. *)

val live_bytes : bytes -> int
(** Total bytes of live records plus their slots (excludes the header);
    used by split heuristics. *)
