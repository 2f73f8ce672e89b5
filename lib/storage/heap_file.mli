(** Heap files: unordered record storage in a chain of slotted pages.

    Records are appended in arrival order and scanned back in the same
    order, which is what milestone 3's "write each intermediate result to
    disk and re-read it" evaluation mode needs: appending preserves the
    hierarchical document order that order-preserving operators produce.

    Records must fit in one page. *)

type t

type rid = {
  page : int;
  slot : int;
}

val create : Buffer_pool.t -> t
(** Allocates the first page of the chain. *)

val open_existing : Buffer_pool.t -> first_page:int -> t
(** Reattach to a chain created earlier (walks to the tail). *)

val first_page : t -> int
val page_count : t -> int
val record_count : t -> int

val append : t -> bytes -> rid
(** Two pins: a free-space probe of the last page, then the write.
    @raise Invalid_argument if the record cannot fit in a page. *)

val get : t -> rid -> bytes

val iter : t -> (rid -> bytes -> unit) -> unit
(** Every record with its rid, in order, pinning each page once. *)

val scan : t -> (unit -> bytes option)
(** A pull cursor over all records in order; each call to [scan] starts
    a fresh cursor.  Each page is pinned once, when the cursor reaches
    it, and its records are copied out inside that window and served
    from memory. *)
