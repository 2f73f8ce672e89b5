type t = {
  pool : Buffer_pool.t;
  first : int;
  mutable last : int;
  mutable pages : int;
  mutable records : int;
}
(* Mutated only by the loading/spilling domain that owns the file. *)
[@@domain_local]

type rid = {
  page : int;
  slot : int;
}

let m_appends = Metrics.counter "heap.appends"
let m_scans = Metrics.counter "heap.scans"

let fresh_page pool =
  let id = Buffer_pool.alloc_page pool in
  Buffer_pool.with_page_mut pool id Page.init;
  id

let create pool =
  let first = fresh_page pool in
  { pool; first; last = first; pages = 1; records = 0 }

let open_existing pool ~first_page =
  let t = { pool; first = first_page; last = first_page; pages = 1; records = 0 } in
  let rec walk page_id =
    let nslots, next =
      Buffer_pool.with_page pool page_id (fun p -> (Page.slot_count p, Page.next p))
    in
    t.records <- t.records + nslots;
    if next = 0 then t.last <- page_id
    else begin
      t.pages <- t.pages + 1;
      walk next
    end
  in
  walk first_page;
  t

let first_page t = t.first
let page_count t = t.pages
let record_count t = t.records

let append t record =
  Metrics.incr m_appends;
  let len = Bytes.length record in
  let psize = Disk.page_size (Buffer_pool.disk t.pool) in
  if len + 4 + Page.header_size > psize then
    invalid_arg (Printf.sprintf "Heap_file.append: record of %d bytes exceeds page" len);
  let fits =
    Buffer_pool.with_page t.pool t.last (fun p -> Page.free_space p >= len)
  in
  if not fits then begin
    let fresh = fresh_page t.pool in
    Buffer_pool.with_page_mut t.pool t.last (fun p -> Page.set_next p fresh);
    t.last <- fresh;
    t.pages <- t.pages + 1
  end;
  let slot = Buffer_pool.with_page_mut t.pool t.last (fun p -> Page.add_slot p record) in
  t.records <- t.records + 1;
  { page = t.last; slot }

let get t rid = Buffer_pool.with_page t.pool rid.page (fun p -> Page.read_slot p rid.slot)

(* The one page walk: pins a page once and copies its records out
   inside that window, with the chain's next page (0 at the end). *)
let read_page t page_id =
  Buffer_pool.with_page t.pool page_id (fun p ->
      (Array.init (Page.slot_count p) (Page.read_slot p), Page.next p))

let iter t f =
  Metrics.incr m_scans;
  let rec go page_id =
    if page_id <> 0 then begin
      let records, next = read_page t page_id in
      Array.iteri (fun slot record -> f { page = page_id; slot } record) records;
      go next
    end
  in
  go t.first

let scan t =
  Metrics.incr m_scans;
  let next_page = ref t.first in
  let records = ref [||] in
  let pos = ref 0 in
  let rec pull () =
    if !pos < Array.length !records then begin
      incr pos;
      Some !records.(!pos - 1)
    end
    else if !next_page = 0 then None
    else begin
      let page, next = read_page t !next_page in
      records := page;
      pos := 0;
      next_page := next;
      pull ()
    end
  in
  pull
