let get_u16 page off = Bytes.get_uint16_le page off
let set_u16 page off v = Bytes.set_uint16_le page off v

let get_u32 page off =
  Int32.to_int (Bytes.get_int32_le page off) land 0xFFFFFFFF

let set_u32 page off v = Bytes.set_int32_le page off (Int32.of_int v)

exception Page_full of string

let header_size = 14

(* Header fields. *)
let off_next = 0
let off_nslots = 4
let off_free = 6
let off_flags = 8
let off_crc = 10

let init page =
  set_u32 page off_next 0;
  set_u16 page off_nslots 0;
  set_u16 page off_free header_size;
  set_u16 page off_flags 0;
  set_u32 page off_crc 0

(* The stored CRC covers every byte of the page except its own header
   slot, so stamping does not disturb the value being checked. *)
let checksum page =
  let acc = Crc32.feed Crc32.start page 0 off_crc in
  let tail = off_crc + 4 in
  Crc32.finish (Crc32.feed acc page tail (Bytes.length page - tail))

let stored_checksum page = get_u32 page off_crc
let stamp_checksum page = set_u32 page off_crc (checksum page)
let checksum_matches page = Int.equal (stored_checksum page) (checksum page)

let next page = get_u32 page off_next
let flags page = get_u16 page off_flags
let set_flags page v = set_u16 page off_flags v
let set_next page v = set_u32 page off_next v
let slot_count page = get_u16 page off_nslots
let set_slot_count page n = set_u16 page off_nslots n

let slot_pos page i = Bytes.length page - 4 * (i + 1)
let slot_off page i = get_u16 page (slot_pos page i)
let slot_len page i = get_u16 page (slot_pos page i + 2)

let set_slot page i off len =
  let p = slot_pos page i in
  set_u16 page p off;
  set_u16 page (p + 2) len

let free_space page =
  let nslots = slot_count page in
  let free_off = get_u16 page off_free in
  let dir_start = Bytes.length page - 4 * nslots in
  dir_start - free_off - 4

let read_slot page i = Bytes.sub page (slot_off page i) (slot_len page i)

(* Unsigned bytes, then the shorter first on a common prefix: the order
   of [Bytes.compare].  A loop over locals, not a local recursive
   function, so a comparison allocates no closure. *)
let compare_bytes page off len key =
  let klen = Bytes.length key in
  let common = if len < klen then len else klen in
  let i = ref 0 in
  while !i < common && Char.equal (Bytes.get page (off + !i)) (Bytes.get key !i) do
    incr i
  done;
  if !i = common then Int.compare len klen
  else Char.compare (Bytes.get page (off + !i)) (Bytes.get key !i)

let add_slot page record =
  let len = Bytes.length record in
  if free_space page < len then
    raise (Page_full (Printf.sprintf "Page.add_slot: %d bytes, %d free" len (free_space page)));
  let free_off = get_u16 page off_free in
  Bytes.blit record 0 page free_off len;
  let i = slot_count page in
  set_slot_count page (i + 1);
  set_slot page i free_off len;
  set_u16 page off_free (free_off + len);
  i

(* Slot [j] lies 4 bytes below slot [j - 1], so moving slots [i..n-1] one
   index up or down is one blit of the directory's tail. *)
let insert_slot_at page i record =
  let n = slot_count page in
  if i < 0 || i > n then invalid_arg "Page.insert_slot_at";
  let len = Bytes.length record in
  if free_space page < len then
    raise
      (Page_full
         (Printf.sprintf "Page.insert_slot_at: %d bytes, %d free" len (free_space page)));
  let free_off = get_u16 page off_free in
  Bytes.blit record 0 page free_off len;
  set_slot_count page (n + 1);
  let dir = slot_pos page (n - 1) in
  Bytes.blit page dir page (dir - 4) (4 * (n - i));
  set_slot page i free_off len;
  set_u16 page off_free (free_off + len)

let remove_slot_at page i =
  let n = slot_count page in
  if i < 0 || i >= n then invalid_arg "Page.remove_slot_at";
  let dir = slot_pos page (n - 1) in
  Bytes.blit page dir page (dir + 4) (4 * (n - 1 - i));
  set_slot_count page (n - 1)

let live_bytes page =
  let n = slot_count page in
  let records = ref 0 in
  for i = 0 to n - 1 do
    records := !records + slot_len page i
  done;
  !records + 4 * n

let compact page =
  let n = slot_count page in
  let records = Array.init n (fun i -> read_slot page i) in
  let free_off = ref header_size in
  Array.iteri
    (fun i record ->
      let len = Bytes.length record in
      Bytes.blit record 0 page !free_off len;
      set_slot page i !free_off len;
      free_off := !free_off + len)
    records;
  set_u16 page off_free !free_off
