(* CRC-32 (the IEEE 802.3 polynomial, reflected form 0xEDB88320) over
   OCaml's native ints, sliced by 16: each step reads 16 bytes as two
   little-endian 64-bit words and folds them into the register with 16
   table lookups.  All arithmetic stays inside 32 bits, so results are
   bit for bit those of the byte-at-a-time definition on any platform
   and round-trip through a page's u32 header slot. *)

let poly = 0xEDB88320

(* [table.(k * 256 + b)] is the register after byte [b] followed by [k]
   zero bytes, for k in 0..15: row 0 is the classic byte table, and each
   row shifts the one before it by a zero byte.  16 x 256 ints, 32 KB,
   built while the module initializes and never written after, so every
   domain reads it without synchronization. *)
let table =
  let t = Array.make (16 * 256) 0 in
  for b = 0 to 255 do
    let c = ref b in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(b) <- !c
  done;
  for i = 256 to Array.length t - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

(* Every caller passes [k] in 0..15 and [b] in 0..255. *)
let[@inline] row k b = Array.unsafe_get table ((k lsl 8) lor b)

let start = 0xFFFFFFFF

let feed acc buf pos len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Crc32.feed";
  let acc = ref acc and i = ref pos in
  let stop = pos + len - (len land 15) in
  while !i < stop do
    let w0 = Bytes.get_int64_le buf !i and w1 = Bytes.get_int64_le buf (!i + 8) in
    (* [Int64.to_int] keeps 63 bits: the last byte of each word is taken
       by its own shift. *)
    let a = Int64.to_int w0 lxor !acc and b = Int64.to_int w1 in
    let a7 = Int64.to_int (Int64.shift_right_logical w0 56)
    and b7 = Int64.to_int (Int64.shift_right_logical w1 56) in
    acc :=
      row 15 (a land 0xFF)
      lxor row 14 ((a lsr 8) land 0xFF)
      lxor row 13 ((a lsr 16) land 0xFF)
      lxor row 12 ((a lsr 24) land 0xFF)
      lxor row 11 ((a lsr 32) land 0xFF)
      lxor row 10 ((a lsr 40) land 0xFF)
      lxor row 9 ((a lsr 48) land 0xFF)
      lxor row 8 a7
      lxor row 7 (b land 0xFF)
      lxor row 6 ((b lsr 8) land 0xFF)
      lxor row 5 ((b lsr 16) land 0xFF)
      lxor row 4 ((b lsr 24) land 0xFF)
      lxor row 3 ((b lsr 32) land 0xFF)
      lxor row 2 ((b lsr 40) land 0xFF)
      lxor row 1 ((b lsr 48) land 0xFF)
      lxor row 0 b7;
    i := !i + 16
  done;
  for j = stop to pos + len - 1 do
    acc := row 0 ((!acc lxor Char.code (Bytes.unsafe_get buf j)) land 0xFF) lxor (!acc lsr 8)
  done;
  !acc

let finish acc = acc lxor 0xFFFFFFFF

let digest buf = finish (feed start buf 0 (Bytes.length buf))
