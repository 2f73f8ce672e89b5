type backend =
  | Mem of {
      mutable pages : bytes array;  (* grows geometrically *)
    }
  | File of {
      path : string;
      (* One descriptor for reads and writes: every transfer is a
         positioned [lseek] + [read]/[write] straight to the OS, so a
         read always sees the latest write and there is no user-space
         buffer to flush or invalidate. *)
      fd : Unix.file_descr;
    }

let m_torn_writes = Metrics.counter "disk.torn_writes"
let m_checksum_failures = Metrics.counter "disk.checksum_failures"

(* Bumped beside the per-disk fields below, so the installed Metrics
   scope sees exactly the I/Os [counters] does: injected failures
   uncounted, torn writes counted. *)
let m_reads = Metrics.counter "disk.reads"
let m_writes = Metrics.counter "disk.writes"
let m_allocs = Metrics.counter "disk.allocs"

type counters = {
  reads : int;
  writes : int;
  allocs : int;
}

exception Disk_error of string

type op =
  | Read
  | Write
  | Alloc

type fault =
  | No_fault
  | Fail of string
  | Torn of string

type t = {
  psize : int;
  backend : backend;
  blank : bytes;  (* [blank_page psize], never written *)
  mutable count : int;
  mutable reads : int;
  mutable writes : int;
  mutable allocs : int;
  mutable injector : (op -> int -> fault) option;
}
(* Every disk call in a multi-domain run goes through the owning buffer
   pool, which holds its table mutex across the call. *)
[@@guarded_by pool_table_lock]

let set_injector t injector = t.injector <- injector

let consult t op id =
  match t.injector with
  | None -> No_fault
  | Some f -> f op id

let label t =
  match t.backend with
  | Mem _ -> "<mem>"
  | File f -> f.path

(* A zeroed page, checksum already stamped, made once per disk: even a
   page that is allocated and then read before any write verifies
   cleanly.  [do_alloc] copies it into memory or writes it to the file. *)
let blank_page psize =
  let page = Bytes.make psize '\000' in
  Page.stamp_checksum page;
  page

(* OCaml's [Unix] has no pread/pwrite, so position, then loop: a
   regular file may return short counts, and the loops finish them. *)
let pwrite fd offset buf len =
  ignore (Unix.lseek fd offset Unix.SEEK_SET);
  let rec go off = if off < len then go (off + Unix.write fd buf off (len - off)) in
  go 0

let pread fd offset len =
  ignore (Unix.lseek fd offset Unix.SEEK_SET);
  let buf = Bytes.create len in
  let rec go off =
    if off < len then
      match Unix.read fd buf off (len - off) with
      | 0 -> invalid_arg "Disk: unexpected end of file"
      | n -> go (off + n)
  in
  go 0;
  buf

let do_alloc t =
  (match consult t Alloc t.count with
   | No_fault -> ()
   | Fail msg | Torn msg -> raise (Disk_error msg));
  let id = t.count in
  t.count <- t.count + 1;
  t.allocs <- t.allocs + 1;
  Metrics.incr m_allocs;
  (match t.backend with
   | Mem m ->
     if id >= Array.length m.pages then begin
       let bigger = Array.make (max 8 (2 * Array.length m.pages)) Bytes.empty in
       Array.blit m.pages 0 bigger 0 (Array.length m.pages);
       m.pages <- bigger
     end;
     m.pages.(id) <- Bytes.copy t.blank
   | File f -> pwrite f.fd (id * t.psize) t.blank t.psize);
  id

let with_catalog_page t =
  (* Page 0 is reserved for the catalog. *)
  let id = do_alloc t in
  assert (id = 0);
  t

let check_page_size page_size =
  if page_size < 2 * Page.header_size then
    invalid_arg
      (Printf.sprintf "Disk: page size %d is too small for the %d-byte page header"
         page_size Page.header_size)

let in_memory ?(page_size = 4096) () =
  check_page_size page_size;
  with_catalog_page
    { psize = page_size;
      backend = Mem { pages = Array.make 8 Bytes.empty };
      blank = blank_page page_size;
      count = 0;
      reads = 0;
      writes = 0;
      allocs = 0;
      injector = None }

let on_file ?(page_size = 4096) path =
  check_page_size page_size;
  let fd = Unix.openfile path [Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC] 0o644 in
  with_catalog_page
    { psize = page_size;
      backend = File { path; fd };
      blank = blank_page page_size;
      count = 0;
      reads = 0;
      writes = 0;
      allocs = 0;
      injector = None }

let open_existing ?(page_size = 4096) path =
  check_page_size page_size;
  let fd = Unix.openfile path [Unix.O_RDWR] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  if size = 0 || size mod page_size <> 0 then begin
    Unix.close fd;
    invalid_arg
      (Printf.sprintf "Disk.open_existing: %s has %d bytes, not a whole number of %d-byte pages"
         path size page_size)
  end;
  { psize = page_size;
    backend = File { path; fd };
    blank = blank_page page_size;
    count = size / page_size;
    reads = 0;
    writes = 0;
    allocs = 0;
    injector = None }

let page_size t = t.psize
let page_count t = t.count

let check_id t id =
  if id < 0 || id >= t.count then
    invalid_arg (Printf.sprintf "Disk: page %d out of range (count %d)" id t.count)

let alloc t = do_alloc t

let fetch t id =
  match t.backend with
  | Mem m -> Bytes.copy m.pages.(id)
  | File f -> pread f.fd (id * t.psize) t.psize

let read_page t id =
  check_id t id;
  (match consult t Read id with
   | No_fault -> ()
   | Fail msg | Torn msg -> raise (Disk_error msg));
  t.reads <- t.reads + 1;
  Metrics.incr m_reads;
  let buf = fetch t id in
  if not (Page.checksum_matches buf) then begin
    Metrics.incr m_checksum_failures;
    Xqdb_error.corrupt "Disk: checksum mismatch on page %d of %s" id (label t)
  end;
  buf

let read_page_raw t id =
  check_id t id;
  fetch t id

let persist t id buf len =
  match t.backend with
  | Mem m -> Bytes.blit buf 0 m.pages.(id) 0 len
  | File f -> pwrite f.fd (id * t.psize) buf len

let write_page t id buf =
  check_id t id;
  if Bytes.length buf <> t.psize then
    invalid_arg "Disk.write_page: buffer size mismatch";
  Page.stamp_checksum buf;
  match consult t Write id with
  | Fail msg -> raise (Disk_error msg)
  | Torn msg ->
    (* Torn (short) write: only the first half of the buffer reaches the
       disk before the fault, and one byte of that half is garbled in
       flight, so the page's stored checksum cannot match.  The damage is
       applied to a copy — the caller's buffer stays intact, so a retry
       with the same buffer repairs the page. *)
    t.writes <- t.writes + 1;
    Metrics.incr m_writes;
    Metrics.incr m_torn_writes;
    let half = Bytes.sub buf 0 (t.psize / 2) in
    let victim = t.psize / 4 in
    Bytes.set half victim (Char.chr (Char.code (Bytes.get half victim) lxor 0xff));
    persist t id half (t.psize / 2);
    raise (Disk_error msg)
  | No_fault ->
    t.writes <- t.writes + 1;
    Metrics.incr m_writes;
    persist t id buf t.psize

(* Writes reach the OS as they happen, which is as durable as this
   project makes anything (it survives a process crash; there is no
   fsync), so there is nothing left to push. *)
let sync _ = ()

let counters t = { reads = t.reads; writes = t.writes; allocs = t.allocs }

let total_ios t = t.reads + t.writes

let scope_ios s = Metrics.charged s m_reads + Metrics.charged s m_writes

let close t =
  match t.backend with
  | Mem _ -> ()
  | File f -> Unix.close f.fd
