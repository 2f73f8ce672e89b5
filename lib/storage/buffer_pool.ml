(* Frames keyed by page id.  [Int.hash] is [Hashtbl.hash], so
   buckets, and the iteration order that orders a sync's log records,
   are the generic table's; lookups compare keys with [Int.equal]. *)
module Ints = Hashtbl.Make (Int)

type frame = {
  page_id : int;
  buf : bytes;
  (* Guards the frame's *contents* while a callback works on them:
     shared for [with_page], exclusive for [with_page_mut].  The pool's
     table mutex is never held while waiting on a latch. *)
  latch : Latch.t;
  mutable pins : int;
  (* The pins among [pins] that [with_page_mut] took: a frame with
     writers is mid-mutation, so a sync started by another frame's
     write-back leaves it for a later group to log. *)
  mutable writers : int;
  mutable dirty : bool;
  (* LSN of the WAL record holding this frame's current contents; 0 when
     the latest mutation is not yet logged.  Dirty frames with 0 here
     are the pending set the next sync logs; a logged frame is not
     appended again, so a retried write-back never duplicates a record. *)
  mutable logged_lsn : int;
  (* Intrusive LRU list links: [lru_prev] points toward the MRU head,
     [lru_next] toward the LRU tail. *)
  mutable lru_prev : frame option;
  mutable lru_next : frame option;
  (* Sanitizer shadow buffer: while the frame is pinned under a
     sanitizing pool, callbacks work on this copy; the last unpin blits
     it back and poisons it, so a retained reference reads garbage. *)
  mutable shadow : bytes option;
}
[@@guarded_by lock]

type t = {
  disk : Disk.t;
  wal : Wal.t option;
  cap : int;
  sanitize : bool;
  (* Backoff schedule for transient disk/WAL faults; Retry.run sleeps
     under the table mutex, so the policy must keep the whole window in
     the low milliseconds (the default does). *)
  retry_policy : Retry.policy;
  (* The table mutex: frames, LRU links, pin counts and all disk/WAL
     traffic happen under it.
     Frame *contents* are guarded by the per-frame latches instead, so
     callbacks overlap across domains; the mutex is never held while a
     callback runs or a latch is awaited. *)
  lock : Mutex.t;
  frames : frame Ints.t;  (* page id -> frame *)
  mutable head : frame option;  (* most recently used *)
  mutable tail : frame option;  (* least recently used *)
  (* Lockdep class names for this pool's frame latches and table mutex —
     unique per pool so two pools' page ids never alias in the global
     order graph (see {!Lock_order}). *)
  lockdep_page : string;
  lockdep_table : string;
}
[@@guarded_by lock]

exception Pool_exhausted of string
exception Sanitizer_violation of string

let poison_byte = '\xde'

let m_hits = Metrics.counter "pool.hits"
let m_misses = Metrics.counter "pool.misses"
let m_evictions = Metrics.counter "pool.evictions"
let m_retries = Metrics.counter "pool.retries"

(* The environment gate lets whole suites run under the sanitizer
   without touching call sites: XQDB_PIN_SANITIZE=1 dune runtest. *)
let env_sanitize =
  match Sys.getenv_opt "XQDB_PIN_SANITIZE" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

(* Pool sequence for lockdep class names; Atomic because pools are
   created from any domain. *)
let pool_seq = Atomic.make 0

let create ?(capacity = 64) ?(sanitize = env_sanitize) ?(retry_policy = Retry.default)
    ?wal disk =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity must be positive";
  let seq = Atomic.fetch_and_add pool_seq 1 in
  { disk;
    wal;
    cap = capacity;
    sanitize;
    retry_policy;
    lock = Mutex.create ();
    frames = Ints.create (2 * capacity);
    head = None;
    tail = None;
    lockdep_page = Printf.sprintf "pool%d.page" seq;
    lockdep_table = Printf.sprintf "pool%d.table" seq }

let disk t = t.disk
let wal t = t.wal
let capacity t = t.cap
let sanitizing t = t.sanitize

(* Every public entry point brackets its table work with [locked] (or,
   on the pin hot path, [lock]/[unlock] written out); helpers below
   assume the mutex is already held and never re-take it.  Under
   the sanitizer the table mutex participates in lockdep: latch -> table
   edges are expected (nested page use runs table work under a held
   latch), but a table -> latch edge — waiting
   on a latch while holding the table mutex — would close a cycle and is
   exactly the protocol violation the checker exists to catch. *)
let lock t =
  if t.sanitize then Lock_order.before_acquire ~cls:t.lockdep_table ~inst:(-1);
  Mutex.lock t.lock

let unlock t =
  Mutex.unlock t.lock;
  if t.sanitize then Lock_order.after_release ~cls:t.lockdep_table ~inst:(-1)

let locked t f =
  lock t;
  match f () with
  | v ->
    unlock t;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    unlock t;
    Printexc.raise_with_backtrace e bt

(* Transient disk faults (see Fault_disk) clear on retry; a fault that
   survives the whole backoff window propagates as Disk_error.  The
   classification is Retry.transient_disk_fault: a checksum Corrupt is
   a hard fault and is never retried — re-reading wrong bytes cannot
   make them right, it can only hide real corruption. *)
let with_retries t f =
  Retry.run ~policy:t.retry_policy
    ~on_retry:(fun ~attempt:_ _ -> Metrics.incr m_retries)
    ~retryable:Retry.transient_disk_fault f

(* --- the LRU list ------------------------------------------------------ *)

let detach t frame =
  (match frame.lru_prev with
   | Some p -> p.lru_next <- frame.lru_next
   | None -> t.head <- frame.lru_next);
  (match frame.lru_next with
   | Some n -> n.lru_prev <- frame.lru_prev
   | None -> t.tail <- frame.lru_prev);
  frame.lru_prev <- None;
  frame.lru_next <- None

let push_front t frame =
  frame.lru_prev <- None;
  frame.lru_next <- t.head;
  (match t.head with
   | Some h -> h.lru_prev <- Some frame
   | None -> t.tail <- Some frame);
  t.head <- Some frame

let touch t frame =
  match t.head with
  | Some h when h == frame -> ()
  | Some _ | None ->
    detach t frame;
    push_front t frame

let write_back t frame =
  if frame.dirty then begin
    (* Under the sanitizer, in-flight changes live in the shadow; fold
       them in so a flush during an active pin persists what a
       non-sanitizing pool would. *)
    (match frame.shadow with
     | Some s -> Bytes.blit s 0 frame.buf 0 (Bytes.length s)
     | None -> ());
    (* WAL before data: the after-image must be durable before the page
       itself is.  Logging happens here, at sync time, and each sync is
       one atomic group holding the latest image of every page mutated
       since it was last logged — this frame and every other dirty,
       unlogged one — so at each sync the log reaches the state
       mutation-time logging would, at one record per page per sync.
       Frames with writers are skipped: they are mid-mutation, and
       pinned, so they cannot be written back before a later group
       logs them. *)
    (match t.wal with
     | None -> ()
     | Some wal ->
       (* The log-and-sync pair is retried as a unit.  A torn sync drops
          its whole group and rolls the log's [last_lsn] back past it; a
          [logged_lsn] beyond the [last_lsn] the unit started from
          points at a record that no longer exists, so that frame is
          unlogged again — skipping it would write the page with no
          durable record, violating WAL before data. *)
       with_retries t (fun () ->
           let last = Wal.last_lsn wal in
           let unlogged f = f.dirty && (f.logged_lsn = 0 || f.logged_lsn > last) in
           let log f = f.logged_lsn <- Wal.append wal ~page_id:f.page_id ~data:f.buf in
           Ints.iter
             (fun _ f ->
               if f != frame && unlogged f && f.writers = 0 then log f)
             t.frames;
           if unlogged frame then log frame;
           Wal.sync wal);
       if t.sanitize && Wal.synced_lsn wal < frame.logged_lsn then
         raise
           (Sanitizer_violation
              (Printf.sprintf
                 "Buffer_pool: writing back page %d logged at LSN %d but WAL synced only to %d"
                 frame.page_id frame.logged_lsn (Wal.synced_lsn wal))));
    with_retries t (fun () -> Disk.write_page t.disk frame.page_id frame.buf);
    frame.dirty <- false
  end

(* Evict the least-recently-used unpinned frame: walk from the tail
   toward the head, skipping pinned frames.  O(1) amortized — pins are
   rare and short-lived — and deterministic, unlike the old full-table
   fold whose tie-break depended on hashtable iteration order.  A frame
   with zero pins has no latch holders either (latches are only taken
   under a pin), so the victim's contents are quiescent. *)
let evict_one t =
  let rec find = function
    | None ->
      raise
        (Pool_exhausted
           (Printf.sprintf "Buffer_pool: all %d frames pinned" t.cap))
    | Some frame -> if frame.pins = 0 then frame else find frame.lru_prev
  in
  let victim = find t.tail in
  (* A failing write-back raises before the frame is unlinked, so a
     dirty page is never dropped. *)
  write_back t victim;
  detach t victim;
  Ints.remove t.frames victim.page_id;
  Metrics.incr m_evictions

let insert_frame t page_id buf dirty =
  if Ints.length t.frames >= t.cap then evict_one t;
  let frame =
    { page_id;
      buf;
      latch = Latch.create ();
      pins = 0;
      writers = 0;
      dirty;
      logged_lsn = 0;
      lru_prev = None;
      lru_next = None;
      shadow = None }
  in
  Ints.replace t.frames page_id frame;
  push_front t frame;
  (* Every page I/O a request charges enters here — the miss's read (or
     [alloc_page]'s new frame) and the write-back its eviction caused —
     so this is where the installed budget's page-I/O cap is enforced:
     a censored run stops within two I/Os of its cap.  The frame is
     already linked and unpinned, and [locked] releases the mutex, so
     [Exhausted] leaves the pool as consistent as a [Disk_error] from
     the same path does. *)
  Budget.check_page_ios ();
  frame

let find t page_id =
  match Ints.find_opt t.frames page_id with
  | Some frame ->
    Metrics.incr m_hits;
    touch t frame;
    frame
  | None ->
    Metrics.incr m_misses;
    insert_frame t page_id (with_retries t (fun () -> Disk.read_page t.disk page_id)) false

let alloc_page t =
  locked t (fun () ->
      let page_id = with_retries t (fun () -> Disk.alloc t.disk) in
      let buf = Bytes.make (Disk.page_size t.disk) '\000' in
      ignore (insert_frame t page_id buf true);
      page_id)

(* --- pins and the sanitizer -------------------------------------------- *)

let pinned_pages_locked t =
  Ints.fold
    (fun _ frame acc -> if frame.pins > 0 then (frame.page_id, frame.pins) :: acc else acc)
    t.frames []

let pinned_pages t = locked t (fun () -> pinned_pages_locked t)

let latched_pages t =
  locked t (fun () ->
      Ints.fold
        (fun _ frame acc ->
          let h = Latch.holders frame.latch in
          if h <> 0 then (frame.page_id, h) :: acc else acc)
        t.frames [])

(* [use]'s table work, under the mutex: find the frame and pin it.
   Under the sanitizer the first pin makes the shadow that callbacks
   work on. *)
let pin t page_id ~mut =
  let frame = find t page_id in
  frame.pins <- frame.pins + 1;
  if mut then begin
    frame.writers <- frame.writers + 1;
    frame.dirty <- true;
    frame.logged_lsn <- 0
  end;
  if t.sanitize then begin
    match frame.shadow with
    | Some _ -> ()
    | None -> frame.shadow <- Some (Bytes.copy frame.buf)
  end;
  frame

(* Undo [pin], under the mutex. *)
let unpin frame ~mut =
  frame.pins <- frame.pins - 1;
  if mut then frame.writers <- frame.writers - 1;
  match frame.shadow with
  | None -> ()
  | Some s ->
    (* Commit the shadow's contents, and on the last unpin poison it:
       any callback that retained the buffer past its pin window now
       reads 0xde bytes instead of silently-stale page data. *)
    Bytes.blit s 0 frame.buf 0 (Bytes.length s);
    if frame.pins = 0 then begin
      Bytes.fill s 0 (Bytes.length s) poison_byte;
      frame.shadow <- None
    end

(* Release the latch [use] took, then the pin. *)
let release t frame ~mut =
  if t.sanitize then Lock_order.after_release ~cls:t.lockdep_page ~inst:frame.page_id;
  Latch.release frame.latch;
  lock t;
  unpin frame ~mut;
  unlock t

(* The one place a pin is taken and released, so pins balance on every
   exit path.  The bracket is written out with [match ... with
   exception] rather than [Fun.protect] and closures over [locked], so
   a page access allocates nothing of its own. *)
let use t page_id ~mut f =
  lock t;
  let frame =
    match pin t page_id ~mut with
    | frame -> frame
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      unlock t;
      Printexc.raise_with_backtrace e bt
  in
  unlock t;
  (* Latch outside the table mutex: waiting here must not block other
     domains' table traffic.  The pin already protects the frame from
     eviction, so the frame (and its latch) stay alive while we wait.
     The latch is not reentrant: lockdep reports a nested use of a page
     this domain already holds, before it self-deadlocks. *)
  (match if t.sanitize then Lock_order.before_acquire ~cls:t.lockdep_page ~inst:page_id with
   | () -> ()
   | exception e ->
     (* The latch was never taken: roll the pin back so the violation
        propagates from a consistent pool. *)
     let bt = Printexc.get_raw_backtrace () in
     locked t (fun () -> unpin frame ~mut);
     Printexc.raise_with_backtrace e bt);
  if mut then Latch.acquire_exclusive frame.latch else Latch.acquire_shared frame.latch;
  match f (match frame.shadow with Some s -> s | None -> frame.buf) with
  | v ->
    release t frame ~mut;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    release t frame ~mut;
    Printexc.raise_with_backtrace e bt

let with_page t page_id f = use t page_id ~mut:false f
let with_page_mut t page_id f = use t page_id ~mut:true f

let flush_all t = locked t (fun () -> Ints.iter (fun _ frame -> write_back t frame) t.frames)

let drop_all t =
  locked t (fun () ->
      (* Dropping frames with outstanding pins — anyone's — would
         invalidate live buffers. *)
      (match pinned_pages_locked t with
       | [] -> ()
       | pinned ->
         invalid_arg
           (Printf.sprintf "Buffer_pool.drop_all: pages [%s] are pinned"
              (String.concat ", "
                 (List.map (fun (id, pins) -> Printf.sprintf "%d (%d pins)" id pins) pinned))));
      Ints.iter (fun _ frame -> write_back t frame) t.frames;
      Ints.reset t.frames;
      t.head <- None;
      t.tail <- None)
