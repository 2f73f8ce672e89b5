type frame = {
  page_id : int;
  buf : bytes;
  (* Guards the frame's *contents* while a callback works on them:
     shared for [with_page], exclusive for [with_page_mut].  The pool's
     table mutex is never held while waiting on a latch. *)
  latch : Latch.t;
  (* Latch holds taken via [use], as (domain, exclusive) pairs — guarded
     by the table mutex.  The latch itself is not reentrant, so a nested
     [use] of the same page by the same domain (the sanitizer tests do
     this; btree never does) skips re-acquisition when its entry here
     already covers the requested mode.  At most one entry per domain. *)
  mutable latch_holds : (int * bool) list;
  mutable pins : int;
  mutable dirty : bool;
  (* LSN of the WAL record holding this frame's current contents; 0 when
     the latest mutation is not yet logged.  Write-back appends a record
     only when this is 0, so a retried write-back never duplicates one. *)
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

type pin = {
  pin_frame : frame;
  (* The domain that took the pin: balance checks are per domain, so one
     session's checkpoint does not see another session's in-flight pins. *)
  pin_domain : int;
  (* Acquisition backtrace, kept raw: symbolization is deferred to the
     (rare) moment a violation is reported, so taking a pin stays cheap
     enough to run whole suites under the sanitizer. *)
  pin_trace : Printexc.raw_backtrace;
  (* Whether this pin currently holds the frame latch ([use] sets and
     clears it); an unpin with the latch still held is a latch leak. *)
  mutable pin_latched : bool;
  mutable released : bool;
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
  (* The table mutex: frames, LRU links, pin counts, the
     sanitizer's live list, and all disk/WAL traffic happen under it.
     Frame *contents* are guarded by the per-frame latches instead, so
     callbacks overlap across domains; the mutex is never held while a
     callback runs or a latch is awaited. *)
  lock : Mutex.t;
  frames : (int, frame) Hashtbl.t;  (* page id -> frame *)
  (* Outstanding pins per domain id — the balance the sanitizer checks
     at per-session quiescent points. *)
  domain_pins : (int, int) Hashtbl.t;
  mutable head : frame option;  (* most recently used *)
  mutable tail : frame option;  (* least recently used *)
  mutable live : pin list;  (* outstanding pins, sanitize mode only *)
  (* Lockdep class names for this pool's frame latches and table mutex —
     unique per pool so two pools' page ids never alias in the global
     order graph (see {!Lock_order}). *)
  lockdep_page : string;
  lockdep_table : string;
}
[@@guarded_by lock]

exception Pool_exhausted of string
exception Sanitizer_violation of string
exception Pin_leak of string

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
    frames = Hashtbl.create (2 * capacity);
    domain_pins = Hashtbl.create 8;
    head = None;
    tail = None;
    live = [];
    lockdep_page = Printf.sprintf "pool%d.page" seq;
    lockdep_table = Printf.sprintf "pool%d.table" seq }

let disk t = t.disk
let wal t = t.wal
let capacity t = t.cap
let sanitizing t = t.sanitize

(* Every public entry point brackets its table work with this; helpers
   below assume the mutex is already held and never re-take it.  Under
   the sanitizer the table mutex participates in lockdep: latch -> table
   edges are expected (nested page use and mutation-time WAL logging run
   table work under a held latch), but a table -> latch edge — waiting
   on a latch while holding the table mutex — would close a cycle and is
   exactly the protocol violation the checker exists to catch. *)
let locked t f =
  if t.sanitize then Lock_order.before_acquire ~cls:t.lockdep_table ~inst:(-1);
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.lock;
      if t.sanitize then Lock_order.after_release ~cls:t.lockdep_table ~inst:(-1))
    f

let domain_id () = (Domain.self () :> int)

let domain_pin_count t d =
  match Hashtbl.find_opt t.domain_pins d with Some n -> n | None -> 0

let bump_domain_pins t d delta =
  let n = domain_pin_count t d + delta in
  if n = 0 then Hashtbl.remove t.domain_pins d else Hashtbl.replace t.domain_pins d n

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
       itself is.  Frames whose latest contents are already logged (the
       common case — mutation-time logging) are not re-appended, so a
       retried write-back never duplicates a record. *)
    (match t.wal with
     | None -> ()
     | Some wal ->
       (* The log-and-sync pair is retried as a unit.  A torn sync may
          have dropped this frame's pending record and rolled the log's
          [last_lsn] back past it; in that case [logged_lsn] points at a
          record that no longer exists, and skipping the append would
          write the page with no durable record — violating WAL before
          data.  So re-append whenever the frame's record is unlogged
          ([= 0]) or fell off the log ([> last_lsn]). *)
       with_retries t (fun () ->
           if frame.logged_lsn = 0 || frame.logged_lsn > Wal.last_lsn wal then
             frame.logged_lsn <- Wal.append wal ~page_id:frame.page_id ~data:frame.buf;
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
  Hashtbl.remove t.frames victim.page_id;
  Metrics.incr m_evictions

let insert_frame t page_id buf dirty =
  if Hashtbl.length t.frames >= t.cap then evict_one t;
  let frame =
    { page_id;
      buf;
      latch = Latch.create ();
      latch_holds = [];
      pins = 0;
      dirty;
      logged_lsn = 0;
      lru_prev = None;
      lru_next = None;
      shadow = None }
  in
  Hashtbl.replace t.frames page_id frame;
  push_front t frame;
  frame

let find t page_id =
  match Hashtbl.find_opt t.frames page_id with
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

let no_trace = Printexc.get_callstack 0

let pin_frame t frame =
  frame.pins <- frame.pins + 1;
  bump_domain_pins t (domain_id ()) 1;
  if not t.sanitize then
    { pin_frame = frame;
      pin_domain = domain_id ();
      pin_trace = no_trace;
      pin_latched = false;
      released = false }
  else begin
    (match frame.shadow with
     | Some _ -> ()
     | None -> frame.shadow <- Some (Bytes.copy frame.buf));
    let p =
      { pin_frame = frame;
        pin_domain = domain_id ();
        pin_trace = Printexc.get_callstack 24;
        pin_latched = false;
        released = false }
    in
    t.live <- p :: t.live;
    p
  end

let pin t page_id = locked t (fun () -> pin_frame t (find t page_id))

let pin_buffer p =
  match p.pin_frame.shadow with
  | Some s -> s
  | None -> p.pin_frame.buf

(* Assumes the table mutex is held. *)
let unpin_locked t p =
  if t.sanitize && p.released then
    raise
      (Sanitizer_violation
         (Printf.sprintf "double unpin of page %d; pin acquired at:\n%s"
            p.pin_frame.page_id
            (Printexc.raw_backtrace_to_string p.pin_trace)));
  if t.sanitize && p.pin_latched then
    raise
      (Sanitizer_violation
         (Printf.sprintf "unpin of page %d while its frame latch is still held; pin acquired at:\n%s"
            p.pin_frame.page_id
            (Printexc.raw_backtrace_to_string p.pin_trace)));
  p.released <- true;
  let frame = p.pin_frame in
  frame.pins <- frame.pins - 1;
  bump_domain_pins t p.pin_domain (-1);
  if t.sanitize then begin
    t.live <- List.filter (fun q -> q != p) t.live;
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
  end

let unpin t p = locked t (fun () -> unpin_locked t p)

let live_pins t =
  locked t (fun () ->
      List.map
        (fun p -> (p.pin_frame.page_id, Printexc.raw_backtrace_to_string p.pin_trace))
        t.live)

let pinned_pages_locked t =
  Hashtbl.fold
    (fun _ frame acc -> if frame.pins > 0 then (frame.page_id, frame.pins) :: acc else acc)
    t.frames []

let pinned_pages t = locked t (fun () -> pinned_pages_locked t)

let latched_pages_locked t =
  Hashtbl.fold
    (fun _ frame acc ->
      let h = Latch.holders frame.latch in
      if h <> 0 then (frame.page_id, h) :: acc else acc)
    t.frames []

let latched_pages t = locked t (fun () -> latched_pages_locked t)

(* The leak report for [where]: the pins (and held latches) attributable
   to the calling domain.  Assumes the mutex is held. *)
let domain_leak_report ~where t d =
  let mine = List.filter (fun p -> p.pin_domain = d) t.live in
  let pages =
    if mine <> [] then
      String.concat ", "
        (List.map (fun p -> string_of_int p.pin_frame.page_id) mine)
    else
      String.concat ", "
        (List.map (fun (id, pins) -> Printf.sprintf "%d (%d pins)" id pins)
           (pinned_pages_locked t))
  in
  let traces =
    String.concat ""
      (List.map
         (fun p ->
           Printf.sprintf "\npage %d pinned at:\n%s" p.pin_frame.page_id
             (Printexc.raw_backtrace_to_string p.pin_trace))
         mine)
  in
  Printf.sprintf "%s: leaked pins on pages [%s]%s" where pages traces

(* Per-domain: a session's checkpoint must not trip over another
   session's in-flight pins, so the balance checked here is the calling
   domain's outstanding count, not the global one. *)
let assert_unpinned ~where t =
  locked t (fun () ->
      let d = domain_id () in
      if domain_pin_count t d > 0 then raise (Pin_leak (domain_leak_report ~where t d));
      if t.sanitize then
        match latched_pages_locked t with
        | [] -> ()
        | leaked ->
          let held = List.filter (fun p -> p.pin_latched && p.pin_domain = d) t.live in
          if held <> [] then
            raise
              (Sanitizer_violation
                 (Printf.sprintf "%s: frame latches still held on pages [%s]" where
                    (String.concat ", "
                       (List.map (fun (id, h) -> Printf.sprintf "%d (%d)" id h) leaked)))));
  (* Outside [locked]: the table mutex itself is lockdep-tracked, so
     checking inside the bracket would report our own bracket as held. *)
  if t.sanitize then Lock_order.assert_none_held ~where

type pin_baseline = {
  base_domain : int;  (* the domain that captured the baseline *)
  base_total : int;  (* that domain's outstanding pins at capture time *)
  base_live : pin list;  (* the tokens live then (sanitize mode; [] otherwise) *)
}

let pin_baseline t =
  locked t (fun () ->
      let d = domain_id () in
      { base_domain = d; base_total = domain_pin_count t d; base_live = t.live })

let assert_balanced ~where ~baseline t =
  locked t (fun () ->
      let d = baseline.base_domain in
      let total = domain_pin_count t d in
      if total > baseline.base_total then begin
        let fresh =
          List.filter
            (fun p -> p.pin_domain = d && not (List.memq p baseline.base_live))
            t.live
        in
        let traces =
          if not t.sanitize then ""
          else
            String.concat ""
              (List.map
                 (fun p ->
                   Printf.sprintf "\npage %d pinned at:\n%s" p.pin_frame.page_id
                     (Printexc.raw_backtrace_to_string p.pin_trace))
                 fresh)
        in
        raise
          (Pin_leak
             (Printf.sprintf
                "%s: %d pin(s) acquired but never released (%d held before, %d now)%s"
                where (total - baseline.base_total) baseline.base_total total traces))
      end)

let use t page_id ~mut f =
  let d = domain_id () in
  let p, acquire =
    locked t (fun () ->
        let frame = find t page_id in
        (* The latch is not reentrant: a nested [use] of the same page by
           the same domain rides on the hold already registered for it.
           A shared hold cannot cover a nested mutation — upgrading
           in place would self-deadlock, so refuse loudly instead. *)
        let acquire =
          match List.assoc_opt d frame.latch_holds with
          | None ->
            frame.latch_holds <- (d, mut) :: frame.latch_holds;
            true
          | Some exclusive ->
            if mut && not exclusive then
              raise
                (Latch.Latch_error
                   (Printf.sprintf
                      "Buffer_pool: nested latch upgrade (shared -> exclusive) on \
                       page %d within one domain"
                      page_id));
            false
        in
        let p = pin_frame t frame in
        if mut then begin
          frame.dirty <- true;
          frame.logged_lsn <- 0
        end;
        (p, acquire))
  in
  let frame = p.pin_frame in
  (* Latch outside the table mutex: waiting here must not block other
     domains' table traffic.  The pin already protects the frame from
     eviction, so the frame (and its latch) stay alive while we wait. *)
  if acquire then begin
    (match
       if t.sanitize then Lock_order.before_acquire ~cls:t.lockdep_page ~inst:page_id
     with
     | () ->
       if mut then Latch.acquire_exclusive frame.latch
       else Latch.acquire_shared frame.latch;
       p.pin_latched <- true
     | exception e ->
       (* The latch was never taken: roll back the hold registration and
          the pin so the violation propagates from a consistent pool. *)
       locked t (fun () ->
           frame.latch_holds <- List.filter (fun (d', _) -> d' <> d) frame.latch_holds;
           unpin_locked t p);
       raise e)
  end;
  let result =
    Fun.protect
      ~finally:(fun () ->
        if p.pin_latched then begin
          p.pin_latched <- false;
          if t.sanitize then Lock_order.after_release ~cls:t.lockdep_page ~inst:page_id;
          Latch.release frame.latch
        end;
        locked t (fun () ->
            if acquire then
              frame.latch_holds <-
                List.filter (fun (d', _) -> d' <> d) frame.latch_holds;
            unpin_locked t p))
      (fun () -> f (pin_buffer p))
  in
  (* Mutation-time logging: append the after-image as soon as the
     mutation completes (after the unpin, so the sanitizer's shadow has
     been folded into [buf]).  A callback that raises leaves the frame
     with [logged_lsn = 0]; write-back logs it then.  Logging outside
     [Fun.protect] keeps an injected crash out of [~finally]. *)
  (match t.wal with
   | None -> ()
   | Some wal ->
     if mut then
       locked t (fun () ->
           frame.logged_lsn <-
             with_retries t (fun () -> Wal.append wal ~page_id ~data:frame.buf)));
  result

let with_page t page_id f = use t page_id ~mut:false f
let with_page_mut t page_id f = use t page_id ~mut:true f

let flush_all t = locked t (fun () -> Hashtbl.iter (fun _ frame -> write_back t frame) t.frames)

let drop_all t =
  locked t (fun () ->
      (* Dropping frames with outstanding pins — anyone's, not just this
         domain's — would invalidate live buffers. *)
      (match pinned_pages_locked t with
       | [] -> ()
       | leaked ->
         let pages =
           String.concat ", "
             (List.map (fun (id, pins) -> Printf.sprintf "%d (%d pins)" id pins) leaked)
         in
         raise (Pin_leak (Printf.sprintf "Buffer_pool.drop_all: leaked pins on pages [%s]" pages)));
      Hashtbl.iter (fun _ frame -> write_back t frame) t.frames;
      Hashtbl.reset t.frames;
      t.head <- None;
      t.tail <- None)
