type t = {
  scope : Metrics.scope;
  start : float;
  max_page_ios : int option;
  max_seconds : float option;
  (* Absolute instant ({!Monotonic.now} scale) after which the request
     is dead.  Unlike [max_seconds] — a relative cap the server clamps —
     the deadline travels with the request, so queue time before
     execution counts against it. *)
  deadline : float option;
}

exception Exhausted of string
exception Deadline_exceeded of string

let create ?max_page_ios ?max_seconds ?deadline () =
  (* Elapsed time, not process CPU time: a time budget bounds how long the
     caller waits, which includes I/O wait and — under concurrent
     sessions — time spent blocked on latches. *)
  { scope = Metrics.scope ();
    start = Monotonic.now ();
    max_page_ios;
    max_seconds;
    deadline }

let scope t = t.scope
let page_ios t = Disk.scope_ios t.scope
let elapsed t = Monotonic.elapsed_since t.start

(* The budget [run] installed in this domain, read by the buffer pool on
   every frame insert: one domain-local read when no budget is set. *)
let installed : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let run t f =
  let previous = Domain.DLS.get installed in
  Domain.DLS.set installed (Some t);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set installed previous)
    (fun () -> Metrics.with_scope t.scope f)

let check_page_ios () =
  match Domain.DLS.get installed with
  | Some ({ max_page_ios = Some cap; _ } as t) ->
    let ios = page_ios t in
    if ios > cap then
      raise (Exhausted (Printf.sprintf "page I/O budget exceeded (%d > %d)" ios cap))
  | Some { max_page_ios = None; _ } | None -> ()

let check t =
  (* Deadline first: a request that is already dead should be censored
     as [Timeout] even if the time cap would also have tripped. *)
  (match t.deadline with
   | Some d ->
     let now = Monotonic.now () in
     if now > d then
       raise
         (Deadline_exceeded
            (Printf.sprintf "deadline exceeded (%.3fs past it)" (now -. d)))
   | None -> ());
  match t.max_seconds with
  | Some cap when elapsed t > cap ->
    raise (Exhausted (Printf.sprintf "time budget exceeded (%.2fs > %.2fs)" (elapsed t) cap))
  | Some _ | None -> ()
