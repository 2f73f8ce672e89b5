(* The latch-order (lockdep) checker.

   One global directed graph over (class, instance) lock keys: an edge
   src -> dst means "some domain acquired dst while holding src".  Each
   edge stores the raw acquisition backtraces of both ends; cycle
   detection runs at edge-insertion time, so the offending acquisition
   is reported before it blocks.  Everything below [lock] is guarded by
   it; backtrace symbolization happens only on the (rare) violation
   path. *)

type key = { cls : string; inst : int }

exception Lock_order_violation of string

let m_edges = Metrics.counter "latch.order_edges"
let m_violations = Metrics.counter "latch.order_violations"

let key_equal a b = String.equal a.cls b.cls && a.inst = b.inst

let key_label k =
  if k.inst < 0 then k.cls else Printf.sprintf "%s %d" k.cls k.inst

(* One end of the graph: the key plus where it was acquired, raw. *)
type hold = { h_key : key; h_trace : Printexc.raw_backtrace }

type edge = {
  e_src : key;
  e_dst : key;
  e_src_trace : Printexc.raw_backtrace;  (* [e_src] was held here ... *)
  e_dst_trace : Printexc.raw_backtrace;  (* ... when [e_dst] was acquired here *)
}

let lock = Mutex.create ()

(* Per-domain held stacks, most recent acquisition first. *)
let held : (int, hold list) Hashtbl.t = Hashtbl.create 8 [@@guarded_by lock]

(* Adjacency: source key label -> outgoing edges. *)
let edges : (string, edge list) Hashtbl.t = Hashtbl.create 64 [@@guarded_by lock]

let domain_id () = (Domain.self () :> int)

let held_of d = match Hashtbl.find_opt held d with Some hs -> hs | None -> []

let out_edges k = match Hashtbl.find_opt edges (key_label k) with
  | Some es -> es
  | None -> []

let edge_exists src dst =
  List.exists (fun e -> key_equal e.e_dst dst) (out_edges src)

(* DFS for a path [src ==> dst]; returns the edges along one such path
   (in walk order) or [] when unreachable.  The graph is small (one node
   per latched page class/instance seen so far) and this only runs on
   acquisitions that extend the graph, so plain recursion is fine. *)
let find_path src dst =
  let visited = Hashtbl.create 16 in
  let rec go k =
    if Hashtbl.mem visited (key_label k) then None
    else begin
      Hashtbl.add visited (key_label k) ();
      let rec try_edges = function
        | [] -> None
        | e :: rest ->
          if key_equal e.e_dst dst then Some [ e ]
          else (
            match go e.e_dst with
            | Some path -> Some (e :: path)
            | None -> try_edges rest)
      in
      try_edges (out_edges k)
    end
  in
  if key_equal src dst then Some [] else go src

let bt = Printexc.raw_backtrace_to_string

let render_edge e =
  Printf.sprintf "  %s -> %s\n    %s held, acquired at:\n%s    %s acquired at:\n%s"
    (key_label e.e_src) (key_label e.e_dst) (key_label e.e_src)
    (bt e.e_src_trace) (key_label e.e_dst) (bt e.e_dst_trace)

(* The violation report: the dependency being added plus the recorded
   reverse path that closes the cycle, both with their backtraces. *)
let violation_message ~(holding : hold) ~(acquiring : key) ~trace ~path =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "lock order violation: acquiring %s while holding %s closes a cycle\n"
       (key_label acquiring) (key_label holding.h_key));
  Buffer.add_string b "new dependency:\n";
  Buffer.add_string b
    (render_edge
       { e_src = holding.h_key;
         e_dst = acquiring;
         e_src_trace = holding.h_trace;
         e_dst_trace = trace });
  Buffer.add_string b "recorded reverse path:\n";
  List.iter (fun e -> Buffer.add_string b (render_edge e)) path;
  Buffer.contents b

(* A second acquisition of a lock the domain already holds: no latch or
   mutex here is reentrant, so it would block on itself. *)
let reentry_message ~(holding : hold) ~trace =
  Printf.sprintf
    "lock order violation: acquiring %s while already holding it (not reentrant)\n\
     held, acquired at:\n%s  acquired again at:\n%s"
    (key_label holding.h_key) (bt holding.h_trace) (bt trace)

let before_acquire ~cls ~inst =
  let k = { cls; inst } in
  let d = domain_id () in
  let trace = Printexc.get_callstack 24 in
  Mutex.protect lock (fun () ->
      let hs = held_of d in
      List.iter
        (fun h ->
          if key_equal h.h_key k then begin
            Metrics.incr m_violations;
            raise (Lock_order_violation (reentry_message ~holding:h ~trace))
          end;
          if not (edge_exists h.h_key k) then begin
            (match find_path k h.h_key with
             | Some path ->
               Metrics.incr m_violations;
               raise
                 (Lock_order_violation
                    (violation_message ~holding:h ~acquiring:k ~trace ~path))
             | None -> ());
            Hashtbl.replace edges (key_label h.h_key)
              ({ e_src = h.h_key;
                 e_dst = k;
                 e_src_trace = h.h_trace;
                 e_dst_trace = trace }
               :: out_edges h.h_key);
            Metrics.incr m_edges
          end)
        hs;
      Hashtbl.replace held d ({ h_key = k; h_trace = trace } :: hs))

let after_release ~cls ~inst =
  let k = { cls; inst } in
  let d = domain_id () in
  Mutex.protect lock (fun () ->
      let rec drop_first = function
        | [] -> []
        | h :: rest -> if key_equal h.h_key k then rest else h :: drop_first rest
      in
      match drop_first (held_of d) with
      | [] -> Hashtbl.remove held d
      | hs -> Hashtbl.replace held d hs)

let held_by_self () =
  let d = domain_id () in
  Mutex.protect lock (fun () -> List.map (fun h -> h.h_key) (held_of d))

let edges_recorded () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun _ es acc -> acc + List.length es) edges 0)

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset held;
      Hashtbl.reset edges)
