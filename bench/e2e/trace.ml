(* Spans recorded by the benchmark around its own calls into each layer.
   One [lane] per client thread or domain, so recording never shares
   mutable state; span ids carry the lane in their high bits and stay
   unique across lanes.  Spans are kept in memory and written out when
   the run ends.

   Untraced runs pass [None] everywhere: the same code runs, and a span
   costs one match. *)

type span = {
  id : int;
  parent : int;  (* 0 for a request's root span *)
  req : int;  (* the root span's id *)
  name : string;
  start_ns : int64;
  end_ns : int64;
}

type lane = {
  base : int;
  mutable next : int;
  mutable spans : span list;
}

type ctx = {
  lane : lane;
  req : int;
  id : int;
}

let lane k = { base = (k + 1) lsl 32; next = 0; spans = [] }

let fresh lane =
  lane.next <- lane.next + 1;
  lane.base + lane.next

let record lane ~id ~parent ~req name start_ns =
  lane.spans <- { id; parent; req; name; start_ns; end_ns = Clock.now_ns () } :: lane.spans

(* A request's root span; [f] gets the context its children attach to. *)
let root lane name f =
  match lane with
  | None -> f None
  | Some lane ->
    let id = fresh lane and start = Clock.now_ns () in
    let r = f (Some { lane; req = id; id }) in
    record lane ~id ~parent:0 ~req:id name start;
    r

let span ctx name f =
  match ctx with
  | None -> f ()
  | Some c ->
    let id = fresh c.lane and start = Clock.now_ns () in
    let r = f () in
    record c.lane ~id ~parent:c.id ~req:c.req name start;
    r

(* --- summary ----------------------------------------------------------- *)

let dur s = Int64.to_float (Int64.sub s.end_ns s.start_ns)

type summary = {
  roots : int;
  root_ns : float;  (* summed duration of the root spans *)
  self_ns : (string * float) list;
      (* per span name: duration minus the part its children cover *)
  counts : (string * int) list;  (* spans per name *)
}

let summarize spans =
  let children = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    spans;
  let self = Hashtbl.create 16 and counts = Hashtbl.create 16 in
  let roots = ref 0 and root_ns = ref 0. in
  List.iter
    (fun s ->
      let own = dur s -. Option.value ~default:0. (Hashtbl.find_opt children s.id) in
      Hashtbl.replace self s.name (own +. Option.value ~default:0. (Hashtbl.find_opt self s.name));
      Hashtbl.replace counts s.name (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.name));
      if s.parent = 0 then begin
        incr roots;
        root_ns := !root_ns +. dur s
      end)
    spans;
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  { roots = !roots; root_ns = !root_ns; self_ns = sorted self; counts = sorted counts }

let self_ns summary name = Option.value ~default:0. (List.assoc_opt name summary.self_ns)
let count summary name = Option.value ~default:0 (List.assoc_opt name summary.counts)

(* The root spans' self time as a share of their duration: the part of
   each request no layer span accounts for. *)
let unattributed summary root_name =
  if summary.root_ns = 0. then 0. else self_ns summary root_name /. summary.root_ns

let render summary =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "  %-24s %8s %14s %8s\n" "span" "count" "self us/op" "share";
  List.iter
    (fun (name, ns) ->
      Printf.bprintf buf "  %-24s %8d %14.2f %7.1f%%\n" name (count summary name)
        (ns /. 1e3 /. float_of_int (max 1 summary.roots))
        (100. *. ns /. Float.max 1. summary.root_ns))
    summary.self_ns;
  Buffer.contents buf

let write_jsonl path spans =
  let spans = List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) spans in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (s : span) ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            s.id s.parent s.req s.name s.start_ns s.end_ns)
        spans)
