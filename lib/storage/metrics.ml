type counter = {
  name : string;
  id : int;  (* registration order: the counter's slot in a scope *)
  value : int Atomic.t;
}

(* The registry is global and append-only: counters are created once (at
   module initialization of the instrumented subsystem) and bumped with a
   single atomic fetch-and-add on the hot path — parallel scan domains
   bump the same counters, so a plain mutable field would silently lose
   updates.  Per-request attribution goes through scopes, never through
   resetting or diffing the global values behind a running engine's
   back. *)
let registry : (string, counter) Hashtbl.t = Hashtbl.create 64
[@@guarded_by registry_mutex]

let registry_mutex = Mutex.create ()

let counter name =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
        let c = { name; id = Hashtbl.length registry; value = Atomic.make 0 } in
        Hashtbl.replace registry name c;
        c)

let value c = Atomic.get c.value

(* Outside any [with_scope] the empty scope is installed, which charges
   nothing.  Slots are atomic: par_scan workers charge their parent
   request's scope from their own domains. *)
type scope = int Atomic.t array

let scope () =
  let n = Mutex.protect registry_mutex (fun () -> Hashtbl.length registry) in
  Array.init n (fun _ -> Atomic.make 0)

let installed : scope Domain.DLS.key = Domain.DLS.new_key (fun () -> [||])

let current () = Domain.DLS.get installed

let with_scope s f =
  let previous = Domain.DLS.get installed in
  Domain.DLS.set installed s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set installed previous) f

let charged s c = if c.id < Array.length s then Atomic.get s.(c.id) else 0

(* [incr] is spelled out rather than [add c 1]: it sits on the B-tree,
   latch and pool hot paths. *)
let incr c =
  Atomic.incr c.value;
  let s = Domain.DLS.get installed in
  if c.id < Array.length s then Atomic.incr (Array.unsafe_get s c.id)

let add c n =
  ignore (Atomic.fetch_and_add c.value n);
  let s = Domain.DLS.get installed in
  if c.id < Array.length s then ignore (Atomic.fetch_and_add (Array.unsafe_get s c.id) n)

type snapshot = (string * int) list

let nonzero read =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.fold (fun _ c acc -> match read c with 0 -> acc | v -> (c.name, v) :: acc) registry [])
  |> List.sort (fun (n1, _) (n2, _) -> String.compare n1 n2)

let snapshot () = nonzero value
let scope_snapshot s = nonzero (charged s)

let get snap name =
  match List.assoc_opt name snap with
  | Some v -> v
  | None -> 0
