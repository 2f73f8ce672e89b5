type counter = {
  name : string;
  value : int Atomic.t;
}

(* The registry is global and append-only: counters are created once (at
   module initialization of the instrumented subsystem) and bumped with a
   single atomic fetch-and-add on the hot path — parallel scan domains
   bump the same counters, so a plain mutable field would silently lose
   updates.  Readers work on snapshots, so per-query attribution is done
   by delta, never by resetting behind a running engine's back. *)
let registry : (string, counter) Hashtbl.t = Hashtbl.create 64
[@@guarded_by registry_mutex]

let registry_mutex = Mutex.create ()

let counter name =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
        let c = { name; value = Atomic.make 0 } in
        Hashtbl.replace registry name c;
        c)

let name c = c.name
let value c = Atomic.get c.value
let incr c = ignore (Atomic.fetch_and_add c.value 1)
let add c n = ignore (Atomic.fetch_and_add c.value n)

type snapshot = (string * int) list

let snapshot () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.fold (fun _ c acc -> (c.name, Atomic.get c.value) :: acc) registry [])
  |> List.sort (fun (n1, _) (n2, _) -> String.compare n1 n2)

let get snap name =
  match List.assoc_opt name snap with
  | Some v -> v
  | None -> 0

(* [diff later earlier]: per-counter deltas, dropping zero entries so a
   profile only reports the subsystems a query actually touched. *)
let diff later earlier =
  List.filter_map
    (fun (name, v) ->
      let d = v - get earlier name in
      if d = 0 then None else Some (name, d))
    later
