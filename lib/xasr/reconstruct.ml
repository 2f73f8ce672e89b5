module Tree = Xqdb_xml.Xml_tree

(* One pass over tuples sorted by [in], maintaining the stack of open
   ancestors.  When the next tuple's [in] is beyond the top's [out], the
   top is complete and folds into its parent. *)

type frame = {
  tuple : Xasr.tuple;
  mutable children_rev : Tree.node list;
}
[@@domain_local]

let to_node frame =
  match frame.tuple.Xasr.ntype with
  | Xasr.Text -> Tree.Text frame.tuple.Xasr.value
  | Xasr.Element -> Tree.Elem (frame.tuple.Xasr.value, List.rev frame.children_rev)
  | Xasr.Root -> invalid_arg "Reconstruct: root tuple inside a subtree"

(* Build the forest of completed top-level frames from a tuple cursor
   whose first tuple is the subtree root (excluded from the output when
   [drop_first]). *)
let build cursor =
  let stack = ref [] in
  let out_rev = ref [] in
  let complete frame =
    let node = to_node frame in
    match !stack with
    | parent :: _ -> parent.children_rev <- node :: parent.children_rev
    | [] -> out_rev := node :: !out_rev
  in
  let rec pop_until nin =
    match !stack with
    | top :: rest when top.tuple.Xasr.nout < nin ->
      stack := rest;
      complete top;
      pop_until nin
    | _ :: _ | [] -> ()
  in
  let rec go () =
    match cursor () with
    | None -> ()
    | Some tuple ->
      pop_until tuple.Xasr.nin;
      (match tuple.Xasr.ntype with
       | Xasr.Text ->
         (* Texts have no children; complete immediately. *)
         (match !stack with
          | parent :: _ -> parent.children_rev <- Tree.Text tuple.Xasr.value :: parent.children_rev
          | [] -> out_rev := Tree.Text tuple.Xasr.value :: !out_rev)
       | Xasr.Element | Xasr.Root -> stack := { tuple; children_rev = [] } :: !stack);
      go ()
  in
  go ();
  pop_until max_int;
  List.rev !out_rev

let subtree store tuple =
  match tuple.Xasr.ntype with
  | Xasr.Root -> invalid_arg "Reconstruct.subtree: virtual root"
  | Xasr.Text -> Tree.Text tuple.Xasr.value
  | Xasr.Element ->
    let cursor = Node_store.scan_in_range store ~lo:tuple.Xasr.nin ~hi:tuple.Xasr.nout in
    (match build cursor with
     | [node] -> node
     | forest ->
       Xqdb_storage.Xqdb_error.corrupt "Reconstruct.subtree: expected one tree, got %d"
         (List.length forest))

let root_forest store =
  let root = Node_store.root_tuple store in
  (* Skip the root tuple itself: scan strictly inside its interval. *)
  let cursor =
    Node_store.scan_in_range store ~lo:(root.Xasr.nin + 1) ~hi:(root.Xasr.nout - 1)
  in
  build cursor

(* The streaming twin of [build]: the same stack discipline, but an
   element is printed when it opens and closed when the first tuple past
   its [out] arrives, so only the open [(label, out)] pairs are kept. *)
let write_range reader buf ~lo ~hi =
  let stack = ref [] in
  let close label =
    Buffer.add_string buf "</";
    Buffer.add_string buf label;
    Buffer.add_char buf '>'
  in
  let rec pop_until nin =
    match !stack with
    | (label, nout) :: rest when nout < nin ->
      stack := rest;
      close label;
      pop_until nin
    | _ :: _ | [] -> ()
  in
  Node_store.read_range reader ~lo ~hi (fun tuple ->
      pop_until tuple.Xasr.nin;
      match tuple.Xasr.ntype with
      | Xasr.Root -> ()
      | Xasr.Text -> Buffer.add_string buf (Xqdb_xml.Xml_print.escape_text tuple.Xasr.value)
      | Xasr.Element ->
        Buffer.add_char buf '<';
        Buffer.add_string buf tuple.Xasr.value;
        if tuple.Xasr.nout = tuple.Xasr.nin + 1 then Buffer.add_string buf "/>"
        else begin
          Buffer.add_char buf '>';
          stack := (tuple.Xasr.value, tuple.Xasr.nout) :: !stack
        end);
  List.iter (fun (label, _) -> close label) !stack
