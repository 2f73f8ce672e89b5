(* compare.exe PARENT_DIR CHANGE_DIR: judge a change against its parent
   from runs recorded with [run.exe --record DIR].  Run k of a workload
   in one directory is paired with run k in the other, so record them
   alternating between the two sides.

   For every workload and end-to-end metric it prints both medians with
   their quartiles, the pairs the change won, and a verdict:
   - improved: at least 10 pairs, the change won 9/10 of them (ties
     count for neither), and the medians differ by more than the
     parent's interquartile range;
   - unresolved: the parent's own spread (IQR over median) is wider
     than the metric's bound, and not every change run beats every
     parent run;
   - regressed: the change's median is worse than the parent's by more
     than the bound BENCHMARK.json fixes;
   - unchanged: otherwise.
   Per-layer metrics of traced runs are listed with their medians only.
   Exits 1 if any metric regressed. *)

module J = Xqdb_testbed.Report

let usage () =
  prerr_endline "usage: compare.exe PARENT_DIR CHANGE_DIR";
  exit 2

(* Recorded runs of one directory: (workload, traced) -> runs in order. *)
let load dir =
  let index file =
    let stem = Filename.chop_suffix file ".json" in
    match Filename.extension stem with
    | "" -> 0
    | ext -> Option.value ~default:0 (int_of_string_opt (String.sub ext 1 (String.length ext - 1)))
  in
  let files =
    List.filter (fun f -> Filename.check_suffix f ".json") (Array.to_list (Sys.readdir dir))
    |> List.sort (fun a b -> compare (index a, a) (index b, b))
  in
  let table = Hashtbl.create 8 in
  List.iter
    (fun f ->
      match J.parse_file (Filename.concat dir f) with
      | Error msg -> Printf.eprintf "skipping %s: %s\n" f msg
      | Ok json -> (
        match (J.member "workload" json, J.member "trace" json) with
        | Some (J.Str w), Some (J.Bool traced) ->
          let key = (w, traced) in
          Hashtbl.replace table key
            (json :: Option.value ~default:[] (Hashtbl.find_opt table key))
        | _ -> Printf.eprintf "skipping %s: not a recorded run\n" f))
    files;
  fun key -> List.rev (Option.value ~default:[] (Hashtbl.find_opt table key))

let value name json =
  match Option.bind (J.member "metrics" json) (J.member name) with
  | Some m -> (
    match J.member "value" m with
    | Some (J.Float v) -> Some v
    | Some (J.Int v) -> Some (float_of_int v)
    | _ -> None)
  | None -> None

let int_field name json = match J.member name json with Some (J.Int n) -> n | _ -> 0

let failed_ratio runs =
  let attempted = List.fold_left (fun acc r -> acc + int_field "attempted" r) 0 runs in
  let failed = List.fold_left (fun acc r -> acc + int_field "failed" r) 0 runs in
  float_of_int failed /. float_of_int (max 1 attempted)

let summary values =
  if List.length values < 2 then
    let m = Stats.median values in
    (m, m, m)
  else Stats.quartiles values

let verdict (m : Spec.metric) parent change =
  let better a b = if m.Spec.higher_is_better then a > b else a < b in
  let bound = Option.value ~default:0. m.Spec.bound in
  let p1, pm, p3 = summary parent and _, cm, _ = summary change in
  let n = min (List.length parent) (List.length change) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let pairs = List.combine (first parent) (first change) in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let spread = if pm = 0. then 0. else (p3 -. p1) /. Float.abs pm in
  let worse_by =
    if pm = 0. then 0.
    else (if m.Spec.higher_is_better then pm -. cm else cm -. pm) /. Float.abs pm
  in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change
  in
  let v =
    if n >= 10 && wins * 10 >= 9 * n && Float.abs (cm -. pm) > p3 -. p1 && better cm pm then
      "improved"
    else if spread > bound && not all_better then "unresolved"
    else if worse_by > bound then "regressed"
    else "unchanged"
  in
  (v, wins, n)

let () =
  let parent_dir, change_dir =
    match Sys.argv with [| _; p; c |] -> (p, c) | _ -> usage ()
  in
  let spec = Spec.load () in
  let parent = load parent_dir and change = load change_dir in
  let regressed = ref false in
  Printf.printf "%-11s %-18s %26s %26s %7s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "wins" "verdict";
  let show values =
    let q1, m, q3 = summary values in
    Printf.sprintf "%10.4g [%6.4g, %6.4g]" m q1 q3
  in
  List.iter
    (fun w ->
      let p = parent (w, false) and c = change (w, false) in
      if p = [] || c = [] then
        Printf.printf "%-11s (no runs on the %s side)\n" w (if p = [] then "parent" else "change")
      else begin
        List.iter
          (fun (m : Spec.metric) ->
            let pv = List.filter_map (value m.Spec.name) p
            and cv = List.filter_map (value m.Spec.name) c in
            if pv <> [] && cv <> [] then begin
              let v, wins, n = verdict m pv cv in
              if v = "regressed" then regressed := true;
              Printf.printf "%-11s %-18s %26s %26s %3d/%-3d  %s\n" w m.Spec.name (show pv)
                (show cv) wins n v
            end)
          spec.Spec.end_to_end;
        Printf.printf "%-11s %-18s %26.4g %26.4g\n" w "failed_ratio" (failed_ratio p)
          (failed_ratio c)
      end;
      let pt = parent (w, true) and ct = change (w, true) in
      if pt <> [] && ct <> [] then
        List.iter
          (fun (m : Spec.metric) ->
            let pv = List.filter_map (value m.Spec.name) pt
            and cv = List.filter_map (value m.Spec.name) ct in
            if pv <> [] && cv <> [] then
              Printf.printf "%-11s %-32s %26s %26s  (per-layer)\n" w m.Spec.name (show pv)
                (show cv))
          spec.Spec.per_layer)
    spec.Spec.workloads;
  exit (if !regressed then 1 else 0)
