(* The xqdb end-to-end benchmark.  Run from the repository root:

     dune exec bench/e2e/run.exe -- --seed 42            all four workloads
     dune exec bench/e2e/run.exe -- --seed 42 --trace 1  ... plus a traced run each
     dune exec bench/e2e/run.exe -- --workload serve-hot --seed 7 --seconds 10 --trace 0

   With [--workload], one workload runs in this process: it prints
   "workload metric value unit" for each metric, writes
   bench/e2e/out/<workload>.json (traced: <workload>.trace.json and the
   spans as <workload>.trace.jsonl), and ends its output with one JSON
   line {correct, attempted, failed, metrics}.  An untraced run reports
   the end-to-end metrics BENCHMARK.json declares, a traced run the
   per-layer ones.  The exit code is 0 only if every output was correct.

   Without [--workload], every workload of BENCHMARK.json runs in a
   child process of its own; with [--trace 1] each also gets a traced
   run, and the traced-vs-untraced throughput difference is printed as
   the tracing overhead.  [--smoke] runs every workload at tiny scale
   for half a second, untraced and traced, and checks that each declared
   metric is printed with its unit and that nothing failed.
   [--record DIR] also copies each run's JSON into DIR for compare.exe. *)

module J = Xqdb_testbed.Report

let workloads =
  [ ("serve-hot", Serve.run Serve.Hot);
    ("serve-cold", Serve.run Serve.Cold);
    ("grade-fig7", Grade.run);
    ("ingest", Ingest.run) ]

let out_dir = Filename.concat "bench" (Filename.concat "e2e" "out")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

type args = {
  workload : string option;
  seed : int;
  seconds : float option;
  trace : bool;
  tiny : bool;
  smoke : bool;
  record : string option;
}

let usage () =
  prerr_endline
    "usage: run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--record DIR] \
     [--smoke]";
  exit 2

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = Some w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with Some seed -> go { a with seed } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some s when s > 0. -> go { a with seconds = Some s } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--tiny" :: rest -> go { a with tiny = true } rest
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | "--record" :: dir :: rest -> go { a with record = Some dir } rest
    | _ -> usage ()
  in
  go
    { workload = None; seed = 42; seconds = None; trace = false; tiny = false; smoke = false;
      record = None }
    (List.tl (Array.to_list argv))

let result_file name ~trace =
  Filename.concat out_dir (name ^ if trace then ".trace.json" else ".json")

(* The first free DIR/<base>.<k>.json, so repeated runs accumulate. *)
let record_into dir base json =
  mkdir_p dir;
  let rec free k =
    let path = Filename.concat dir (Printf.sprintf "%s.%d.json" base k) in
    if Sys.file_exists path then free (k + 1) else path
  in
  J.write_file (free 1) json

(* --- one workload, in this process ------------------------------------- *)

let run_workload (spec : Spec.t) args name =
  let run =
    match List.assoc_opt name workloads with
    | Some run -> run
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let tmp_dir = Filename.concat out_dir ("tmp-" ^ name) in
  mkdir_p tmp_dir;
  let seconds = Option.value args.seconds ~default:(float_of_int spec.Spec.run_seconds) in
  let cfg =
    { Outcome.seed = args.seed;
      seconds;
      warmup = (if args.tiny then 0.2 else 2.0);
      trace = args.trace;
      tiny = args.tiny;
      tmp_dir }
  in
  let o = run cfg in
  (try Sys.rmdir tmp_dir with Sys_error _ -> ());
  let declared = if args.trace then spec.Spec.per_layer else spec.Spec.end_to_end in
  let measured = if args.trace then Outcome.per_layer o else Outcome.end_to_end o in
  let names l = List.sort compare l in
  if names (List.map fst measured) <> names (List.map (fun m -> m.Spec.name) declared) then begin
    Printf.eprintf "%s: the metrics measured differ from the ones %s declares\n" name Spec.file;
    exit 3
  end;
  let gates =
    o.Outcome.gate_failures
    @ (if o.Outcome.attempted < 1 then ["no operation completed in the window"] else [])
    @ List.filter_map
        (fun (m, v) ->
          if Float.is_finite v then None else Some (Printf.sprintf "%s is not finite" m))
        measured
  in
  let o = { o with Outcome.gate_failures = gates } in
  let correct = Outcome.correct o in
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        let v = List.assoc m.Spec.name measured in
        (m.Spec.name, (if Float.is_finite v then v else 0.), m.Spec.unit_))
      declared
  in
  List.iter (fun (m, v, u) -> Printf.printf "%s %s %.6g %s\n" name m v u) metrics;
  if args.trace then begin
    let summary = Trace.summarize o.Outcome.spans in
    Printf.printf "%s: self time per span over %d traced operations\n%s" name summary.Trace.roots
      (Trace.render summary);
    Trace.write_jsonl (Filename.concat out_dir (name ^ ".trace.jsonl")) o.Outcome.spans
  end;
  List.iter (fun g -> Printf.eprintf "%s: FAILED: %s\n" name g) gates;
  let metrics_json =
    J.Obj
      (List.map
         (fun (m, v, u) -> (m, J.Obj [("value", J.Float v); ("unit", J.Str u)]))
         metrics)
  in
  let result =
    [ ("correct", J.Bool correct);
      ("attempted", J.Int o.Outcome.attempted);
      ("failed", J.Int o.Outcome.failed);
      ("metrics", metrics_json) ]
  in
  let record =
    J.Obj
      ([ ("workload", J.Str name);
         ("seed", J.Int args.seed);
         ("seconds", J.Float seconds);
         ("trace", J.Bool args.trace) ]
      @ result
      @ [ ( "failed_ratio",
            J.Float
              (float_of_int o.Outcome.failed /. float_of_int (max 1 o.Outcome.attempted)) );
          ("window_s", J.Float o.Outcome.window_s);
          ("setup_samples_s", J.Arr (List.map (fun s -> J.Float s) o.Outcome.setup_s));
          ("gate_failures", J.Arr (List.map (fun g -> J.Str g) gates));
          ("workload_info", J.Obj o.Outcome.info);
          ("host", Probe.host ~tmp_dir) ])
  in
  J.write_file (result_file name ~trace:args.trace) record;
  Option.iter
    (fun dir -> record_into dir (name ^ if args.trace then ".trace" else "") record)
    args.record;
  print_endline (J.to_string (J.Obj result));
  exit (if correct then 0 else 1)

(* --- every workload, each in a child process --------------------------- *)

let child ?(quiet = false) args name ~trace =
  let argv =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int args.seed; "--trace";
      (if trace then "1" else "0") ]
    @ (match args.seconds with Some s -> ["--seconds"; Printf.sprintf "%g" s] | None -> [])
    @ (if args.tiny then ["--tiny"] else [])
    @ match args.record with Some d -> ["--record"; d] | None -> []
  in
  let out = if quiet then Unix.openfile "/dev/null" [Unix.O_WRONLY] 0 else Unix.stdout in
  let pid = Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin out Unix.stderr in
  if quiet then Unix.close out;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> true
  | _ -> false

let read_result name ~trace =
  match J.parse_file (result_file name ~trace) with
  | Ok json -> json
  | Error msg -> failwith msg

let metric_value json name =
  match Option.bind (J.member "metrics" json) (J.member name) with
  | Some m -> (
    match (J.member "value" m, J.member "unit" m) with
    | Some (J.Float v), Some (J.Str u) -> Some (v, u)
    | Some (J.Int v), Some (J.Str u) -> Some (float_of_int v, u)
    | _ -> None)
  | None -> None

let run_all (spec : Spec.t) args =
  let ok =
    List.for_all Fun.id
      (List.map
         (fun name ->
           let plain = child args name ~trace:false in
           if not args.trace then plain
           else begin
             let traced = child args name ~trace:true in
             (if plain && traced then
                match
                  ( metric_value (read_result name ~trace:false) "throughput_ops_s",
                    metric_value (read_result name ~trace:true) "trace.throughput_ops_s" )
                with
                | Some (untraced, _), Some (traced, _) ->
                  Printf.printf
                    "%s tracing overhead: %.1f%% (throughput %.1f/s untraced, %.1f/s traced%s)\n%!"
                    name
                    (100. *. (1. -. (traced /. untraced)))
                    untraced traced
                    (if String.starts_with ~prefix:"serve" name then
                       "; the untraced run also crosses the socket"
                     else "")
                | _ -> ());
             plain && traced
           end)
         spec.Spec.workloads)
  in
  exit (if ok then 0 else 1)

(* Each workload at tiny scale, untraced and traced: every declared
   metric must be printed with its declared unit and nothing may fail. *)
let smoke (spec : Spec.t) args =
  let args = { args with seconds = Some 0.5; tiny = true; record = None } in
  let t0 = Clock.now () in
  let problems =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun trace ->
            let label = name ^ if trace then " (traced)" else "" in
            if not (child ~quiet:true args name ~trace) then [label ^ ": run failed"]
            else
              let json = read_result name ~trace in
              let declared = if trace then spec.Spec.per_layer else spec.Spec.end_to_end in
              List.filter_map
                (fun (m : Spec.metric) ->
                  match metric_value json m.Spec.name with
                  | Some (_, u) when String.equal u m.Spec.unit_ -> None
                  | Some (_, u) -> Some (Printf.sprintf "%s: %s in %s, not %s" label m.Spec.name u m.Spec.unit_)
                  | None -> Some (Printf.sprintf "%s: %s missing" label m.Spec.name))
                declared
              @
              match J.member "failed" json with
              | Some (J.Int 0) -> []
              | _ -> [label ^ ": failed operations"])
          [false; true])
      spec.Spec.workloads
  in
  Printf.printf "smoke: %d workloads in %.1fs\n" (List.length spec.Spec.workloads)
    (Clock.since t0);
  List.iter (Printf.printf "smoke: %s\n") problems;
  exit (if problems = [] then 0 else 1)

let () =
  let args = parse Sys.argv in
  let spec =
    try Spec.load () with Failure msg ->
      prerr_endline msg;
      exit 2
  in
  mkdir_p out_dir;
  match args.workload with
  | Some name -> run_workload spec args name
  | None -> if args.smoke then smoke spec args else run_all spec args
