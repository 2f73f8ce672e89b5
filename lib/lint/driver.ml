let source_dirs = [ "lib"; "bin" ]

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

(* Walk [root]/[rel] collecting .ml files as /-separated repo-relative
   paths; _build and dot-directories are skipped. *)
let rec walk root rel acc =
  let dir = Filename.concat root rel in
  Array.fold_left
    (fun acc name ->
      if name = "" || name.[0] = '.' || name = "_build" then acc
      else
        let rel' = rel ^ "/" ^ name in
        let full = Filename.concat root rel' in
        if Sys.file_exists full && Sys.is_directory full then walk root rel' acc
        else if Filename.check_suffix name ".ml" then rel' :: acc
        else acc)
    acc
    (Sys.readdir dir)

let collect_sources ~root () =
  let rels =
    List.concat_map
      (fun d ->
        let full = Filename.concat root d in
        if Sys.file_exists full && Sys.is_directory full then walk root d [] else [])
      source_dirs
  in
  List.sort String.compare rels
  |> List.map (fun rel ->
         { Rules.path = rel;
           text = read_file (Filename.concat root rel);
           mli_exists = Sys.file_exists (Filename.concat root rel ^ "i") })

let default_allow_file = "lint.allow"

let run ?(allow = default_allow_file) ~root () =
  let srcs = collect_sources ~root () in
  let findings = Rules.check_project srcs in
  let allowlist =
    Allowlist.load
      ~known:(List.map (fun (r : Rules.rule) -> r.id) Rules.registry)
      (Filename.concat root allow)
  in
  List.sort Finding.compare (Allowlist.apply allowlist findings)

let render_text findings =
  let b = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string b (Finding.to_string f);
      Buffer.add_char b '\n')
    findings;
  Buffer.add_string b
    (match findings with
    | [] -> "xqdb-lint: ok, 0 findings\n"
    | fs -> Printf.sprintf "xqdb-lint: %d finding(s)\n" (List.length fs));
  Buffer.contents b

(* Bumped on every report change, so a reader of an archived report
   knows which layout it holds. *)
let schema_version = 2

let render_json findings =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"schema_version\": %d,\n  \"tool\": \"xqdb-lint\",\n"
       schema_version);
  Buffer.add_string b (Printf.sprintf "  \"count\": %d,\n" (List.length findings));
  Buffer.add_string b "  \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      Buffer.add_string b (Finding.to_json f))
    findings;
  if findings <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b
