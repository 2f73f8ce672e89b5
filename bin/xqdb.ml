(* The xqdb command-line interface.

   Subcommands:
     xqdb run      -- evaluate an XQ query against a document
     xqdb explain  -- show the TPM rewriting and the physical plans
     xqdb label    -- print a document with its in/out labels (Figure 2)
     xqdb stats    -- print the milestone-4 statistics of a document
     xqdb load     -- load a document into a multi-document database file
     (plus query / ls / drop / open / serve / repl over such files) *)

open Cmdliner
module Engine = Xqdb_core.Engine
module Config = Xqdb_core.Engine_config
module W = Xqdb_workload

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* --- common arguments --------------------------------------------------- *)

let doc_term =
  let file =
    let doc = "Load the XML document from $(docv)." in
    Arg.(value & opt (some string) None & info ["doc"] ~docv:"FILE" ~doc)
  in
  let dblp =
    let doc = "Use a generated DBLP-like document with $(docv) publications." in
    Arg.(value & opt (some int) None & info ["dblp"] ~docv:"N" ~doc)
  in
  let treebank =
    let doc = "Use a generated Treebank-like document with $(docv) sentences." in
    Arg.(value & opt (some int) None & info ["treebank"] ~docv:"N" ~doc)
  in
  let combine file dblp treebank =
    match file, dblp, treebank with
    | Some path, None, None -> Ok (read_file path)
    | None, Some n, None -> Ok (W.Dblp_gen.generate_string (W.Dblp_gen.scaled n))
    | None, None, Some n -> Ok (W.Treebank_gen.generate_string (W.Treebank_gen.scaled n))
    | None, None, None -> Ok W.Docs.tiny_string
    | _ -> Error (`Msg "give at most one of --doc, --dblp, --treebank")
  in
  Term.(term_result (const combine $ file $ dblp $ treebank))

let engine_conv =
  let parse name =
    match
      List.find_opt (fun c -> String.equal c.Config.name name) Config.all_presets
    with
    | Some config -> Ok config
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown engine %S (try %s)" name
             (String.concat ", " (List.map (fun c -> c.Config.name) Config.all_presets))))
  in
  Arg.conv (parse, fun ppf c -> Format.pp_print_string ppf c.Config.name)

let engine_term =
  let doc = "Engine configuration: m1, m2, m3, m4 or engine-1 .. engine-5." in
  Arg.(value & opt engine_conv Config.m4 & info ["engine"] ~docv:"NAME" ~doc)

let query_term =
  let doc = "The XQ query (see the README for the surface syntax)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let verbose_term =
  Arg.(value & flag & info ["verbose"; "v"] ~doc:"Also print timing and page-I/O counts.")

(* --- subcommands -------------------------------------------------------- *)

let run_cmd =
  let action xml config query verbose =
    match Xqdb_xq.Xq_parser.parse_result query with
    | Error msg -> Error (`Msg ("parse error: " ^ msg))
    | Ok q ->
      (match Xqdb_xq.Xq_check.check q with
       | Error e -> Error (`Msg (Xqdb_xq.Xq_check.error_to_string e))
       | Ok () ->
         let engine = Engine.load ~config xml in
         let result = Engine.run engine q in
         (match result.Engine.status with
          | Engine.Ok ->
            print_endline result.Engine.output;
            if verbose then
              Printf.eprintf "engine: %s\nelapsed: %.4fs\npage I/Os: %d\n"
                config.Config.name result.Engine.elapsed result.Engine.page_ios;
            Ok ()
          | Engine.Error msg -> Error (`Msg ("runtime type error: " ^ msg))
          | Engine.Budget_exceeded msg | Engine.Io_error msg | Engine.Timeout msg ->
            Error (`Msg msg)))
  in
  let term =
    Term.(term_result (const action $ doc_term $ engine_term $ query_term $ verbose_term))
  in
  Cmd.v (Cmd.info "run" ~doc:"Evaluate an XQ query against a document.") term

let explain_cmd =
  let analyze_term =
    Arg.(
      value & flag
      & info ["analyze"]
          ~doc:
            "Also execute the query and append the measured per-site operator \
             profiles (rows, page I/Os, seconds).")
  in
  let action xml config query analyze =
    match Xqdb_xq.Xq_parser.parse_result query with
    | Error msg -> Error (`Msg ("parse error: " ^ msg))
    | Ok q ->
      let engine = Engine.load ~config xml in
      print_endline (Engine.explain ~analyze engine q);
      Ok ()
  in
  let term =
    Term.(term_result (const action $ doc_term $ engine_term $ query_term $ analyze_term))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show every stage of the compilation pipeline: source AST, TPM after each \
          logical pass, and the parameterized physical plan template of every relfor \
          site.")
    term

let label_cmd =
  let action xml =
    let doc = Xqdb_xml.Xml_doc.of_forest (Xqdb_xml.Xml_parser.parse_forest xml) in
    Format.printf "%a" Xqdb_xml.Xml_doc.pp_labeled doc;
    Ok ()
  in
  let term = Term.(term_result (const action $ doc_term)) in
  Cmd.v (Cmd.info "label" ~doc:"Print the in/out labeling of a document (Figure 2).") term

let stats_cmd =
  let action xml =
    let engine = Engine.load xml in
    Format.printf "%a@." Xqdb_xasr.Doc_stats.pp (Engine.doc_stats engine);
    Ok ()
  in
  let term = Term.(term_result (const action $ doc_term)) in
  Cmd.v (Cmd.info "stats" ~doc:"Print the milestone-4 data statistics of a document.") term

(* --- multi-document database commands ------------------------------------ *)

module DB = Xqdb_core.Database

let db_file_term =
  Arg.(required & opt (some string) None & info ["db"] ~docv:"FILE" ~doc:"Database file.")

let name_term =
  Arg.(required & opt (some string) None & info ["name"] ~docv:"NAME" ~doc:"Document name.")

let load_cmd =
  let action xml path name =
    let db = if Sys.file_exists path then DB.open_file path else DB.create ~on_file:path () in
    (match DB.load_document db ~name xml with
     | engine ->
       Format.printf "loaded %S into %s@.%a@." name path Xqdb_xasr.Doc_stats.pp
         (Engine.doc_stats engine);
       DB.close db;
       Ok ()
     | exception Invalid_argument msg ->
       DB.close db;
       Error (`Msg msg))
  in
  let term = Term.(term_result (const action $ doc_term $ db_file_term $ name_term)) in
  Cmd.v (Cmd.info "load" ~doc:"Load a document into a multi-document database file.") term

let query_cmd =
  let action path name config query =
    match Xqdb_xq.Xq_parser.parse_result query with
    | Error msg -> Error (`Msg ("parse error: " ^ msg))
    | Ok q ->
      let db = DB.open_file path in
      (match DB.engine ~config db ~name with
       | exception Not_found ->
         DB.close db;
         Error (`Msg (Printf.sprintf "no document %S in %s" name path))
       | engine ->
         let result = Engine.run engine q in
         DB.close db;
         (match result.Engine.status with
          | Engine.Ok ->
            print_endline result.Engine.output;
            Ok ()
          | Engine.Error msg -> Error (`Msg ("runtime type error: " ^ msg))
          | Engine.Budget_exceeded msg | Engine.Io_error msg | Engine.Timeout msg ->
            Error (`Msg msg)))
  in
  let term =
    Term.(term_result (const action $ db_file_term $ name_term $ engine_term $ query_term))
  in
  Cmd.v (Cmd.info "query" ~doc:"Run a query against a document in a database file.") term

let ls_cmd =
  let action path =
    let db = DB.open_file path in
    List.iter
      (fun name ->
        let stats = Engine.doc_stats (DB.engine db ~name) in
        Printf.printf "%-20s %8d nodes
" name stats.Xqdb_xasr.Doc_stats.node_count)
      (DB.document_names db);
    DB.close db;
    Ok ()
  in
  let term = Term.(term_result (const action $ db_file_term)) in
  Cmd.v (Cmd.info "ls" ~doc:"List the documents in a database file.") term

let drop_cmd =
  let action path name =
    let db = DB.open_file path in
    (match DB.drop_document db ~name with
     | () ->
       DB.close db;
       Printf.printf "dropped %S
" name;
       Ok ()
     | exception Not_found ->
       DB.close db;
       Error (`Msg (Printf.sprintf "no document %S in %s" name path)))
  in
  let term = Term.(term_result (const action $ db_file_term $ name_term)) in
  Cmd.v (Cmd.info "drop" ~doc:"Drop a document from a database file.") term

let serve_cmd =
  let module Server = Xqdb_server.Server in
  let port_term =
    Arg.(
      value
      & opt int Server.default_config.Server.port
      & info ["port"] ~docv:"PORT"
          ~doc:"TCP port to listen on (loopback only); 0 picks an ephemeral port.")
  in
  let sessions_term =
    Arg.(
      value
      & opt int Server.default_config.Server.max_sessions
      & info ["max-sessions"] ~docv:"N"
          ~doc:
            "Concurrent session cap: the size of the worker-domain pool. Clients \
             beyond it queue in the listen backlog.")
  in
  let ios_term =
    Arg.(
      value
      & opt (some int) None
      & info ["max-page-ios"] ~docv:"N"
          ~doc:
            "Server-wide per-request page-I/O cap; an over-budget request is \
             censored (the session lives on). Clients can only tighten it.")
  in
  let secs_term =
    Arg.(
      value
      & opt (some float) None
      & info ["max-seconds"] ~docv:"S" ~doc:"Server-wide per-request wall-clock cap.")
  in
  let queue_term =
    Arg.(
      value
      & opt int Server.default_config.Server.queue_capacity
      & info ["queue-capacity"] ~docv:"N"
          ~doc:
            "Admission queue bound: connections beyond it are shed immediately \
             with $(i,Unavailable) and a retry-after hint instead of queueing \
             without limit.")
  in
  let queue_timeout_term =
    Arg.(
      value
      & opt float Server.default_config.Server.queue_timeout
      & info ["queue-timeout"] ~docv:"S"
          ~doc:
            "Maximum seconds a connection may wait in the admission queue \
             before it is shed as $(i,Unavailable).")
  in
  let action path port max_sessions max_page_ios max_seconds queue_capacity
      queue_timeout =
    let db = DB.open_file path in
    let config =
      { Server.default_config with
        Server.port; max_sessions; max_page_ios; max_seconds; queue_capacity;
        queue_timeout }
    in
    Server.serve ~handle_sigterm:true
      ~on_ready:(fun port ->
        Printf.eprintf "xqdb: serving %s on 127.0.0.1:%d (%d sessions)\n%!" path port
          max_sessions)
      config db;
    DB.close db;
    Printf.eprintf "xqdb: drained %s cleanly\n%!" path;
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const action $ db_file_term $ port_term $ sessions_term $ ios_term $ secs_term
         $ queue_term $ queue_timeout_term))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a database file to concurrent clients over a length-prefixed \
          binary wire protocol (request = query text + budget options, response \
          = serialized forest, typed error, or budget censoring + accounting). \
          SIGTERM or a $(i,shutdown) frame drains gracefully: stop accepting, \
          finish in-flight requests, checkpoint, close the WAL cleanly.")
    term

let open_cmd =
  let action path =
    let db = DB.open_file path in
    let docs = DB.document_names db in
    DB.close db;
    Printf.printf "opened %s cleanly (%d document(s))\n" path (List.length docs);
    Ok ()
  in
  let term = Term.(term_result (const action $ db_file_term)) in
  Cmd.v
    (Cmd.info "open"
       ~doc:
         "Open a database file, replay WAL recovery if needed, and exit. A \
          post-drain health check: exits nonzero when the file cannot be \
          recovered to a consistent state.")
    term

let repl_cmd =
  let action xml config =
    let engine = Engine.load ~config xml in
    Printf.printf
      "xqdb repl (%s engine, %d nodes); enter XQ queries, \\q or ctrl-d to quit\n%!"
      config.Config.name
      (Engine.doc_stats engine).Xqdb_xasr.Doc_stats.node_count;
    let rec loop () =
      print_string "xq> ";
      match input_line stdin with
      | exception End_of_file -> Ok ()
      | "\\q" | "\\quit" -> Ok ()
      | "" -> loop ()
      | line ->
        (match Xqdb_xq.Xq_parser.parse_result line with
         | Error msg -> Printf.printf "parse error: %s\n%!" msg
         | Ok q ->
           (match Xqdb_xq.Xq_check.check q with
            | Error e -> Printf.printf "error: %s\n%!" (Xqdb_xq.Xq_check.error_to_string e)
            | Ok () ->
              let result = Engine.run engine q in
              (match result.Engine.status with
               | Engine.Ok ->
                 Printf.printf "%s\n(%d page I/Os, %.4fs)\n%!" result.Engine.output
                   result.Engine.page_ios result.Engine.elapsed
               | Engine.Error msg -> Printf.printf "runtime type error: %s\n%!" msg
               | Engine.Budget_exceeded msg | Engine.Io_error msg
               | Engine.Timeout msg ->
                 Printf.printf "%s\n%!" msg)));
        loop ()
    in
    loop ()
  in
  let term = Term.(term_result (const action $ doc_term $ engine_term)) in
  Cmd.v (Cmd.info "repl" ~doc:"Interactive XQ shell over a document.") term

let () =
  let info =
    Cmd.info "xqdb" ~version:"1.0.0"
      ~doc:"A native XML-DBMS: XQ queries over XASR secondary storage"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; explain_cmd; label_cmd; stats_cmd; load_cmd; query_cmd;
            ls_cmd; drop_cmd; serve_cmd; open_cmd; repl_cmd ]))
