module Engine = Xqdb_core.Engine
module Engine_config = Xqdb_core.Engine_config
module W = Xqdb_workload

type cell = {
  engine : string;
  test : string;
  page_ios : int;
  seconds : float;
  censored : bool;
}

type table = {
  budget : int;
  cells : cell list;
}

let default_budgets = [("test3-semijoin", 8_000); ("test5-unrelated", 8_000)]

let run ?(configs = Engine_config.figure7_engines)
    ?(queries = Queries.efficiency_queries) ?(budget = 60_000)
    ?(budgets = default_budgets) ?(scale = 2500) ?(seconds_cap = 5.0) () =
  let forest = [W.Dblp_gen.generate (W.Dblp_gen.scaled scale)] in
  let parsed = Queries.parsed queries in
  let cells =
    List.concat_map
      (fun config ->
        (* Each engine gets its own freshly loaded database, like each
           student engine did; the small pool is the memory cap. *)
        let engine = Engine.load_forest ~config forest in
        List.map
          (fun (test, query) ->
            let budget =
              match List.assoc_opt test budgets with
              | Some b -> b
              | None -> budget
            in
            let result = Engine.run ~max_page_ios:budget ~max_seconds:seconds_cap engine query in
            match result.Engine.status with
            | Engine.Ok ->
              { engine = config.Engine_config.name;
                test;
                page_ios = result.Engine.page_ios;
                seconds = result.Engine.elapsed;
                censored = false }
            | Engine.Budget_exceeded _ ->
              { engine = config.Engine_config.name;
                test;
                page_ios = budget;
                seconds = result.Engine.elapsed;
                censored = true }
            | Engine.Timeout msg ->
              Xqdb_storage.Xqdb_error.internal "efficiency test timed out: %s" msg
            | Engine.Error msg ->
              Xqdb_storage.Xqdb_error.internal "efficiency test errored: %s" msg
            | Engine.Io_error msg ->
              Xqdb_storage.Xqdb_error.internal "efficiency test hit an i/o fault: %s" msg)
          parsed)
      configs
  in
  { budget; cells }

let total table engine =
  List.fold_left
    (fun acc c -> if String.equal c.engine engine then acc + c.page_ios else acc)
    0 table.cells

(* The engines in configuration order (cells are engine-major). *)
let engines table =
  List.fold_left
    (fun acc c -> if List.mem c.engine acc then acc else acc @ [c.engine])
    [] table.cells

let shape table =
  let configured = engines table in
  let ordering =
    List.stable_sort (fun a b -> Int.compare (total table a) (total table b)) configured
  in
  let rec chain = function
    | a :: (b :: _ as rest) ->
      a :: (if total table a = total table b then " = " else " < ") :: chain rest
    | rest -> rest
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> total table a < total table b && increasing rest
    | _ -> true
  in
  let censored =
    List.filter_map
      (fun c -> if c.censored then Some (c.engine ^ "/" ^ c.test) else None)
      table.cells
  in
  Printf.sprintf
    "measured total ordering: %s (%s the paper's %s)\n\
     measured censored cells: %s\n"
    (String.concat "" (chain ordering))
    (if increasing configured then "matches" else "differs from")
    (String.concat " < " configured)
    (match censored with [] -> "none" | l -> String.concat ", " l)

let render table =
  let ordered = engines table in
  let tests =
    List.filter_map
      (fun c ->
        if String.equal c.engine (List.hd ordered) then Some c.test else None)
      table.cells
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "page-I/O budget per query: %d (censored runs are assigned the budget)\n"
       table.budget);
  Buffer.add_string buf (Printf.sprintf "%-10s" "Engine");
  List.iteri (fun i _ -> Buffer.add_string buf (Printf.sprintf "%12s" (Printf.sprintf "Test %d" (i + 1)))) tests;
  Buffer.add_string buf (Printf.sprintf "%12s\n" "Total");
  List.iter
    (fun engine ->
      Buffer.add_string buf (Printf.sprintf "%-10s" engine);
      List.iter
        (fun test ->
          let cell =
            List.find
              (fun c -> String.equal c.engine engine && String.equal c.test test)
              table.cells
          in
          let rendered =
            if cell.censored then Printf.sprintf "%d*" cell.page_ios
            else string_of_int cell.page_ios
          in
          Buffer.add_string buf (Printf.sprintf "%12s" rendered))
        tests;
      Buffer.add_string buf (Printf.sprintf "%12d\n" (total table engine)))
    ordered;
  Buffer.contents buf
