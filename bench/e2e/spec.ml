(* BENCHMARK.json, the benchmark's declaration: its workloads and, for
   every metric, the unit it is printed in, which direction is better
   and (end-to-end metrics only) the share by which it may worsen before
   a change counts as a regression.  The runner refuses to print a
   result whose metric set differs from the declared one. *)

module J = Xqdb_testbed.Report

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float option;
}

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let file = "BENCHMARK.json"

let field name json =
  match J.member name json with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: missing %S" file name)

let str = function
  | J.Str s -> s
  | _ -> failwith (file ^ ": expected a string")

let num = function
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> failwith (file ^ ": expected a number")

let list = function
  | J.Arr l -> l
  | _ -> failwith (file ^ ": expected an array")

let metric json =
  { name = str (field "name" json);
    unit_ = str (field "unit" json);
    higher_is_better =
      (match str (field "better" json) with
       | "higher" -> true
       | "lower" -> false
       | other -> failwith (Printf.sprintf "%s: bad direction %S" file other));
    bound = Option.map num (J.member "bound" json) }

let load () =
  match J.parse_file file with
  | Error msg -> failwith (Printf.sprintf "%s: %s" file msg)
  | Ok json ->
    { run_seconds = int_of_float (num (field "run_seconds" json));
      workloads = List.map (fun w -> str (field "name" w)) (list (field "workloads" json));
      end_to_end = List.map metric (list (field "end_to_end" json));
      per_layer = List.map metric (list (field "per_layer" json)) }
