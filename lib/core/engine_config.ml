module Planner = Xqdb_optimizer.Planner
module Stats = Xqdb_optimizer.Stats

type milestone =
  | M1
  | M2
  | Algebraic

type t = {
  name : string;
  milestone : milestone;
  merge_relfors : bool;
  planner : Planner.config;
  quality : Stats.quality;
  pool_capacity : int;
  batch_size : int;
  retry_policy : Xqdb_storage.Retry.policy;
}

let default_pool = 256

let default_batch_size = 256

(* A batch never usefully holds more rows than a page has bytes: every
   slot costs at least one byte, so [page bytes] bounds the rows a
   page-at-a-time scan can stage from one pull. *)
let max_batch_size = 4096

let validate t =
  if t.batch_size <= 0 then
    invalid_arg
      (Printf.sprintf "Engine_config %s: batch_size must be positive (got %d)"
         t.name t.batch_size);
  if t.batch_size > max_batch_size then { t with batch_size = max_batch_size }
  else t

let m1 =
  { name = "m1";
    milestone = M1;
    merge_relfors = false;
    planner = Planner.m3_config;
    quality = Stats.Good;
    pool_capacity = default_pool;
    batch_size = default_batch_size;
    retry_policy = Xqdb_storage.Retry.default }

let m2 = { m1 with name = "m2"; milestone = M2 }

let m3 =
  { m1 with
    name = "m3";
    milestone = Algebraic;
    merge_relfors = true;
    planner = Planner.m3_config }

let m4 = { m3 with name = "m4"; planner = Planner.m4_config }

(* Milestone 4 with the structural-index family forced off: the
   index-vs-scan axis of the differential oracle, and the baseline the
   structural bench compares page I/O against. *)
let m4_nostruct =
  { m4 with
    name = "m4-nostruct";
    planner = { Planner.m4_config with Planner.use_struct = false } }

let efficiency_pool = 48

(* The Figure 7 engines model the paper's 2006 student engines, which
   had no structural indexes: [use_struct] stays off so the efficiency
   rankings are untouched by the modern index family. *)
let engine1 =
  { m4 with
    name = "engine-1";
    pool_capacity = efficiency_pool;
    planner = { Planner.m4_config with use_struct = false; materialize = `Disk } }

let engine2 =
  { m4 with
    name = "engine-2";
    pool_capacity = efficiency_pool;
    quality = Stats.Unlucky;
    planner = { Planner.m4_config with use_struct = false; materialize = `Mem } }

let engine3 =
  { m4 with
    name = "engine-3";
    pool_capacity = efficiency_pool;
    planner =
      { Planner.m4_config with use_struct = false; cost_based = false;
        materialize = `Disk } }

let engine4 =
  { m4 with
    name = "engine-4";
    pool_capacity = efficiency_pool;
    planner =
      { Planner.m4_config with use_struct = false; use_indexes = false;
        materialize = `Disk } }

let engine5 = { m3 with name = "engine-5"; pool_capacity = efficiency_pool }

let figure7_engines = [engine1; engine2; engine3; engine4; engine5]
let all_presets = [m1; m2; m3; m4] @ figure7_engines
