type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* --- writer ------------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_json f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_json f)
  | Str s -> escape_to buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write_to buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        write_to buf v)
      fields;
    Buffer.add_char buf '}'

let to_string json =
  let buf = Buffer.create 4096 in
  write_to buf json;
  Buffer.contents buf

let write_file path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string json);
      output_char oc '\n')

(* --- parser ------------------------------------------------------------- *)

exception Bad of string

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun msg -> raise (Bad (Printf.sprintf "at %d: %s" !pos msg))) fmt in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected %c, found %c" c c'
    | None -> fail "expected %c, found end of input" c
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub input !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      value
    end
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'; advance ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance ()
         | Some '/' -> Buffer.add_char buf '/'; advance ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub input !pos 4 in
           pos := !pos + 4;
           let code =
             try int_of_string ("0x" ^ hex) with Failure _ -> fail "bad \\u escape %s" hex
           in
           (* Code points beyond one byte round-trip as UTF-8. *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
         | Some c -> fail "bad escape \\%c" c
         | None -> fail "unterminated escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char input.[!pos] do
      advance ()
    done;
    let text = String.sub input start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number %s" text
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail "bad number %s" text
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ] in array"
        in
        Arr (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (kv :: acc)
          | Some '}' ->
            advance ();
            List.rev (kv :: acc)
          | _ -> fail "expected , or } in object"
        in
        Obj (fields [])
      end
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> fail "unexpected character %c" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* --- serializers -------------------------------------------------------- *)

(* Bumped on every schema change; reports are regenerated, never
   migrated, so only the current version validates. *)
let schema_version = 11

let bench_json ~kind extra ~results =
  Obj
    ((("schema_version", Int schema_version) :: ("kind", Str kind) :: extra)
    @ [("results", Arr results)])

(* One result object per crash point, flat, so CI can grep a failing
   (trial, point) pair straight out of the artifact. *)
let crash_json (r : Differential.crash_report) =
  bench_json ~kind:"crash"
    [ ("seed", Int r.Differential.crash_seed);
      ("trial_count", Int r.Differential.crash_trial_count);
      ("points_per_trial", Int r.Differential.points_per_trial) ]
    ~results:
      (List.concat_map
         (fun (t : Differential.crash_trial) ->
           List.map
             (fun (p : Differential.crash_point_report) ->
               Obj
                 [ ("trial", Int t.Differential.crash_trial_index);
                   ("query", Str t.Differential.crash_query);
                   ("events_total", Int t.Differential.events_total);
                   ("point", Int p.Differential.point);
                   ("torn", Bool p.Differential.torn);
                   ("crashed", Bool p.Differential.crashed);
                   ("ok", Bool p.Differential.point_ok);
                   ("detail", Str p.Differential.point_detail) ])
             t.Differential.points)
         r.Differential.crash_trials)

(* One result object per session; the run-level aggregates live in the
   top-level extras so CI can gate on throughput/latency/mismatches
   without folding over sessions. *)
let traffic_json (r : Traffic.report) =
  let session_json (s : Traffic.session_report) =
    Obj
      [ ("session", Int s.Traffic.session);
        ("requests", Int s.Traffic.requests);
        ("ok", Int s.Traffic.ok);
        ("budget_exceeded", Int s.Traffic.budget_exceeded);
        ("timeouts", Int s.Traffic.timeouts);
        ("errors", Int s.Traffic.errors);
        ("io_errors", Int s.Traffic.io_errors);
        ("bad_requests", Int s.Traffic.bad_requests);
        ("mismatches", Int s.Traffic.mismatches);
        ("p50_ms", Float s.Traffic.p50_ms);
        ("p95_ms", Float s.Traffic.p95_ms);
        ("p99_ms", Float s.Traffic.p99_ms) ]
  in
  bench_json ~kind:"traffic"
    [ ("sessions", Int r.Traffic.sessions);
      ("requests_per_session", Int r.Traffic.requests_per_session);
      ("seed", Int r.Traffic.seed);
      ("scale", Int r.Traffic.scale);
      ("mode", Str (Traffic.mode_label r.Traffic.mode));
      ("doc", Str r.Traffic.doc);
      ("wall_seconds", Float r.Traffic.wall_seconds);
      ("throughput", Float r.Traffic.throughput);
      ("mismatches", Int r.Traffic.total_mismatches);
      ("p50_ms", Float r.Traffic.p50_ms);
      ("p95_ms", Float r.Traffic.p95_ms);
      ("p99_ms", Float r.Traffic.p99_ms) ]
    ~results:(List.map session_json r.Traffic.per_session)

(* One result object per leg (fault-free baseline, then chaos); the
   fault/retry accounting and the harness's own verdicts live in the
   top-level extras so CI can gate on them directly. *)
let chaos_json (r : Chaos.report) =
  let leg_json (l : Chaos.leg) =
    Obj
      [ ("leg", Str l.Chaos.leg);
        ("requests", Int l.Chaos.requests);
        ("ok", Int l.Chaos.ok);
        ("budget_exceeded", Int l.Chaos.budget_exceeded);
        ("timeouts", Int l.Chaos.timeouts);
        ("errors", Int l.Chaos.errors);
        ("io_errors", Int l.Chaos.io_errors);
        ("bad_requests", Int l.Chaos.bad_requests);
        ("unavailable", Int l.Chaos.unavailable);
        ("mismatches", Int l.Chaos.mismatches);
        ("untyped", Int l.Chaos.untyped);
        ("p50_ms", Float l.Chaos.p50_ms);
        ("p95_ms", Float l.Chaos.p95_ms);
        ("p99_ms", Float l.Chaos.p99_ms) ]
  in
  bench_json ~kind:"chaos"
    [ ("seed", Int r.Chaos.chaos_seed);
      ("sessions", Int r.Chaos.chaos_sessions);
      ("requests_per_session", Int r.Chaos.chaos_requests);
      ("scale", Int r.Chaos.chaos_scale);
      ("profile", Str r.Chaos.profile_label);
      ("faults_injected", Int r.Chaos.faults_injected);
      ("retry_attempts", Int r.Chaos.retry_attempts);
      ("retry_giveups", Int r.Chaos.retry_giveups);
      ("wal_rounds", Int r.Chaos.wal_rounds);
      ("wal_retry_attempts", Int r.Chaos.wal_retry_attempts);
      ("wal_append_faults", Int r.Chaos.wal_faults.Chaos.append_faults);
      ("wal_sync_faults", Int r.Chaos.wal_faults.Chaos.sync_faults);
      ("wal_torn_syncs", Int r.Chaos.wal_faults.Chaos.torn_syncs);
      ("p99_ratio", Float r.Chaos.p99_ratio);
      ("violations", Arr (List.map (fun v -> Str v) r.Chaos.violations)) ]
    ~results:(List.map leg_json [r.Chaos.baseline; r.Chaos.chaos])

(* --- validation --------------------------------------------------------- *)

let ( let* ) = Result.bind

let need what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %s" what)

let as_int what = function
  | Int i -> Ok i
  | _ -> Error (Printf.sprintf "%s is not an integer" what)

let as_number what = function
  | Int i -> Ok (float_of_int i)
  | Float f -> Ok f
  | _ -> Error (Printf.sprintf "%s is not a number" what)

let as_str what = function
  | Str s -> Ok s
  | _ -> Error (Printf.sprintf "%s is not a string" what)

let as_bool what = function
  | Bool b -> Ok b
  | _ -> Error (Printf.sprintf "%s is not a boolean" what)

let as_arr what = function
  | Arr items -> Ok items
  | _ -> Error (Printf.sprintf "%s is not an array" what)

let int_field obj name =
  let* v = need name (member name obj) in
  as_int name v

let number_field obj name =
  let* v = need name (member name obj) in
  as_number name v

let str_field obj name =
  let* v = need name (member name obj) in
  as_str name v

(* [check] every item, stopping at the first error. *)
let check_all check items =
  List.fold_left
    (fun acc item ->
      let* () = acc in
      check item)
    (Ok ()) items

(* A crash-sweep result: one crash point's verdict, no profile. *)
let validate_crash_result r =
  let* trial = int_field r "trial" in
  let* point = int_field r "point" in
  let* events = int_field r "events_total" in
  let* torn = need "torn" (member "torn" r) in
  let* _ = as_bool "torn" torn in
  let* crashed = need "crashed" (member "crashed" r) in
  let* _ = as_bool "crashed" crashed in
  let* ok = need "ok" (member "ok" r) in
  let* _ = as_bool "ok" ok in
  let* _ = str_field r "detail" in
  if trial < 0 then Error "negative trial"
  else if point < 1 then Error "crash point must be >= 1"
  else if point > events then
    Error (Printf.sprintf "crash point %d past the %d observed events" point events)
  else Ok ()

(* A traffic session or a chaos leg: the outcome counts must partition
   its requests, latency percentiles must be ordered, and — the gate CI
   relies on — every response must match its oracle (zero mismatches). *)
let validate_outcomes ~label ~outcomes ~oracle r =
  let* requests = int_field r "requests" in
  let* counts =
    List.fold_left
      (fun acc name ->
        let* acc = acc in
        let* n = int_field r name in
        Ok (n :: acc))
      (Ok []) outcomes
  in
  let counts = List.rev counts in
  let* mismatches = int_field r "mismatches" in
  let* p50 = number_field r "p50_ms" in
  let* p95 = number_field r "p95_ms" in
  let* p99 = number_field r "p99_ms" in
  if requests < 1 then Error (Printf.sprintf "%s with no requests" label)
  else if List.fold_left ( + ) 0 counts <> requests then
    Error
      (Printf.sprintf "%s outcomes do not partition: %s <> %d" label
         (String.concat "+" (List.map string_of_int counts))
         requests)
  else if mismatches <> 0 then
    Error
      (Printf.sprintf "%s diverged from the %s oracle (%d mismatches)" label oracle mismatches)
  else if p50 < 0. || p95 < 0. || p99 < 0. then Error "negative latency percentile"
  else if p50 > p95 || p95 > p99 then
    Error (Printf.sprintf "%s latency percentiles not ordered" label)
  else Ok ()

let session_outcomes =
  ["ok"; "budget_exceeded"; "timeouts"; "errors"; "io_errors"; "bad_requests"]

let validate_traffic_result r =
  let* session = int_field r "session" in
  if session < 0 then Error "negative session"
  else
    validate_outcomes
      ~label:(Printf.sprintf "session %d" session)
      ~outcomes:session_outcomes ~oracle:"single-session" r

(* Chaos legs also count shed requests, and every failure must be typed. *)
let validate_chaos_result r =
  let* leg = str_field r "leg" in
  let* untyped = int_field r "untyped" in
  if String.length leg = 0 then Error "empty leg label"
  else if untyped <> 0 then
    Error (Printf.sprintf "%s leg let %d failure(s) escape untyped" leg untyped)
  else
    validate_outcomes ~label:(leg ^ " leg")
      ~outcomes:(session_outcomes @ ["unavailable"])
      ~oracle:"fault-free" r

let check_version json ~expected =
  let* version = int_field json "schema_version" in
  if version = expected then Ok ()
  else Error (Printf.sprintf "unsupported schema_version %d (expected %d)" version expected)

let validate_bench json =
  let* () = check_version json ~expected:schema_version in
  let* kind = str_field json "kind" in
  let* results = need "results" (member "results" json) in
  let* results = as_arr "results" results in
  let* check =
    match kind with
    | "crash" -> Ok validate_crash_result
    | "traffic" -> Ok validate_traffic_result
    | "chaos" -> Ok validate_chaos_result
    | _ -> Error (Printf.sprintf "unknown report kind %S (known: crash, traffic, chaos)" kind)
  in
  if results = [] then Error "empty results" else check_all check results

let validate_lint ~schema_version json =
  let* () = check_version json ~expected:schema_version in
  let* tool = str_field json "tool" in
  let* findings = need "findings" (member "findings" json) in
  let* findings = as_arr "findings" findings in
  let* count = int_field json "count" in
  if not (String.equal tool "xqdb-lint") then
    Error (Printf.sprintf "tool is %S, want \"xqdb-lint\"" tool)
  else if count <> List.length findings then
    Error (Printf.sprintf "count %d does not match %d finding(s)" count (List.length findings))
  else
    check_all
      (fun f ->
        let* _ = str_field f "rule" in
        let* _ = str_field f "file" in
        let* _ = int_field f "line" in
        let* _ = int_field f "col" in
        let* _ = str_field f "message" in
        Ok ())
      findings

let parse_file path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse contents

let validate_file path =
  let* json = parse_file path in
  validate_bench json
