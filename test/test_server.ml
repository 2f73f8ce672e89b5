(* Tests for the multi-session server stack: the wire protocol's total
   decoding, the connection loop over in-memory feeds, session
   semantics over a shared database, and the concurrent-reader
   property — K domains must answer exactly like one session. *)

module Wire = Xqdb_server.Wire
module Session = Xqdb_server.Session
module Server = Xqdb_server.Server
module Engine = Xqdb_core.Engine
module Config = Xqdb_core.Engine_config
module DB = Xqdb_core.Database
module W = Xqdb_workload
module G = QCheck2.Gen

let wire_error =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Wire.error_to_string e))
    (fun a b ->
      match (a, b) with
      | Wire.Closed, Wire.Closed | Wire.Truncated, Wire.Truncated -> true
      | Wire.Bad_magic, Wire.Bad_magic -> true
      | Wire.Bad_version a, Wire.Bad_version b | Wire.Bad_kind a, Wire.Bad_kind b
      | Wire.Oversize a, Wire.Oversize b -> a = b
      | Wire.Malformed _, Wire.Malformed _ -> true
      | _ -> false)

let read_of_bytes b = Wire.string_reader (Bytes.to_string b)

(* --- round trips ---------------------------------------------------------- *)

let test_request_roundtrip () =
  let checks =
    [ { Wire.doc = "dblp"; query_text = "for $x in //a return $x";
        max_page_ios = Some 500; max_seconds = Some 1.5; deadline = Some 0.75 };
      { Wire.doc = ""; query_text = ""; max_page_ios = None; max_seconds = None;
        deadline = None };
      { Wire.doc = "a"; query_text = String.make 10_000 'q';
        max_page_ios = None; max_seconds = Some 0.25; deadline = None } ]
  in
  List.iter
    (fun req ->
      match Wire.read_request ~read:(read_of_bytes (Wire.encode_request req)) with
      | Result.Error e -> Alcotest.fail (Wire.error_to_string e)
      | Result.Ok got ->
        Alcotest.(check string) "doc" req.Wire.doc got.Wire.doc;
        Alcotest.(check string) "query" req.Wire.query_text got.Wire.query_text;
        Alcotest.(check (option int)) "ios cap" req.Wire.max_page_ios got.Wire.max_page_ios;
        Alcotest.(check (option (float 0.))) "seconds cap" req.Wire.max_seconds
          got.Wire.max_seconds;
        Alcotest.(check (option (float 0.))) "deadline" req.Wire.deadline
          got.Wire.deadline)
    checks

let test_response_roundtrip () =
  List.iter
    (fun status ->
      let resp =
        { Wire.status; payload = "<a>payload</a>"; elapsed = 0.125; page_ios = 42;
          retry_after = (if status = Wire.Unavailable then Some 0.1 else None) }
      in
      match Wire.read_response ~read:(read_of_bytes (Wire.encode_response resp)) with
      | Result.Error e -> Alcotest.fail (Wire.error_to_string e)
      | Result.Ok got ->
        Alcotest.(check string) "payload" resp.Wire.payload got.Wire.payload;
        Alcotest.(check (float 0.)) "elapsed" resp.Wire.elapsed got.Wire.elapsed;
        Alcotest.(check int) "page_ios" resp.Wire.page_ios got.Wire.page_ios;
        Alcotest.(check (option (float 0.))) "retry_after" resp.Wire.retry_after
          got.Wire.retry_after;
        Alcotest.(check bool) "status" true (got.Wire.status = status))
    [ Wire.Ok; Wire.Budget_exceeded; Wire.Error; Wire.Io_error; Wire.Bad_request;
      Wire.Unavailable; Wire.Timeout ]

(* --- hostile bytes decode to typed errors --------------------------------- *)

let read_req_of s = Wire.read_request ~read:(Wire.string_reader s)

let expect_error name want s =
  match read_req_of s with
  | Result.Ok _ -> Alcotest.fail (name ^ ": hostile bytes decoded to a request")
  | Result.Error e -> Alcotest.check wire_error name want e

let u32be n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let header ?(magic = "XQDB") ?(version = Wire.version) ?(kind = 1) len =
  magic ^ String.make 1 (Char.chr version) ^ String.make 1 (Char.chr kind) ^ u32be len

let test_hostile_frames () =
  expect_error "empty stream is a clean close" Wire.Closed "";
  expect_error "partial header" Wire.Truncated "XQD";
  expect_error "garbage magic" Wire.Bad_magic (header ~magic:"EVIL" 0);
  expect_error "future version" (Wire.Bad_version 9) (header ~version:9 0);
  expect_error "version 0" (Wire.Bad_version 0) (header ~version:0 0);
  expect_error "unknown kind" (Wire.Bad_kind 7) (header ~kind:7 0);
  expect_error "oversize length" (Wire.Oversize (Wire.max_payload + 1))
    (header (Wire.max_payload + 1));
  expect_error "negative length reads as oversize" (Wire.Oversize (-1)) (header (-1));
  expect_error "truncated payload" Wire.Truncated (header 100 ^ "only a few bytes");
  expect_error "payload shorter than fixed fields" (Wire.Malformed "") (header 3 ^ "abc");
  (* doc_len pointing past the payload *)
  let bad = u32be 0 ^ String.make 8 '\000' ^ u32be 9999 ^ "short" in
  expect_error "doc length past payload" (Wire.Malformed "")
    (header (String.length bad) ^ bad);
  (* a response frame where a request is expected *)
  let resp = Wire.encode_response (Wire.error_response Wire.Ok "x") in
  expect_error "response in request position" (Wire.Bad_kind 2) (Bytes.to_string resp);
  (* a payload long enough for a frame without the deadline field *)
  expect_error "payload one field short" (Wire.Malformed "")
    (header 17 ^ String.make 17 '\000')

(* Decoding is total: no byte string makes the reader raise — under the
   current header version or a rejected one. *)
let decode_never_raises =
  QCheck2.Test.make ~name:"wire decoding is total" ~count:500
    G.(pair (int_range 0 3) (string_size ~gen:(char_range '\000' '\255') (int_bound 64)))
    (fun (v, s) ->
      (match read_req_of s with Result.Ok _ | Result.Error _ -> ());
      (match Wire.read_response ~read:(Wire.string_reader s) with
      | Result.Ok _ | Result.Error _ -> ());
      (* And with a valid header stapled on — any version byte 0-3,
         spanning the current version and rejected ones on both sides —
         the payload decoders too. *)
      (match read_req_of (header ~version:v (String.length s) ^ s) with
      | Result.Ok _ | Result.Error _ -> ());
      (match Wire.read_incoming
               ~read:(Wire.string_reader (header ~version:v (String.length s) ^ s)) with
      | Result.Ok _ | Result.Error _ -> ());
      true)

(* --- sessions over a shared database --------------------------------------- *)

let mkdb () =
  let db = DB.create () in
  ignore (DB.load_document db ~name:"journal" W.Docs.figure2_string);
  db

let plain_req ?ios ?secs ?deadline doc query =
  { Wire.doc; query_text = query; max_page_ios = ios; max_seconds = secs; deadline }

let test_session_ok () =
  let db = mkdb () in
  let session = Session.create db in
  let resp = Session.handle session (plain_req "journal" "for $n in //name return $n") in
  Alcotest.(check bool) "status ok" true (resp.Wire.status = Wire.Ok);
  Alcotest.(check string) "payload is the forest"
    "<name>Ana</name><name>Bob</name>" resp.Wire.payload;
  Alcotest.(check bool) "elapsed measured" true (resp.Wire.elapsed >= 0.)

let test_session_bad_requests () =
  let db = mkdb () in
  let session = Session.create db in
  let is_bad r = r.Wire.status = Wire.Bad_request in
  Alcotest.(check bool) "unknown document" true
    (is_bad (Session.handle session (plain_req "nope" "/journal")));
  Alcotest.(check bool) "parse error" true
    (is_bad (Session.handle session (plain_req "journal" "for for for")));
  Alcotest.(check bool) "unbound variable" true
    (is_bad (Session.handle session (plain_req "journal" "return $nope")));
  (* And the session is still alive afterwards. *)
  let ok = Session.handle session (plain_req "journal" "for $n in //name return $n") in
  Alcotest.(check bool) "session survives bad requests" true (ok.Wire.status = Wire.Ok)

let test_session_budget_censoring () =
  let config = { Config.m4 with Config.pool_capacity = 4 } in
  let db = DB.create ~config () in
  ignore (DB.load_forest db ~name:"dblp" [W.Dblp_gen.generate (W.Dblp_gen.scaled 200)]);
  (* The budgeted request must run cold — a warm pool can satisfy a
     small query with zero page I/O, and nothing censors a free run. *)
  Xqdb_storage.Buffer_pool.drop_all (Engine.pool (DB.engine db ~name:"dblp"));
  (* The server's cap clamps the client's ask: even a generous client
     cap censors at one page I/O. *)
  let session = Session.create ~max_page_ios:1 db in
  let heavy = "for $x in //article return for $y in //author return <p/>" in
  let r = Session.handle session (plain_req ~ios:1_000_000 "dblp" heavy) in
  Alcotest.(check bool) "censored, not crashed" true (r.Wire.status = Wire.Budget_exceeded);
  Alcotest.(check bool) "carries a message" true (String.length r.Wire.payload > 0);
  (* The session keeps serving. *)
  let uncapped = Session.create db in
  let ok = Session.handle uncapped (plain_req "dblp" heavy) in
  Alcotest.(check bool) "uncapped session unaffected" true (ok.Wire.status = Wire.Ok)

let test_session_view_survives_reload () =
  let db = mkdb () in
  let session = Session.create db in
  let q = plain_req "journal" "for $n in //name return $n" in
  Alcotest.(check bool) "before" true ((Session.handle session q).Wire.status = Wire.Ok);
  DB.drop_document db ~name:"journal";
  (* Dropped: the name is unknown now. *)
  Alcotest.(check bool) "dropped -> bad request" true
    ((Session.handle session q).Wire.status = Wire.Bad_request);
  (* Reloaded under the same name: the session re-derives its view
     instead of serving plans against the dead store. *)
  ignore (DB.load_document db ~name:"journal" "<journal><name>Zoe</name></journal>");
  let r = Session.handle session q in
  Alcotest.(check bool) "reloaded -> ok" true (r.Wire.status = Wire.Ok);
  Alcotest.(check string) "fresh document's answer" "<name>Zoe</name>" r.Wire.payload

(* --- deadlines ------------------------------------------------------------- *)

let test_session_deadline_timeout () =
  let db = mkdb () in
  let session = Session.create db in
  (* A deadline in the past: the request is censored before execution,
     with the typed Timeout status — never a silent drop or a crash. *)
  let r = Session.handle session (plain_req ~deadline:0.5 "journal" "/journal") in
  Alcotest.(check bool) "already-expired deadline times out" true
    (let received = Xqdb_storage.Monotonic.now () -. 1.0 in
     (Session.handle ~received session (plain_req ~deadline:0.5 "journal" "/journal"))
       .Wire.status = Wire.Timeout);
  (* A generous deadline changes nothing. *)
  Alcotest.(check bool) "generous deadline is ok" true (r.Wire.status = Wire.Ok);
  (* Mid-run expiry: a tiny deadline against a heavy query censors with
     Timeout once the budget polls notice. *)
  let config = { Config.m4 with Config.pool_capacity = 4 } in
  let db = DB.create ~config () in
  ignore (DB.load_forest db ~name:"dblp" [W.Dblp_gen.generate (W.Dblp_gen.scaled 200)]);
  Xqdb_storage.Buffer_pool.drop_all (Engine.pool (DB.engine db ~name:"dblp"));
  let session = Session.create db in
  let heavy = "for $x in //article return for $y in //author return <p/>" in
  let received = Xqdb_storage.Monotonic.now () -. 1.0 in
  let r = Session.handle ~received session (plain_req ~deadline:1.000001 "dblp" heavy) in
  Alcotest.(check bool) "mid-run deadline censors with Timeout" true
    (r.Wire.status = Wire.Timeout);
  (* The session keeps serving afterwards. *)
  let ok = Session.handle session (plain_req "journal" "/journal") in
  ignore ok;
  let ok = Session.handle session (plain_req "dblp" "for $x in /dblp return <d/>") in
  Alcotest.(check bool) "session survives a timeout" true (ok.Wire.status = Wire.Ok)

(* --- the connection loop over in-memory feeds ------------------------------ *)

(* Feed a byte stream in, collect the written responses out. *)
let drive_connection ?on_shutdown ?draining db stream =
  let out = Buffer.create 256 in
  let session = Session.create db in
  Server.handle_connection ?on_shutdown ?draining ~session
    ~read:(Wire.string_reader stream) ~write:(Buffer.add_bytes out) ();
  let read = Wire.string_reader (Buffer.contents out) in
  let rec drain acc =
    match Wire.read_response ~read with
    | Result.Ok r -> drain (r :: acc)
    | Result.Error Wire.Closed -> List.rev acc
    | Result.Error e -> Alcotest.fail ("undecodable response: " ^ Wire.error_to_string e)
  in
  drain []

let test_connection_loop () =
  let db = mkdb () in
  let req q = Bytes.to_string (Wire.encode_request (plain_req "journal" q)) in
  (* Two good requests then EOF: two responses, clean return. *)
  let responses = drive_connection db (req "for $n in //name return $n" ^ req "/journal") in
  Alcotest.(check int) "two responses" 2 (List.length responses);
  List.iter
    (fun (r : Wire.response) ->
      Alcotest.(check bool) "each ok" true (r.Wire.status = Wire.Ok))
    responses;
  (* A good request followed by garbage: the answer, then a typed
     Bad_request, then the connection drops — never an exception. *)
  let responses = drive_connection db (req "/journal" ^ "GARBAGE BYTES") in
  (match responses with
  | [ first; second ] ->
    Alcotest.(check bool) "first ok" true (first.Wire.status = Wire.Ok);
    Alcotest.(check bool) "then bad request" true (second.Wire.status = Wire.Bad_request)
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 responses, got %d" (List.length rs)));
  (* Hostile from byte one. *)
  (match drive_connection db (header ~magic:"EVIL" 0) with
  | [ only ] ->
    Alcotest.(check bool) "bad magic answered" true (only.Wire.status = Wire.Bad_request)
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 response, got %d" (List.length rs)))

(* One version is spoken: a well-formed request under the version-1
   header decodes to [Bad_version 1], and the connection loop answers it
   with exactly one [Bad_request] instead of serving it. *)
let test_stale_version_rejected () =
  let frame = Wire.encode_request (plain_req "journal" "/journal") in
  Bytes.set_uint8 frame 4 1;
  let frame = Bytes.to_string frame in
  expect_error "v1 header" (Wire.Bad_version 1) frame;
  match drive_connection (mkdb ()) (frame ^ frame) with
  | [ only ] ->
    Alcotest.(check bool) "answered Bad_request" true (only.Wire.status = Wire.Bad_request)
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 response, got %d" (List.length rs))

(* A shutdown frame fires the drain hook; a draining server finishes the
   in-flight request and then stops reading. *)
let test_shutdown_frame_and_drain () =
  let db = mkdb () in
  let req q = Bytes.to_string (Wire.encode_request (plain_req "journal" q)) in
  let shut = Bytes.to_string (Wire.encode_shutdown ()) in
  let hits = ref 0 in
  let responses =
    drive_connection ~on_shutdown:(fun () -> incr hits) db
      (req "/journal" ^ shut ^ req "/journal")
  in
  Alcotest.(check int) "shutdown hook fired once" 1 !hits;
  (* The request before the shutdown frame is answered; the shutdown
     frame itself gets no response and ends the connection, so the
     trailing request is never read. *)
  Alcotest.(check int) "request before shutdown answered" 1 (List.length responses);
  (* Once draining, the loop answers the current request and exits. *)
  let responses =
    drive_connection ~draining:(fun () -> true) db (req "/journal" ^ req "/journal")
  in
  Alcotest.(check int) "draining connection stops after one" 1 (List.length responses)

(* --- admission control ----------------------------------------------------- *)

let test_admission_queue () =
  let q = Server.Admission.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Server.Admission.push q (1, 0.));
  Alcotest.(check bool) "push 2" true (Server.Admission.push q (2, 0.));
  Alcotest.(check bool) "push over capacity is shed" false (Server.Admission.push q (3, 0.));
  Alcotest.(check int) "depth" 2 (Server.Admission.depth q);
  Alcotest.(check int) "high water" 2 (Server.Admission.high_water q);
  (match Server.Admission.pop q with
   | Some (1, _) -> ()
   | _ -> Alcotest.fail "FIFO order violated");
  (* After drain: pending items still pop, new pushes are refused, and
     an empty queue pops None instead of blocking forever. *)
  Server.Admission.drain q;
  Alcotest.(check bool) "push after drain refused" false (Server.Admission.push q (4, 0.));
  (match Server.Admission.pop q with
   | Some (2, _) -> ()
   | _ -> Alcotest.fail "drain must let queued work finish");
  (match Server.Admission.pop q with
   | None -> ()
   | Some _ -> Alcotest.fail "drained empty queue must pop None");
  Alcotest.(check int) "high water survives" 2 (Server.Admission.high_water q)

(* Producer/consumer across domains: every pushed item pops exactly
   once, drain wakes blocked consumers. *)
let test_admission_concurrent () =
  let q = Server.Admission.create ~capacity:64 in
  let popped = Atomic.make 0 in
  let consumers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop () =
              match Server.Admission.pop q with
              | Some _ -> Atomic.incr popped; loop ()
              | None -> ()
            in
            loop ()))
  in
  let pushed = ref 0 in
  for i = 1 to 200 do
    if Server.Admission.push q (i, 0.) then incr pushed
  done;
  (* Let the consumers catch up, then drain: they must all exit. *)
  while Atomic.get popped < !pushed do Domain.cpu_relax () done;
  Server.Admission.drain q;
  List.iter Domain.join consumers;
  Alcotest.(check int) "every accepted item popped once" !pushed (Atomic.get popped)

(* --- concurrency: K sessions behave like one ------------------------------- *)

(* The acceptance property behind `testbed traffic`: every concurrent
   session's (status, payload) must equal the single-session oracle's,
   and the shared pool must end quiescent. *)
let test_concurrent_sessions_match_oracle () =
  let db = DB.create () in
  ignore (DB.load_forest db ~name:"dblp" [W.Dblp_gen.generate (W.Dblp_gen.scaled 60)]);
  ignore (DB.load_document db ~name:"journal" W.Docs.figure2_string);
  let mix =
    List.map (fun (_, q) -> ("dblp", q)) Xqdb_testbed.Queries.efficiency_queries
    @ [ ("journal", "for $n in //name return $n"); ("nope", "/x"); ("journal", "for (") ]
  in
  let answer session (doc, q) =
    let r = Session.handle session (plain_req doc q) in
    (r.Wire.status, r.Wire.payload)
  in
  let oracle =
    let s = Session.create db in
    List.map (answer s) mix
  in
  let domains =
    (* Each domain walks the mix in a different rotation so the overlap
       pattern differs per domain. *)
    List.init 4 (fun k ->
        Domain.spawn (fun () ->
            let s = Session.create db in
            let n = List.length mix in
            List.init (3 * n) (fun i ->
                let req = List.nth mix ((i + k) mod n) in
                (req, answer s req))))
  in
  let results = List.concat_map Domain.join domains in
  let expected =
    List.map2 (fun m o -> (m, o)) mix oracle
  in
  List.iter
    (fun (req, got) ->
      match List.assoc_opt req expected with
      | None -> Alcotest.fail "request outside the mix"
      | Some want ->
        Alcotest.(check bool)
          "concurrent answer matches the single-session oracle" true (got = want))
    results;
  let pool = Engine.pool (DB.engine db ~name:"dblp") in
  Alcotest.(check (list (pair int int))) "no pins survive" []
    (Xqdb_storage.Buffer_pool.pinned_pages pool);
  Alcotest.(check (list (pair int int))) "no latches survive" []
    (Xqdb_storage.Buffer_pool.latched_pages pool)

let prop t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "server"
    [ ( "wire",
        [ Alcotest.test_case "request round trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round trip" `Quick test_response_roundtrip;
          Alcotest.test_case "hostile frames" `Quick test_hostile_frames;
          Alcotest.test_case "stale version is rejected" `Quick test_stale_version_rejected;
          prop decode_never_raises ] );
      ( "sessions",
        [ Alcotest.test_case "ok path" `Quick test_session_ok;
          Alcotest.test_case "bad requests" `Quick test_session_bad_requests;
          Alcotest.test_case "budget censoring" `Quick test_session_budget_censoring;
          Alcotest.test_case "deadline timeout" `Quick test_session_deadline_timeout;
          Alcotest.test_case "drop and reload" `Quick test_session_view_survives_reload ] );
      ( "connections",
        [ Alcotest.test_case "protocol loop" `Quick test_connection_loop;
          Alcotest.test_case "shutdown and drain" `Quick test_shutdown_frame_and_drain ] );
      ( "admission",
        [ Alcotest.test_case "bounded FIFO" `Quick test_admission_queue;
          Alcotest.test_case "concurrent producers/consumers" `Quick
            test_admission_concurrent ] );
      ( "concurrency",
        [ Alcotest.test_case "K sessions match one" `Quick
            test_concurrent_sessions_match_oracle ] ) ]
