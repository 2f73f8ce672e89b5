(* The wire protocol: length-prefixed binary frames.

   Every frame is a 10-byte header followed by a payload:

     bytes 0..3   magic "XQDB"
     byte  4      protocol version (2; any other is [Bad_version])
     byte  5      frame kind (1 = request, 2 = response, 3 = shutdown)
     bytes 6..9   payload length, u32 big-endian

   One version is spoken: a change to a frame layout bumps [version],
   and older versions are rejected, not translated.

   Decoding is total: any sequence of bytes — truncated, oversized,
   garbage — decodes to a typed [error], never an exception.  The read
   path is generic over a [read] function so the same decoder serves
   Unix sockets and the test suite's in-memory feeds. *)

let magic = "XQDB"
let version = 2
let header_size = 10

(* Results carry serialized documents; queries are small text.  One
   bound covers both directions. *)
let max_payload = 16 * 1024 * 1024

let kind_request = 1
let kind_response = 2
let kind_shutdown = 3

type request = {
  doc : string;  (* document name the query runs against *)
  query_text : string;
  max_page_ios : int option;  (* client-requested budget caps; the *)
  max_seconds : float option;  (* server clamps them to its own *)
  deadline : float option;  (* seconds from receipt; queue time counts *)
}

(* One response shape for everything: engine statuses map one-to-one,
   [Bad_request] covers protocol/parse/check failures, [Unavailable]
   covers admission rejection.  [payload] is the serialized forest for
   [Ok] and the error message otherwise. *)
type status_code =
  | Ok
  | Budget_exceeded
  | Error
  | Io_error
  | Bad_request
  | Unavailable
  | Timeout

type response = {
  status : status_code;
  payload : string;
  elapsed : float;  (* wall-clock seconds spent executing; 0 if not run *)
  page_ios : int;  (* page I/Os charged to the request; 0 if not run *)
  retry_after : float option;  (* shed requests: when to try again *)
}

type incoming =
  | Incoming_request of request
  | Incoming_shutdown

type error =
  | Closed  (* clean EOF at a frame boundary *)
  | Truncated  (* EOF mid-frame *)
  | Bad_magic
  | Bad_version of int
  | Bad_kind of int
  | Oversize of int
  | Malformed of string  (* header fine, payload inconsistent *)

let error_to_string = function
  | Closed -> "connection closed"
  | Truncated -> "truncated frame"
  | Bad_magic -> "bad frame magic"
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Bad_kind k -> Printf.sprintf "unknown frame kind %d" k
  | Oversize n -> Printf.sprintf "frame payload of %d bytes exceeds the %d-byte cap" n max_payload
  | Malformed msg -> "malformed payload: " ^ msg

let status_to_byte = function
  | Ok -> 0
  | Budget_exceeded -> 1
  | Error -> 2
  | Io_error -> 3
  | Bad_request -> 4
  | Unavailable -> 5
  | Timeout -> 6

let status_of_byte = function
  | 0 -> Some Ok
  | 1 -> Some Budget_exceeded
  | 2 -> Some Error
  | 3 -> Some Io_error
  | 4 -> Some Bad_request
  | 5 -> Some Unavailable
  | 6 -> Some Timeout
  | _ -> None

let error_response ?retry_after status message =
  { status; payload = message; elapsed = 0.; page_ios = 0; retry_after }

(* --- encoding ---------------------------------------------------------- *)

let frame kind payload =
  let len = Bytes.length payload in
  if len > max_payload then invalid_arg "Wire: payload exceeds max_payload";
  let b = Bytes.create (header_size + len) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 version;
  Bytes.set_uint8 b 5 kind;
  Bytes.set_int32_be b 6 (Int32.of_int len);
  Bytes.blit payload 0 b header_size len;
  b

let add_u32 buf v =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int v);
  Buffer.add_bytes buf b

let add_f64 buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.bits_of_float v);
  Buffer.add_bytes buf b

let encode_request r =
  let buf = Buffer.create (64 + String.length r.query_text) in
  add_u32 buf (match r.max_page_ios with Some n -> n | None -> 0);
  add_f64 buf (match r.max_seconds with Some s -> s | None -> 0.);
  add_f64 buf (match r.deadline with Some s -> s | None -> 0.);
  add_u32 buf (String.length r.doc);
  Buffer.add_string buf r.doc;
  Buffer.add_string buf r.query_text;
  frame kind_request (Buffer.to_bytes buf)

let encode_response r =
  let buf = Buffer.create (32 + String.length r.payload) in
  Buffer.add_uint8 buf (status_to_byte r.status);
  add_f64 buf r.elapsed;
  add_u32 buf r.page_ios;
  add_f64 buf (match r.retry_after with Some s -> s | None -> 0.);
  Buffer.add_string buf r.payload;
  frame kind_response (Buffer.to_bytes buf)

let encode_shutdown () = frame kind_shutdown Bytes.empty

(* --- decoding ---------------------------------------------------------- *)

let decode_request payload =
  (* u32 budget, f64 seconds, f64 deadline, u32 doc length *)
  let fixed = 24 in
  let len = Bytes.length payload in
  if len < fixed then Result.Error (Malformed "request shorter than its fixed fields")
  else begin
    let max_page_ios =
      match Int32.to_int (Bytes.get_int32_be payload 0) with
      | 0 -> None
      | n when n > 0 -> Some n
      | n -> Some n  (* negative: nonsense, but let Budget reject it *)
    in
    let max_seconds =
      match Int64.float_of_bits (Bytes.get_int64_be payload 4) with
      | 0. -> None
      | s -> Some s
    in
    let deadline =
      match Int64.float_of_bits (Bytes.get_int64_be payload 12) with
      | 0. -> None
      | s -> Some s
    in
    let doc_off = fixed - 4 in
    let doc_len = Int32.to_int (Bytes.get_int32_be payload doc_off) in
    if doc_len < 0 || fixed + doc_len > len then
      Result.Error (Malformed "document-name length points past the payload")
    else
      let doc = Bytes.sub_string payload fixed doc_len in
      let query_text =
        Bytes.sub_string payload (fixed + doc_len) (len - fixed - doc_len)
      in
      Result.Ok { doc; query_text; max_page_ios; max_seconds; deadline }
  end

let decode_response payload =
  (* u8 status, f64 elapsed, u32 page I/Os, f64 retry-after *)
  let fixed = 21 in
  let len = Bytes.length payload in
  if len < fixed then Result.Error (Malformed "response shorter than its fixed fields")
  else
    match status_of_byte (Bytes.get_uint8 payload 0) with
    | None -> Result.Error (Malformed "unknown status byte")
    | Some status ->
      let elapsed = Int64.float_of_bits (Bytes.get_int64_be payload 1) in
      let page_ios = Int32.to_int (Bytes.get_int32_be payload 9) in
      let retry_after =
        match Int64.float_of_bits (Bytes.get_int64_be payload 13) with
        | 0. -> None
        | s -> Some s
      in
      let payload = Bytes.sub_string payload fixed (len - fixed) in
      Result.Ok { status; payload; elapsed; page_ios; retry_after }

(* Fill [b] completely from [read]; [Ok false] means EOF before the
   first byte, [Error Truncated] means EOF partway through. *)
let read_exact read b =
  let n = Bytes.length b in
  let rec go off =
    if off >= n then Result.Ok true
    else
      match read b off (n - off) with
      | 0 -> if off = 0 then Result.Ok false else Result.Error Truncated
      | k -> go (off + k)
  in
  go 0

let read_frame ~read =
  let header = Bytes.create header_size in
  match read_exact read header with
  | Result.Error _ -> Result.Error Truncated
  | Result.Ok false -> Result.Error Closed
  | Result.Ok true ->
    if not (String.equal (Bytes.sub_string header 0 4) magic) then Result.Error Bad_magic
    else begin
      let v = Bytes.get_uint8 header 4 in
      let kind = Bytes.get_uint8 header 5 in
      let len = Int32.to_int (Bytes.get_int32_be header 6) in
      if v <> version then Result.Error (Bad_version v)
      else if kind <> kind_request && kind <> kind_response && kind <> kind_shutdown
      then Result.Error (Bad_kind kind)
      else if len < 0 || len > max_payload then Result.Error (Oversize len)
      else begin
        let payload = Bytes.create len in
        match read_exact read payload with
        | Result.Ok true -> Result.Ok (kind, payload)
        | Result.Ok false | Result.Error _ -> Result.Error Truncated
      end
    end

let read_incoming ~read =
  match read_frame ~read with
  | Result.Error e -> Result.Error e
  | Result.Ok (kind, payload) ->
    if kind = kind_shutdown then Result.Ok Incoming_shutdown
    else if kind <> kind_request then Result.Error (Bad_kind kind)
    else Result.map (fun r -> Incoming_request r) (decode_request payload)

let read_request ~read =
  match read_frame ~read with
  | Result.Error e -> Result.Error e
  | Result.Ok (kind, payload) ->
    if kind <> kind_request then Result.Error (Bad_kind kind)
    else decode_request payload

let read_response ~read =
  match read_frame ~read with
  | Result.Error e -> Result.Error e
  | Result.Ok (kind, payload) ->
    if kind <> kind_response then Result.Error (Bad_kind kind)
    else decode_response payload

(* A [read] function over an in-memory byte string — the test feeds, and
   a convenient way to exercise the decoder on fuzz input. *)
let string_reader s =
  let pos = ref 0 in
  fun b off len ->
    let n = min len (String.length s - !pos) in
    if n <= 0 then 0
    else begin
      Bytes.blit_string s !pos b off n;
      pos := !pos + n;
      n
    end
