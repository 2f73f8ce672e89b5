(** The server's wire protocol: length-prefixed binary frames.

    A frame is a 10-byte header — magic ["XQDB"], version byte, kind
    byte (request/response/shutdown), u32 big-endian payload length —
    followed by the payload.  Payloads are capped at {!max_payload}
    bytes.

    The protocol {!version} is 2, and it is the only one spoken: a
    frame with any other version byte decodes to [Bad_version].  A
    change to a frame layout bumps the version; older versions are not
    kept.

    Decoding is {e total}: truncated frames, oversized lengths and
    garbage headers all decode to a typed {!error}, never an exception —
    the server must answer hostile bytes with an error response, not a
    crash.  The readers are generic over a [read] function (the
    [Unix.read] shape), so the same decoder serves sockets and in-memory
    test feeds. *)

type request = {
  doc : string;  (** document name the query runs against *)
  query_text : string;
  max_page_ios : int option;  (** client-requested budget cap *)
  max_seconds : float option;  (** clamped to the server's own cap *)
  deadline : float option;
      (** seconds from the server's {e receipt} of the request until
          the client stops caring; time spent queued counts, and a run
          past it censors with [Timeout].  [None] = wait forever. *)
}

type status_code =
  | Ok
  | Budget_exceeded
  | Error
  | Io_error
  | Bad_request  (** malformed frame, parse/check failure, unknown doc *)
  | Unavailable  (** shed by admission control; see [retry_after] *)
  | Timeout  (** the request's deadline passed (queued or mid-run) *)

type response = {
  status : status_code;
  payload : string;  (** serialized forest for [Ok]; message otherwise *)
  elapsed : float;  (** wall-clock seconds executing; 0 if not run *)
  page_ios : int;  (** page I/Os charged to the request; 0 if not run *)
  retry_after : float option;
      (** [Unavailable] only: the server's hint for when to retry *)
}

type incoming =
  | Incoming_request of request
  | Incoming_shutdown  (** a drain order (frame kind 3, empty payload) *)

type error =
  | Closed  (** clean EOF at a frame boundary *)
  | Truncated  (** EOF mid-frame *)
  | Bad_magic
  | Bad_version of int
  | Bad_kind of int
  | Oversize of int
  | Malformed of string  (** header fine, payload inconsistent *)

val error_to_string : error -> string

val max_payload : int
val header_size : int

val version : int
(** The protocol version this build speaks and accepts (2). *)

val error_response : ?retry_after:float -> status_code -> string -> response
(** A response with the given status and message, zero accounting. *)

val encode_request : request -> bytes
(** The full frame, header included. *)

val encode_response : response -> bytes

val encode_shutdown : unit -> bytes
(** The drain frame: kind 3, empty payload. *)

val read_incoming : read:(bytes -> int -> int -> int) -> (incoming, error) result
(** Read one client-to-server frame — a request or a shutdown order.  [read buf off len]
    returns the number of bytes read, 0 for EOF (the [Unix.read]
    shape). *)

val read_request : read:(bytes -> int -> int -> int) -> (request, error) result
(** Read one request frame; a non-request kind is [Bad_kind]. *)

val read_response : read:(bytes -> int -> int -> int) -> (response, error) result

val string_reader : string -> bytes -> int -> int -> int
(** A [read] function over an in-memory byte string — for tests. *)
