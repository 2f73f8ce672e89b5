(** The concurrent multi-session query server, with overload and drain
    policy.

    [serve] binds a loopback TCP socket; the calling domain accepts
    connections into a bounded {!Admission} queue and a fixed pool of
    [max_sessions] worker domains drains it.  Each admitted connection
    becomes one {!Session} — its own engine views and prepared-plan
    cache — over the shared database.

    {2 Overload}

    A connection arriving at a full queue is {e shed}: one
    [Unavailable] response carrying the [retry_after] hint, then close
    ([server.sheds]).  One that sat queued longer than [queue_timeout]
    is shed at dequeue the same way.  The queue's deepest-ever depth is
    mirrored in [server.queue_depth_hw].

    {2 Drain}

    A [SIGTERM] (when [handle_sigterm] is set) or a shutdown wire frame
    from any client starts a drain ([server.drains]): the listening
    socket stops accepting, already-admitted connections are served,
    in-flight connections finish their current request and close at the
    next request boundary, and [serve] returns after a
    {!Xqdb_core.Database.checkpoint} — the WAL is truncated and the
    file durable, so a post-drain [xqdb open] replays nothing.

    The loop never dies on client behaviour: a garbage, truncated or
    oversized frame gets a typed [Bad_request] response and its
    connection is closed; socket errors close the one connection.  Only
    engine bugs ({!Xqdb_storage.Xqdb_error.Internal}) escape, by
    design. *)

type config = {
  port : int;  (** 0 picks an ephemeral port, reported via [on_ready] *)
  max_sessions : int;  (** worker-domain pool size = concurrent sessions *)
  max_page_ios : int option;  (** server-wide per-request cap *)
  max_seconds : float option;  (** ditto; clients can only tighten *)
  queue_capacity : int;  (** admitted-but-unserved connection bound *)
  queue_timeout : float;  (** max seconds a connection may sit queued *)
  retry_after : float;  (** the hint shed [Unavailable] responses carry *)
}

val default_config : config
(** Port 7788, 4 sessions, no budget caps, queue of 16, 5 s queue
    timeout, 0.1 s retry-after. *)

(** The bounded FIFO between the acceptor and the workers.  Exposed for
    the test suite; [serve] wires it up itself. *)
module Admission : sig
  type 'a t

  val create : capacity:int -> 'a t
  (** @raise Invalid_argument unless [capacity >= 1]. *)

  val push : 'a t -> 'a -> bool
  (** [false] when the queue is full or draining — the caller sheds. *)

  val pop : 'a t -> 'a option
  (** Block until an item is available; [None] once the queue is
      draining {e and} empty. *)

  val drain : 'a t -> unit
  (** Refuse further pushes and wake every blocked popper; items
      already queued are still popped. *)

  val high_water : 'a t -> int
  (** The deepest the queue has ever been. *)

  val depth : 'a t -> int
end

val handle_connection :
  ?on_shutdown:(unit -> unit) ->
  ?draining:(unit -> bool) ->
  session:Session.t ->
  read:(bytes -> int -> int -> int) ->
  write:(bytes -> unit) ->
  unit ->
  unit
(** One connection's protocol loop, generic over the byte channel (and
    therefore testable without sockets): read frames, answer each
    request, answer the first framing error — a stale protocol version
    included — with one [Bad_request] and return.  Returns normally on
    clean EOF.  A shutdown frame fires [on_shutdown] and ends the connection;
    [draining] is polled after each response and ends the connection at
    a request boundary.  [write]'s exceptions propagate. *)

val serve :
  ?on_ready:(int -> unit) ->
  ?handle_sigterm:bool ->
  config ->
  Xqdb_core.Database.t ->
  unit
(** Bind, listen, serve until drained.  [on_ready] observes the actual
    port (useful with [port = 0]) before the first accept.
    [handle_sigterm] (default false — signal dispositions are
    process-global, so embedding callers must opt in) installs a
    SIGTERM handler that starts a graceful drain.  Returns after the
    drain's final checkpoint; the caller still owns — and should
    close — the database. *)
