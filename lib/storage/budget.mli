(** Execution budgets: the mechanism behind the testbed's resource caps.

    The paper's efficiency tests ran each engine under "20 MB of memory
    and 2 or 30 minutes per query" and censored over-budget engines at
    the cap.  Here a budget bounds page I/Os (the simulator's proxy for
    time, independent of host speed) and elapsed {!Monotonic} seconds.

    A budget owns its request's {!Metrics.scope}, and its I/O count is
    what the disks charged to that scope while {!run} had it installed.
    Other sessions' I/O never charges it.

    The two kinds of cap are enforced in different places.  The page-I/O
    cap is enforced where page I/O enters a request: the buffer pool
    calls {!check_page_ios} after every frame insert, so a censored run
    stops with [cap < page_ios <= cap + 2] (the crossing read plus at
    most one victim write-back), whatever the operators' batch size.
    The deadline and the time cap are polled: operators call {!check}
    once per batch, the navigational evaluator once per cursor pull. *)

type t

exception Exhausted of string

exception Deadline_exceeded of string
(** The request's absolute deadline has passed.  Distinct from
    {!Exhausted} so the engine can censor it as a typed [Timeout]
    rather than a generic over-budget status. *)

val create : ?max_page_ios:int -> ?max_seconds:float -> ?deadline:float -> unit -> t
(** A budget with a fresh scope; with no caps it never trips.
    [deadline] is an {e absolute} instant on the {!Monotonic.now}
    scale — the wire layer converts a client's relative deadline to
    absolute at admission, so time spent queued counts against it. *)

val scope : t -> Metrics.scope

val run : t -> (unit -> 'a) -> 'a
(** Run with the budget installed in the calling domain: its scope (see
    {!Metrics.with_scope}) and its page-I/O cap.  The previous budget is
    restored afterwards, also on exception. *)

val check_page_ios : unit -> unit
(** @raise Exhausted when the budget {!run} installed in the calling
    domain has a page-I/O cap and its scope has been charged more page
    I/Os than that.  Outside any {!run}, or under an uncapped budget, a
    no-op. *)

val check : t -> unit
(** Polls the deadline and the time cap; the page-I/O cap is not
    checked here (see {!check_page_ios}).
    @raise Deadline_exceeded when the deadline has passed (checked
    first — a dead request reports [Timeout] even if the time cap also
    tripped).
    @raise Exhausted when the time cap is exceeded. *)

val page_ios : t -> int
(** Page I/Os (reads + writes) charged to the budget's scope. *)

val elapsed : t -> float
(** Seconds since creation. *)
