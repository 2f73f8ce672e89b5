(** Execution budgets: the mechanism behind the testbed's resource caps.

    The paper's efficiency tests ran each engine under "20 MB of memory
    and 2 or 30 minutes per query" and censored over-budget engines at
    the cap.  Here a budget bounds page I/Os (the simulator's proxy for
    time, independent of host speed) and elapsed {!Monotonic} seconds;
    operators poll [check] in their inner loops.

    A budget owns its request's {!Metrics.scope}, and its I/O count is
    what the disks charged to that scope while it was installed — by the
    engine around a measured run, and by par_scan workers on the run's
    behalf.  Other sessions' I/O never charges it. *)

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

val check : t -> unit
(** @raise Deadline_exceeded when the deadline has passed (checked
    first — a dead request reports [Timeout] even if a cap also
    tripped).
    @raise Exhausted when a page-I/O or time cap is exceeded. *)

val page_ios : t -> int
(** Page I/Os (reads + writes) charged to the budget's scope. *)

val elapsed : t -> float
(** Seconds since creation. *)
