(** Elapsed-time measurement on CLOCK_MONOTONIC.

    Process CPU seconds are correct only while the process runs exactly
    one query at a time, and even then blind to I/O wait — and the wall
    clock can be stepped backwards.  Per-operator
    profiles, run timing, time budgets and deadlines use this clock
    instead, so a session's [seconds] stay its own under concurrency. *)

val now : unit -> float
(** Seconds on the monotonic clock, from an arbitrary origin (boot time
    on Linux), nanosecond resolution.  Only differences and comparisons
    within one process are meaningful. *)

val elapsed_since : float -> float
(** [elapsed_since t0] is [now () -. t0]. *)
