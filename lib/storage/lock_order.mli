(** A lockdep-style latch-order checker.

    Deadlocks need four latches' worth of bad luck to reproduce but only
    two edges to prove: if one code path ever acquires latch B while
    holding latch A, and another acquires A while holding B, the two can
    deadlock under the right interleaving — even if the test run that
    recorded the edges never actually deadlocked.  This module records
    every (held -> acquired) dependency in a global order graph and
    raises {!Lock_order_violation} at the acquisition that would close a
    cycle, {e before} the caller blocks on the latch, with the
    acquisition backtraces of both directions.

    Participants are keyed by a lock {e class} (a string naming the
    family — the buffer pool registers one class per pool for its frame
    latches and one for its table mutex) plus an integer instance
    (the page id; [-1] for singletons).  Edges survive release: ordering
    facts accumulate across the whole run, so a violation is detected as
    soon as any two paths disagree, not only when they overlap in time.

    Shared (reader) acquisitions are tracked like exclusive ones on
    purpose: the frame latches are writer-preferred, so even a
    shared/shared cycle deadlocks once a writer queues on each side.
    For the same reason, and because no tracked lock is reentrant, a
    domain acquiring a key it already holds — a page nested in itself —
    is a violation too: it self-deadlocks.

    Backtraces are kept raw and symbolized only when a violation is
    reported, so sanitized full suites run at near zero extra cost.  The checker is driven by sanitizing pools
    ({!Buffer_pool.create} [~sanitize:true] or [XQDB_PIN_SANITIZE=1]);
    it has no enable flag of its own — instrumented call sites decide.

    Counters: [latch.order_edges] (distinct dependencies recorded) and
    [latch.order_violations] (cycles detected; each also raises). *)

type key = { cls : string; inst : int }

exception Lock_order_violation of string
(** A latch acquisition that would close a cycle in the order graph, or
    re-acquire a key the domain already holds.  The message carries the
    symbolized acquisition backtraces of both the new dependency and
    the recorded reverse path (of both acquisitions, for a re-entry). *)

val before_acquire : cls:string -> inst:int -> unit
(** Record the calling domain's intent to acquire [(cls, inst)].  Checks
    every currently-held lock for a reverse path in the order graph and
    raises {!Lock_order_violation} if one exists — before the caller
    blocks, so the deadlock is reported instead of entered; raises it
    too if the domain already holds [(cls, inst)].  Otherwise
    records the new edges and pushes the lock onto the domain's held
    stack.  Call immediately {e before} the real acquisition. *)

val after_release : cls:string -> inst:int -> unit
(** Pop [(cls, inst)] from the calling domain's held stack.  Unmatched
    releases are ignored (instrumentation may be enabled mid-run). *)

val held_by_self : unit -> key list
(** The calling domain's held stack, most recent first. *)

val edges_recorded : unit -> int
(** Distinct dependencies currently in the order graph. *)

val reset : unit -> unit
(** Drop the order graph and all held stacks — test isolation between
    scenarios that reuse (class, instance) keys.  Counters are global
    {!Metrics} and are not reset. *)
