(** Efficiency testing and Figure 7.

    The paper ran five secret queries per engine on DBLP under 20 MB of
    memory and a wall-clock cap, assigning the cap (2400 s, or 4800 s
    for over-memory runs) to engines that blew it.  Our budget currency
    is page I/O — deterministic and host-independent — with the same
    censoring rule: an over-budget run is assigned the cap.  Engines run
    with a deliberately small buffer pool, the analogue of the memory
    limit. *)

type cell = {
  engine : string;
  test : string;
  page_ios : int;  (** capped at the budget when censored *)
  seconds : float;
  censored : bool;
}

type table = {
  budget : int;
  cells : cell list;  (** engine-major, test-minor order *)
}

val run :
  ?configs:Xqdb_core.Engine_config.t list ->
  ?queries:(string * string) list ->
  ?budget:int ->
  ?budgets:(string * int) list ->
  ?scale:int ->
  ?seconds_cap:float ->
  unit ->
  table
(** Defaults: the five Figure-7 engines, the five efficiency queries,
    DBLP scale 2500, a 60k page-I/O budget with tighter per-test budgets
    for tests 3 and 5 (the paper likewise allowed "2 or 30 minutes per
    query"), and a 5 CPU-second guard.  Runs over any cap are censored
    and assigned the budget. *)

val total : table -> string -> int
(** Total (censored-capped) page I/Os of one engine. *)

val render : table -> string
(** The Figure-7 layout: one row per engine, one column per test, plus
    the total. *)

val shape : table -> string
(** Figure 7's shape as measured: the engines ordered by {!total}
    (ties shown as [=]), whether that is strictly the order they were
    configured in — the paper's 1 < 2 < 3 < 4 < 5 for the default
    {!Xqdb_core.Engine_config.figure7_engines} — and the censored cells
    as [engine/test]. *)
