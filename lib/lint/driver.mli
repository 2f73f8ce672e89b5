(** Orchestration: find the sources, run the registry, apply the
    allowlist, render.  The pipeline behind [bin/lint.exe]. *)

val source_dirs : string list
(** Directories scanned under the root: [lib] and [bin].  Tests are out
    of scope on purpose — they exercise failure paths deliberately. *)

val collect_sources : root:string -> unit -> Rules.source list
(** Every [.ml] under {!source_dirs}, sorted by path; [_build] and
    dot-directories are skipped. *)

val default_allow_file : string
(** ["lint.allow"], at the repo root. *)

val run : ?allow:string -> root:string -> unit -> Finding.t list
(** The whole pipeline: collect, {!Rules.check_project}, apply the
    checked allowlist ([allow] is resolved against [root]; missing file
    means no exemptions).  Sorted; empty means clean. *)

val render_text : Finding.t list -> string
(** One ["file:line:col: [rule] message"] per line plus a summary
    trailer. *)

val schema_version : int
(** The report version (2), stamped on every JSON report. *)

val render_json : Finding.t list -> string
(** [{"schema_version":…,"tool":"xqdb-lint","count":…,"findings":[…]}] —
    the CI artifact format. *)
