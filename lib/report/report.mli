(** Offline views of a run's artifacts, behind the [trace] and
    [report] subcommands.

    Every view prints to the given formatter; a loader's "N malformed
    line(s) skipped" warning, and its "last line cut off mid-record"
    warning for a file whose last line lacks its newline and does not
    parse, go to standard error. *)

exception Unreadable of string
(** A file could not be opened or read, or a metrics snapshot did not
    parse.  The message reads ["<what> FILE: <reason>"]; the CLI prints
    it and exits 2. *)

val with_file : string -> string -> (string -> 'a) -> 'a
(** [with_file what file f] runs [f file], turning a [Sys_error] into
    {!Unreadable} labelled [what]. *)

val warn_skipped : string -> string -> rows:int -> int -> bool
(** [warn_skipped what file ~rows malformed] judges what a loader got
    out of [file]: it raises {!Unreadable}
    (["<what> FILE: no valid line, N malformed"]) when the loader found
    malformed lines and nothing else — such a file is not the artifact
    — and otherwise prints the warnings to standard error.  Returns
    whether the file was cut off mid-record.  Every view applies it to
    what it loads. *)

(** {1 Recordings} *)

val run_trace : Format.formatter -> string -> string option -> unit
(** The [trace] view of a recording: with an id, that causal chain;
    otherwise every chain's timeline plus per-kind latency summaries.
    Only narrative records are shown. *)

val run_diff_files : Format.formatter -> string -> string -> int
(** [run_diff_files ppf a b] loads two recording files and locates the
    first record where they differ in anything but the seq, and prints
    an aligned context window and, for each side, the narrative causal
    chain of the record nearest the divergence that carries a trace id.
    Returns 0 when the recordings are identical, 1 when they diverge (a
    strict prefix diverges at the longer one's first extra record).  The
    header and a strict-prefix verdict name a recording whose last line
    was cut off mid-record. *)

(** {1 Run artifacts} *)

val report_profile : Format.formatter -> string -> string option -> unit
(** The [--profile] JSONL as a table; with [Some out], also write
    flamegraph folded stacks to [out]. *)

val report_timeseries : Format.formatter -> string -> string option -> unit
(** The [--sample] JSONL: a per-series summary table, or one series'
    (time, value) pairs. *)

val report_metrics : Format.formatter -> string -> unit
(** Re-tabulate a [--metrics=FILE] snapshot. *)

val report_matrix : Format.formatter -> string -> unit
(** The [beacon --matrix-out] JSONL: measurement timeline, aggregate
    summary and worst pairs. *)
