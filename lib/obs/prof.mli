(** Hierarchical scoped profiler.

    [span "spf.bfs" f] times [f ()] (wall clock and GC-allocated
    bytes) and charges it to the node ["spf.bfs"] under whatever
    span is currently open, building a call tree per domain.  The
    profiler is off by default: when disabled, [span] is a single flag
    test plus a tail call — no clock reads, no allocation, no table
    lookups — so instrumented hot paths stay byte-identical in
    behaviour and near-identical in cost.

    The tree under construction lives in the domain's {!Obs_ctx}
    context, so worker domains can profile concurrently.  A parallel
    task runs under [Obs.capture], which gives it a detached root;
    [Obs.merge] grafts that subtree under the submitting domain's open
    span at the join point, in task order, so the merged tree's
    structure, counts and sibling order are identical at any [--jobs]
    (wall-clock totals are per-task CPU sums).  The on/off flag is
    shared: flip it from the main domain while no workers run.

    All output goes through the caller's formatter or an explicit file,
    never stdout, so seeded runs stay byte-identical on stdout. *)

val is_enabled : unit -> bool

val enable : unit -> unit
(** Also resets any previously collected tree. *)

val disable : unit -> unit
(** Stops collection; the tree collected so far remains readable. *)

val span : string -> (unit -> 'a) -> 'a
(** Run the thunk under a named section.  Sections nest: the same name
    under different parents is a different node.  Exceptions propagate;
    the section is closed and charged either way. *)

(** {1 Reporting} *)

type row = {
  path : string list;  (** root-to-node section names *)
  count : int;  (** times the section was entered *)
  total_s : float;  (** wall-clock including children *)
  self_s : float;  (** wall-clock minus children *)
  total_bytes : float;  (** GC-allocated bytes including children *)
  self_bytes : float;  (** GC-allocated bytes minus children *)
}

val rows : unit -> row list
(** Depth-first pre-order, children in first-entered order. *)

val pp_rows : Format.formatter -> row list -> unit
(** Indented table: count, total/self wall-clock, total/self allocation. *)

val write_jsonl : string -> unit
(** Write the live tree to [file], one row per line. *)

val load_jsonl_counted : string -> row list * int
(** Parse a file written by [write_jsonl]: the rows, plus the count of
    malformed non-blank lines skipped.  @raise Sys_error when the file
    cannot be read. *)

val folded : row list -> string
(** Flamegraph folded-stacks: one ["a;b;c <self-microseconds>"] line per
    row with non-zero self time. *)

val find : row list -> string list -> row option
(** Look up a row by exact path. *)
