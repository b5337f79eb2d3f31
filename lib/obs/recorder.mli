(** Flight recorder: the run's one event log, deterministic
    event-stream capture and run fingerprints.

    When enabled, the engine's dispatch point and the transport's
    deliver/drop paths append one {!record} per observed event, and the
    protocol layers append one {e narrative} record per protocol step
    (MASC claims and collisions, G-RIB updates, BGMP join hops, beacon
    probes, invariant violations).  Each record carries the event's sim
    time, label, a short subject string and the deterministic span ids
    from {!Span}, so any record is causally attributable with
    [Trace_report]; narrative records also carry a human-readable
    [detail] — the line the [trace] subcommand prints.  The recorder
    keeps a bounded ring of recent records (or every record), optionally
    streams every record to a JSONL file, and folds each one into
    rolling 64-bit fingerprints — overall and per label prefix
    ([masc.*], [bgp.*], [bgmp.*], [net.*], [claim], [join-hop], ...) —
    so two runs can be compared for behavioural identity without
    retaining either stream.

    Disabled-path cost is one flag test: {!is_enabled} guards every
    call site in the library, the same pattern as the profiler and the
    sampler, so the instrumented hot paths build no argument and format
    nothing when recording is off.

    The enabled flag is shared across domains (flip it from the main
    domain while no workers run); the instance records land in is the
    domain's {!Obs_ctx} context's.  A parallel task runs under
    [Obs.capture], which buffers its records in a fresh keep-all
    instance; [Obs.merge] replays them through the submitting domain's
    recorder at the join point, in task order, with sequence numbers
    reassigned — so the merged stream, and therefore the fingerprint,
    is byte-identical at any [--jobs]. *)

type record = Obs_ctx.record = {
  seq : int;  (** 0-based position in the (merged) stream *)
  r_time : float;  (** sim time the event fired *)
  r_label : string;  (** event label, e.g. [net.recv.bgp] or [claim] *)
  r_subject : string;  (** short free-form subject, e.g. ["3->4"] or ["masc-2"] *)
  r_detail : string option;  (** the narrative line; [None] for engine and net records *)
  r_trace_id : string option;
  r_span : int option;
  r_parent : int option;
}

type retention =
  | Ring of int  (** keep only the newest [n] records; [n > 0] *)
  | Keep_all  (** keep every record in memory *)

val is_enabled : unit -> bool

val enable : ?retain:retention -> ?sink:string -> unit -> unit
(** Start recording on this domain with fresh state: nothing retained
    (default retention [Ring 256]), zeroed fingerprints, and — when
    [sink] is given — a JSONL file (truncated) receiving every record.
    @raise Invalid_argument on [Ring n] with [n <= 0]. *)

val disable : unit -> unit
(** Stop recording and close the sink.  Retained records and
    fingerprints remain readable until the next {!enable}. *)

val record :
  time:float ->
  label:string ->
  ?subject:string ->
  ?span:Span.t ->
  ?trace_id:string ->
  ?detail:string ->
  unit ->
  unit
(** Append one record (no-op when disabled — but guard call sites with
    {!is_enabled} so argument construction is skipped too).  [?span]
    stamps the record with the span's trace id, span id and parent;
    [?trace_id] alone links a record to a chain without a span of its
    own (invariant violations do this).  [?span] wins when both are
    given. *)

val recordf :
  time:float ->
  label:string ->
  subject:string ->
  ?span:Span.t ->
  ?trace_id:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** A narrative record whose detail is the formatted line.  When the
    recorder is disabled nothing is formatted, but an unguarded call
    still builds its arguments and consumes them through
    [Format.ikfprintf], which allocates per conversion: guard the call
    with {!is_enabled}. *)

val recent : unit -> record list
(** The retained records, oldest first: the ring's window, or every
    record since {!enable} under [Keep_all]. *)

(** {1 Fingerprints} *)

type fingerprint = {
  fpr_records : int;
  fpr_hash : int64;
  fpr_prefixes : (string * int * int64) list;
      (** per label-prefix (first dot-separated component):
          (prefix, records, hash), sorted by prefix *)
}

val fingerprint : unit -> fingerprint
(** Rolling FNV-1a/multiply-accumulate hash of every record so far.
    Covers each record's time, label, subject, causality fields and
    detail — not its seq — and is order-sensitive. *)

val pp_fingerprint : Format.formatter -> fingerprint -> unit
(** Overall line plus one indented line per prefix, hashes as 16-digit
    hex. *)

(** {1 JSONL} *)

val load_jsonl : string -> record list * int
(** Records (file order) plus the count of malformed non-blank lines
    skipped.  @raise Sys_error when the file cannot be read. *)
