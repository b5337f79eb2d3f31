(** Rendering causal chains, timelines and latency summaries from a
    recorded stream — shared by the [trace] subcommand, [report --diff]
    and [report --triage] (over loaded JSONL) and the walkthrough
    examples (over live recordings).

    Every function takes a whole stream and renders only its narrative
    records (those with an [r_detail]); engine and net records are
    skipped. *)

val narrative : Recorder.record list -> Recorder.record list
(** The records that carry a detail, in stream order. *)

val pp_entry : Format.formatter -> Recorder.record -> unit
(** One narrative line: [\[time\] subject label detail]. *)

val chain_ids : Recorder.record list -> string list
(** Distinct trace ids of narrative records, in first-appearance order. *)

val pp_chain_for : Format.formatter -> Recorder.record list -> id:string -> unit
(** Select [id]'s chain and render it with a header. *)

val pp_timelines : Format.formatter -> Recorder.record list -> unit
(** Flat per-chain (per-group / per-prefix) timelines, every chain. *)

val pp_latencies : Format.formatter -> Recorder.record list -> unit
(** End-to-end (first record to last record) chain durations,
    aggregated by chain kind (the trace id before its first [':']), in
    first-appearance order: chain count, min, mean and max. *)
