(** The violation ledger: one JSONL line per explored schedule.

    Every trial of a campaign appends one structured outcome record —
    pass or fail — so a ledger is a complete, replayable account of the
    search: the schedule (canonical string + fingerprint), the seed,
    the verdict, the violated invariants with their blamed trace ids,
    convergence timing, and (for failures) the shrunk minimal
    counterexample plus the paths of its repro artifacts.

    Writing is the campaign driver's job and happens sequentially in
    trial order on the main domain, so ledgers are byte-identical at
    any [--jobs].  Loading follows the repo's hardened-JSONL
    convention: malformed lines are counted, not fatal. *)

type entry = {
  trial : int;
  seed : int;  (** the trial's oracle seed *)
  schedule : string;  (** canonical {!Schedule.to_string} form *)
  fingerprint : string;  (** {!Schedule.fingerprint} of [schedule] *)
  verdict : string;  (** {!Oracle.verdict_to_string} *)
  invariants : string list;  (** violated invariant names, end-state check *)
  trace_ids : string list;
      (** blamed causal chains, aligned with [invariants]: a line whose
          two lists differ in length does not parse *)
  transient : int;
  converged_at : float option;
  deadline : float;
  min_schedule : string option;  (** shrunk counterexample (failures only) *)
  min_faults : int option;
  shrink_steps : int option;
      (** candidates the shrinker judged ({!Shrinker.result}); a
          repeated candidate counts, though it reuses its verdict *)
  repro_recording : string option;
      (** flight-recorder JSONL, when written; it carries the protocol
          narrative [report --triage] renders *)
  repro_trace : string option;
      (** always [None] from current campaigns: the separate trace dump
          folded into [repro_recording]; the key stays in the format *)
}

val to_json : entry -> string
(** One line, no trailing newline, keys in fixed order. *)

val append : out_channel -> entry -> unit

val load : string -> entry list * int
(** [entries, malformed]: every parseable line in file order, plus the
    count of lines that failed to parse.  @raise Sys_error when the file
    cannot be read. *)
