(** Sim-time telemetry series, written as one JSONL stream.

    A [Timeseries.t] holds named sources — thunks reading a gauge, a
    counter, a queue depth — and appends one line per source to its
    file each time [sample] is called.  The module is passive: it never
    touches the engine, so cadence is owned by whoever drives it (the
    engine's sampler hook in practice, or an experiment's own sampling
    loop).  Read a file back with {!load_jsonl_counted}. *)

type t

val create : string -> t
(** A series written to this file, which the first {!sample} creates
    (truncating it). *)

val register : t -> string -> (unit -> float) -> unit
(** Add a named source; sources are sampled in registration order.
    @raise Invalid_argument on a duplicate name. *)

val sample : t -> time:float -> unit
(** Read every source once and append its line at [time]: the object
    [{"at": time, "series": name, "value": v}]. *)

val close : t -> unit
(** Flush and close the file, if a sample opened it. *)

(** {1 Loading and shaping} *)

type point = { at : float; series : string; value : float }

val load_jsonl_counted : string -> point list * int
(** Parse a file written by {!sample}: the points, plus the count of
    malformed non-blank lines skipped.  @raise Sys_error when the file
    cannot be read. *)

val series_of : point list -> (string * (float * float) array) list
(** Group points into per-series (time, value) arrays, series in
    first-appearance order, points in file order. *)
