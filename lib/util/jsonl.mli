(** The one JSON codec behind every artifact the repo writes: flight
    recordings, profiles, telemetry, delivery matrices, the explorer
    ledger and the metrics snapshot.

    Writers build their lines by hand (each keeps its exact bytes) and
    escape strings with {!json_escape}; loaders parse each line into a
    {!t} and decode it by field lookup.  Non-blank lines that do not
    parse or decode are counted, never fatal, so a truncated file is
    loud rather than silently shorter. *)

type t =
  | Null
  | Number of float  (** always finite *)
  | String of string
  | Array of t list
  | Object of (string * t) list  (** keys in document order *)

val json_escape : string -> string
(** Quote-safe body of a JSON string: backslash escapes for the double
    quote, the backslash and newline/CR/tab, and [\u00XX] for the other
    control bytes. *)

val parse : string -> t option
(** One complete JSON document built from the values the repo writes
    (no booleans); whitespace (newlines included) may surround any
    token.  [None] on a syntax error, trailing garbage or a number that
    is not finite (e.g. [1e999999]). *)

(** {1 Decoding} *)

val member : string -> t -> t option
(** An object's field. *)

val to_string : t -> string option

val to_float : t -> float option

val to_int : t -> int option
(** Integral numbers within OCaml's int range only. *)

val to_list : (t -> 'a option) -> t -> 'a list option
(** An array whose every element converts. *)

val field : string -> (t -> 'a option) -> t -> 'a option
(** [field key conv v]: the converted field; [None] when absent or
    ill-typed. *)

val opt_field : string -> (t -> 'a option) -> t -> 'a option option
(** A nullable field: [Some None] when absent or [null], [Some (Some x)]
    when it converts, [None] when present but ill-typed. *)

val load_counted : string -> (t -> 'a option) -> 'a list * int
(** [load_counted file decode]: every non-blank line parsed and decoded,
    in file order, plus the count of lines that failed either step.
    @raise Sys_error when the file cannot be opened or read. *)

val last_line_cut : string -> bool
(** Whether the file's last line lacks its newline and does not parse:
    the file was cut off mid-record (a writer killed mid-line, a partial
    copy).  {!load_counted} counts that line among the malformed ones.
    @raise Sys_error when the file cannot be opened or read. *)
