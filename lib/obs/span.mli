(** Causal spans: the identity a protocol event chain carries.

    A span names a {e trace id} — the allocation, group, or join the
    chain is about — plus a span id unique within that trace id and an
    optional parent span id.  Threading spans through the protocol
    messages lets a MASC claim, the collisions it provokes, the G-RIB
    routes it becomes, and the BGMP joins that consume those routes all
    be stitched back into one causal chain from a flat recording.

    Span ids come from the minter of the domain's {!Obs_ctx} context:
    a monotone counter per trace id.  There is no wall clock anywhere,
    so identical seeded runs mint identical spans.  [Obs.capture] gives
    a parallel task a fresh minter, so the span ids a task mints are a
    deterministic function of the task alone — identical at any
    [--jobs]. *)

type t = { trace_id : string; span : int; parent : int option }

val reset : unit -> unit
(** Forget all counters of this domain's current minter (harness entry
    points reset it alongside the default metrics registry, keeping
    runs comparable). *)

val root : string -> t
(** A fresh span for [trace_id] with no parent. *)

val child : t -> t
(** A fresh span under the same trace id, parented on the argument. *)

(** {1 Trace-id naming conventions} *)

val claim_id : owner:int -> string -> string
(** ["claim:<owner>:<prefix>"] — a MASC prefix claim's chain. *)

val group_id : string -> string
(** ["group:<addr>"] — a group's chain when no claim chain covers it
    (standalone BGMP fabrics with static routes). *)
