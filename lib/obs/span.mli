(** Causal spans: the identity a protocol event chain carries.

    A span names a {e trace id} — the allocation, group, or join the
    chain is about — plus a span id unique within that trace id and an
    optional parent span id.  Threading spans through the protocol
    messages lets a MASC claim, the collisions it provokes, the G-RIB
    routes it becomes, and the BGMP joins that consume those routes all
    be stitched back into one causal chain from a flat recording.

    Span ids come from a {!minter}: a monotone counter per trace id.
    There is no wall clock anywhere, so identical seeded runs mint
    identical spans. *)

type t = { trace_id : string; span : int; parent : int option }

type minter

val create_minter : unit -> minter

val default : minter
(** The main domain's ambient minter.  When [?minter] is omitted,
    {!root} and {!child} use the {e current} domain-local minter:
    [default] on the main domain, whatever {!with_minter} installed
    inside a parallel task.  Counter tables are plain hash tables, so
    the ambient minter is never shared across domains. *)

val with_minter : minter -> (unit -> 'a) -> 'a
(** Run the thunk with [minter] as this domain's ambient minter
    (restored afterwards, exceptions included).  [Par.with_shard]
    installs a fresh minter per task, making a task's span ids a
    deterministic function of the task alone — identical at any
    [--jobs]. *)

val reset : ?minter:minter -> unit -> unit
(** Forget all counters — of the ambient minter when [?minter] is
    omitted (harness entry points reset it alongside the default
    metrics registry, keeping runs comparable). *)

val root : ?minter:minter -> string -> t
(** A fresh span for [trace_id] with no parent. *)

val child : ?minter:minter -> t -> t
(** A fresh span under the same trace id, parented on the argument. *)

(** {1 Trace-id naming conventions} *)

val claim_id : owner:int -> string -> string
(** ["claim:<owner>:<prefix>"] — a MASC prefix claim's chain. *)

val group_id : string -> string
(** ["group:<addr>"] — a group's chain when no claim chain covers it
    (standalone BGMP fabrics with static routes). *)

val join_id : group:string -> member:string -> string
(** ["join:<addr>:<member>"] — an individual join identity. *)

val kind : t -> string
(** The trace-id prefix before the first [':'] ("claim", "group", ...). *)

val pp : Format.formatter -> t -> unit
