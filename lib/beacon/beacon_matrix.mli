(** The N×N delivery matrix an active-measurement campaign accumulates.

    One cell per (source beacon, receiver beacon) pair that a probe was
    ever addressed to: how many probes the pair expected ({!expect_slot},
    one per probe send per expected receiver), how many arrived
    ({!deliver_slot}), and running statistics over one-way latency,
    inter-domain hop count and path stretch — the delivered hop count
    divided by the unicast SPF hop distance between the two domains (1.0
    when both sit in the same domain).  dbeacon renders exactly this matrix from its
    receiver reports; here the accounting is deterministic, so two
    seeded runs produce byte-identical snapshots.

    The accumulator is mergeable ({!merge_into}) so parallel trials can
    fold shard-local matrices back in task order, and exportable as
    JSONL for the [report --matrix] view. *)

type t

val create : unit -> t

type slot
(** One pair's cell, resolved once so that repeated updates skip the
    pair lookup.  A slot stays valid until its matrix is the [into] of
    a {!merge_into}, which replaces the merged cells. *)

val slot : t -> src:Host_ref.t -> dst:Host_ref.t -> slot
(** The pair's cell, created empty (no sends, no deliveries) if new. *)

val expect_slot : slot -> unit
(** A probe from the pair's source was sent to a group its receiver
    listens on: the pair now expects one more delivery. *)

val deliver_slot : slot -> latency:float -> hops:int -> spf_dist:int -> unit
(** A probe copy arrived.  [latency] is one-way sim-time seconds,
    [hops] the inter-domain hop count the copy travelled, [spf_dist]
    the unicast BFS hop distance from the source's to the receiver's
    domain (0 for the same domain — the stretch observation is then
    1.0, matching a zero-hop interior delivery). *)

val merge_into : into:t -> t -> unit
(** Fold another matrix's cells into [into] (counts add, statistics
    merge).  Merging shard matrices in task order is deterministic. *)

(** {1 Snapshots} *)

type cell = {
  c_src : Host_ref.t;
  c_dst : Host_ref.t;
  c_sent : int;
  c_got : int;
  c_loss : float;  (** lost fraction: [(sent - got) / sent] *)
  c_lat_mean : float;
  c_lat_max : float;  (** 0. when nothing arrived *)
  c_hops_mean : float;
  c_hops_max : float;
  c_stretch_mean : float;
  c_stretch_max : float;
}

val cells : t -> cell list
(** Deterministic snapshot: one cell per pair, sorted by (src, dst).
    The cells are sorted as an array, in place, and then listed. *)

type summary = {
  s_pairs : int;
  s_sent : int;
  s_got : int;
  s_lost : int;
  s_loss : float;  (** aggregate lost fraction *)
  s_unreachable : int;  (** pairs that expected probes and got none *)
  s_asymmetric : int;
      (** unordered host pairs measured in both directions whose loss
          fractions differ *)
  s_complete : bool;  (** every pair got every probe *)
  s_lat_mean : float;
  s_lat_max : float;
  s_stretch_mean : float;
  s_stretch_max : float;
}

val summary : cell list -> summary
(** The aggregate over [cs].  A cell's reverse pair, for
    [s_asymmetric], is found by binary search over the cells in (src,
    dst) order: the {!cells} order is used as given, any other order is
    sorted into a copy first.  So the result does not depend on the
    order of [cs]; of a pair listed more than once, the last is the one
    a reverse lookup finds. *)

val worst : cell list -> n:int -> cell list
(** The [n] worst pairs: highest loss fraction first, then highest mean
    latency, then (src, dst) order — the dbeacon "who can't hear whom"
    view. *)

val pp_summary : Format.formatter -> summary -> unit

val pp_cells : Format.formatter -> cell list -> unit
(** One aligned row per cell — intended for small matrices or the
    {!worst} selection. *)

(** {1 JSONL export}

    One meta line ([{"meta": ...}] with caller-supplied (key, value)
    floats, e.g. the convergence and measurement-window timestamps),
    then one line per cell. *)

val write_jsonl : ?meta:(string * float) list -> string -> cell list -> unit

val load_jsonl_counted : string -> (string * float) list * cell list * int
(** (meta, cells, malformed): the last meta line's pairs, every cell in
    file order, and the count of malformed non-blank lines skipped.
    @raise Sys_error when the file cannot be read. *)
