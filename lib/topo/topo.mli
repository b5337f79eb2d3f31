(** The inter-domain topology: a graph of domains connected by
    inter-domain links carrying business relationships.

    Provider-customer relationships both shape the MASC hierarchy (a
    customer picks one of its providers as MASC parent) and define BGP
    export policy (a provider carries transit only to/from its
    customers). *)

type relationship =
  | Provider_customer  (** the [a] end of the link is provider of the [b] end *)
  | Peer  (** settlement-free peering *)

type link = { a : Domain.id; b : Domain.id; rel : relationship; delay : Time.t }

type csr = {
  csr_nodes : int;
  row : int array;  (** length [csr_nodes + 1]; node [u]'s edges live at
                        indices [row.(u) .. row.(u+1) - 1] *)
  nbr : int array;  (** directed edge -> neighbor id *)
  eid : int array;  (** directed edge -> index into [linkv] *)
  linkv : link array;  (** flat link table, in insertion order *)
}
(** A frozen compressed-sparse-row snapshot of the graph.  Snapshots are
    immutable: mutating the [t] it came from (adding a domain or link)
    does not update existing snapshots — call {!freeze} again to get a
    fresh one.  Edges of each node appear in link-insertion order, so
    kernels iterating a snapshot break ties exactly like the list-based
    accessors. *)

type t

val create : unit -> t

val add_domain : t -> name:string -> kind:Domain.kind -> Domain.id
(** Ids are assigned densely in creation order. *)

val add_link : t -> Domain.id -> Domain.id -> relationship -> unit
(** [add_link t a b Provider_customer] makes [a] a provider of [b], with
    a 10 ms delay.  Self-links and duplicate links are rejected
    with [Invalid_argument]. *)

val domain_count : t -> int

val link_count : t -> int

val domain : t -> Domain.id -> Domain.t
(** @raise Invalid_argument on an unknown id. *)

val domains : t -> Domain.t list

val find_by_name : t -> string -> Domain.id option

val freeze : t -> csr
(** The current graph as a CSR snapshot.  Memoized: repeated calls on an
    unmodified graph return the same snapshot; any mutation invalidates
    the memo (but never the snapshots already handed out).  Each actual
    rebuild bumps the [topo.csr_rebuilds] counter (visible in
    [--metrics]); the link table is kept as a flat array so a rebuild
    re-snapshots it with one copy rather than walking a list. *)

val degree : t -> Domain.id -> int

val link_between : t -> Domain.id -> Domain.id -> link option

val providers_of : t -> Domain.id -> Domain.id list

val links : t -> link list

val pp_summary : Format.formatter -> t -> unit
