(** The BGMP component of one border router (§5).

    The router keeps per-group (star,G) forwarding entries — a parent
    target toward the group's root domain and a list of child targets —
    plus (S,G) entries for source-specific branches.  As in the paper
    (§5.1), a target is one of two kinds: an external BGMP peer (the
    border router across one of this router's inter-domain links) or
    the domain's MIGP component — the whole interior, or the MIGP
    component of one named border router of the same domain.

    The state machine is transport-agnostic.  The control-plane handlers
    return the {!action}s to perform — each a BGMP message and the
    target to send it toward — and the enclosing fabric delivers them
    (peer messages with link delay, MIGP-side messages to the right
    border router of the domain).  Data never becomes an action:
    {!forward} pushes each copy of a packet onto the fabric's {!work}
    stack, whose loop sends it to a peer, hands it to an internal peer,
    or distributes it inside the domain per the MIGP style. *)

type target =
  | Peer of int  (** global router id of an external BGMP peer *)
  | Migp_target  (** this domain's MIGP component (interior flood/members) *)
  | Internal_router of int
      (** the MIGP component of a specific border router of the same
          domain — the paper's internal BGMP peer, used by (S,G) chains
          so source-specific traffic tunnels across the interior instead
          of riding the general flood *)

val target_equal : target -> target -> bool

val pp_target : Format.formatter -> target -> unit

(** Where the path toward some root/source domain leaves from this
    router's point of view; the fabric computes it from the G-RIB (for
    roots) or the M-RIB/unicast table (for sources). *)
type route_class =
  | Root_here  (** this domain is the root (or source) domain *)
  | External of int  (** next hop is across this router's own link: peer id *)
  | Internal of int
      (** next hop is via another border router of this domain (its
          global router id) *)
  | Unroutable

type action = target * Bgmp_msg.t
(** Send this message toward this target: a (star,G) join or prune
    whose target is [Migp_target] goes to the domain's exit router
    toward the group's root (or only grafts or drops local interest when
    this domain is the root); an (S,G) join or prune goes to a peer or
    to a named border router of the domain, never to [Migp_target]. *)

type entry = private {
  mutable parent : target option;
      (** toward the root domain; join/prune propagation goes here *)
  mutable children : target list;  (** downstream targets *)
}
(** A (star,G) shared-tree entry: forwards bidirectionally among
    parent and children. *)

type sg_view = {
  view_parent : target option;  (** join/prune propagation direction *)
  view_rpf : target option;  (** where S's packets must arrive from *)
  view_added : target list;  (** grafted branch children *)
  view_removed : target list;  (** shared-tree targets pruned for S *)
  view_targets : target list;
      (** the effective outgoing set right now — computed against the
          live (star,G) entry, so shared-tree changes after the (S,G)
          state was installed are reflected automatically *)
}
(** Read-only view of an (S,G) entry (source-specific branch or
    negative/prune state). *)

type t

val create : id:int -> domain:Domain.id -> name:string -> t

val reset : t -> unit
(** Drop every (star,G), (S,G) and pending branch-prune entry, in place
    (tables back to their initial size); version 0.  The classifiers the
    fabric installed stay. *)

val id : t -> int

val domain : t -> Domain.id

val name : t -> string

val version : t -> int
(** A mutation counter over the (star,G) table: it grows when an entry
    is added or removed (including by {!clear_group}) and when an
    entry's children change.  (S,G) state, data forwarding and lookups
    leave it alone. *)

val set_classify_root : t -> (Ipv4.t -> route_class) -> unit
(** How to reach the root domain of a group (G-RIB longest match). *)

val set_classify_source : t -> (Domain.id -> route_class) -> unit
(** How to reach a source's domain (M-RIB / unicast routing). *)

(** {1 Event handlers} — each returns the actions to execute. *)

val handle_join : ?span:Span.t -> t -> group:Ipv4.t -> from:target -> action list
(** [?span] is the incoming join's span; the upstream join this handler
    emits (first join only) carries a fresh child span, so the chain
    records one span per tree hop. *)

val handle_prune : t -> group:Ipv4.t -> from:target -> action list

val handle_join_sg : t -> source:Host_ref.t -> group:Ipv4.t -> from:target -> action list

val handle_prune_sg : t -> source:Host_ref.t -> group:Ipv4.t -> from:target -> action list

(** {1 Data forwarding} *)

type work = {
  mutable senders : int array;
  mutable targets : target array;
  mutable levels : int array;
  mutable top : int;  (** items [0 .. top - 1] are pending *)
}
(** A stack of pending copies of one packet, as parallel arrays: item
    [i] is router [senders.(i)]'s copy toward [targets.(i)], nested
    [levels.(i)] interior distributions deep.  The fabric owns one and
    pops it from the top.  Pushing allocates only to double it. *)

val create_work : unit -> work

val push : work -> int -> target -> level:int -> unit
(** Add an item on top, doubling the arrays when they are full. *)

val forward : t -> work -> group:Ipv4.t -> source:Host_ref.t -> level:int -> from:target -> int
(** Forward a packet that arrived from [from]: push one item per target
    but [from], this router the sender, so they pop in table order —
    under a (star,G) entry the parent first, then the children; under
    an (S,G) entry its effective targets; with neither, the §5.2
    default toward the group's root domain.  Returns the router whose
    shared-tree copies an (S,G) branch this router initiated prunes now
    (§5.3), or [-1]; the caller sends that prune before popping the
    copies, which may change router state. *)

val initiate_branch : t -> source:Host_ref.t -> group:Ipv4.t -> shared_entry_router:int -> action list
(** Begin a source-specific branch at this (decapsulating) router: set
    up (S,G) state toward the source and remember which same-domain
    router's shared-tree copies to prune once branch data flows
    (§5.3). *)

val cancel_suppression : t -> source:Host_ref.t -> group:Ipv4.t -> action list
(** Remove this router's negative (S,G) state for the source and
    re-subscribe to the source's shared-tree copies upstream (an (S,G)
    join toward the (star,G) parent, cancelling the prune that a
    now-dead branch once sent).  No-op without (star,G) state. *)

val clear_group : t -> Ipv4.t -> unit
(** Drop every (star,G) and (S,G) entry for the group (tree rebuild
    after a G-RIB change). *)

(** {1 Introspection} *)

val star_entry : t -> Ipv4.t -> entry option

val sg_entry : t -> Host_ref.t -> Ipv4.t -> sg_view option

val branch_prune : t -> source:Host_ref.t -> group:Ipv4.t -> int option
(** The same-domain router whose shared-tree copies this router prunes
    once data arrives on the (S,G) branch it initiated. *)

val has_sg : t -> Host_ref.t -> Ipv4.t -> bool
(** [has_sg t s g] is [sg_entry t s g <> None], without building the
    view — the data path's existence test. *)

val sg_for_group : t -> Ipv4.t -> (Host_ref.t * sg_view) list
(** All (S,G) entries for the given group. *)

val on_tree : t -> Ipv4.t -> bool

val star_parent : t -> Ipv4.t -> target option
(** The (star,G) entry's parent, [None] also when there is no entry:
    the stored field itself, so nothing is allocated. *)

val iter_star : t -> (Ipv4.t -> entry -> unit) -> unit
(** Every (star,G) entry, in no particular order. *)

val entry_count : t -> int
(** Total forwarding entries, (star,G) plus (S,G) — the state-scaling
    metric of §7. *)
