(** Multicast Interior Gateway Protocol (MIGP) components.

    BGMP is MIGP-independent (§3): each domain runs whatever multicast
    routing protocol it likes internally, and BGMP interacts with it only
    through a narrow behavioural interface.  Since our domains are atomic
    (no interior topology — see DESIGN.md), each MIGP is modelled by the
    behaviour BGMP can observe at the domain boundary:

    - {b membership tracking} and the Domain-Wide-Report-style signal
      that tells the best exit border router when the domain gains its
      first member or loses its last one;
    - {b data distribution style}: DVMRP and PIM-DM {e flood} incoming
      data to every border router (which then prune), while PIM-SM and
      CBT deliver only along explicitly joined state.  BGMP cannot tell
      the two apart: a border router with no state for the packet and
      not on the link toward the root forwards nothing, so the fabric
      hands the packet only to the routers that take it;
    - {b RPF strictness}: DVMRP and PIM-DM accept a source's packets
      only from the border router on the unicast shortest path back to
      the source, forcing encapsulation (and motivating BGMP's
      source-specific branches, §5.3); PIM-SM and CBT forward on their
      internal shared tree regardless of entry router.

    A counter exposes the encapsulation overhead that the paper
    discusses qualitatively. *)

type style = Dvmrp | Pim_dm | Pim_sm | Cbt

val strict_rpf : style -> bool
(** DVMRP, PIM-DM: source packets must enter at the RPF border router. *)

type t

val create : style -> domain:Domain.id -> t

val reset : t -> unit
(** Drop every membership and zero the encapsulation counter, in place; the
    {!set_on_group_active} hook stays. *)

val style : t -> style

val set_on_group_active : t -> (group:Ipv4.t -> active:bool -> unit) -> unit
(** The Domain-Wide-Report hook: fired with [active:true] when the first
    local host joins a group and [active:false] when the last leaves. *)

val host_join : t -> group:Ipv4.t -> host:Host_ref.t -> unit
(** @raise Invalid_argument if the host is not in this domain or already
    a member. *)

val host_leave : t -> group:Ipv4.t -> host:Host_ref.t -> unit
(** @raise Invalid_argument if the host is not a member. *)

val members : t -> group:Ipv4.t -> Host_ref.t list
(** Join order. *)

val has_members : t -> group:Ipv4.t -> bool

type members
(** One group's local member cell, opaque. *)

val iter_groups : t -> (Ipv4.t -> members -> unit) -> unit
(** Every group with at least one local member, in no particular order;
    a callback built once makes the walk allocation-free. *)

(** {1 Overhead counter} *)

val note_encapsulation : t -> unit

val encapsulations : t -> int
