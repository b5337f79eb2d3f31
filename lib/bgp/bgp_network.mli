(** A network of BGP speakers, one per topology domain, exchanging
    updates over the simulation engine.

    Peerings mirror the topology's links; relationships are derived from
    the link's provider/customer/peer annotation.  Updates travel over
    {!Net} channels (two per link, one per direction) with the link's
    delay; channels are FIFO, which stands in for the TCP peering
    sessions of real BGP, and session state follows the transport's link
    state. *)

type t

val create : engine:Engine.t -> ?net:Net.t -> topo:Topo.t -> unit -> t
(** Build one speaker per domain and peer them along every link.  [net]
    is the transport to send over — pass the internet-wide one to share
    link state with MASC and BGMP; by default the network gets a private
    [Net.t] on the same engine. *)

val reset : t -> unit
(** {!Speaker.reset} every speaker; the sessions' channels and the
    link-change listener stay.  The engine and the net are the caller's
    to reset ({!Engine.reset}, {!Net.reset}). *)

val speaker : t -> Domain.id -> Speaker.t

val originate : ?lifetime_end:Time.t -> ?span:Span.t -> t -> Domain.id -> Prefix.t -> unit
(** Inject a group route at its root domain (what a MASC node does after
    winning a claim) and let it propagate. *)

val withdraw : t -> Domain.id -> Prefix.t -> unit

val converge : t -> unit
(** Run the engine until no BGP activity remains. *)

