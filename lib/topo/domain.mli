(** Autonomous systems (domains).

    The paper's unit of routing is the domain: "the set of networks under
    administrative control of a single organization".  Domains come in
    the provider-hierarchy roles the paper describes (backbones at the
    top, regionals below them, campus/stub networks at the leaves). *)

type id = int
(** Dense identifiers, assigned by the topology in creation order.  The
    deterministic MASC collision winner rule compares these ids. *)

type kind =
  | Backbone  (** national / inter-continental transit; MASC top level *)
  | Regional  (** mid-tier provider *)
  | Stub  (** campus or customer network; no transit *)
  | Exchange  (** neutral interconnect (MAE-East, LINX); seeds the
                  top-level address space in the start-up phase *)

type t = { id : id; name : string; kind : kind }

val make : id:id -> name:string -> kind:kind -> t

