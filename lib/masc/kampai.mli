(** Kampai-style non-contiguous address masks (§4.3.3/§7).

    The paper: "We are also investigating the use of non-contiguous
    masks as in [Tsuchiya's] Kampai scheme.  The use of non-contiguous
    masks in the Internet may face operational resistance ... but would
    provide even better address space utilization."

    A Kampai block is [(value, mask)]: it covers every address [a] with
    [a land mask = value].  Unlike a CIDR prefix, the zero bits of
    [mask] need not be contiguous, so a domain can always double its
    block by releasing {e any} mask bit whose flip keeps it disjoint
    from every other block — no buddy fragmentation, no renumbering —
    and its whole allocation stays a single routing-table entry forever.

    {!Sim} runs the Figure-2 demand model on one allocation level twice
    — contiguous prefixes with the §4.3.3 policy vs Kampai blocks — and
    reports the utilization/table-size comparison the paper conjectures
    ([bin/main.exe -- ablate-kampai]). *)

type block = private { value : int; mask : int }
(** Invariant: [value land mask = value], and [mask] always keeps the
    four class-D selector bits (so every block stays inside 224/4). *)

val block_of_prefix : Prefix.t -> block
(** A contiguous prefix viewed as a Kampai block.
    @raise Invalid_argument outside 224/4. *)

val disjoint : block -> block -> bool
(** Two blocks are disjoint iff their values differ on some bit
    constrained by both masks. *)

val grow : block -> others:block list -> block option
(** Double the block by releasing one mask bit, choosing the
    lowest-numbered bit whose release keeps the block disjoint from
    every block in [others].  [None] if no bit qualifies. *)

val shrink : block -> block option
(** Halve the block by re-fixing its lowest released bit (to 0).
    [None] when the block is a single address...
    or rather when nothing was ever released. *)

(** The comparison simulation. *)
module Sim : sig
  type params = {
    domains : int;
    horizon : Time.t;
    seed : int;
  }

  val default_params : params
  (** 100 domains, 400 days.  Every domain runs the Figure-2 demand
      ({!Demand}). *)

  type side = {
    utilization : float;  (** steady-state mean: demanded / allocated *)
    table_entries : float;  (** steady-state mean routing-table entries *)
    failures : int;  (** demands that could not be satisfied *)
    renumberings : int;
        (** consolidations forcing a domain onto a new range (always 0
            for Kampai: growth is in place) *)
  }

  type result = { contiguous : side; kampai : side }

  val run : params -> result
end
