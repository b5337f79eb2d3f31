(** The allocation demand of the paper's §4.3.3 simulation, which both
    claim-algorithm simulators ({!Allocation_sim}, {!Kampai.Sim}) drive:
    every allocation server requests one block of {!block_size}
    addresses at a time, holds it for {!block_lifetime}, and spaces its
    requests by {!request_gap}.  The protocol stack asks for space in
    the same unit: a {!Maas} whose pools run dry, and a {!Masc_node}
    growing for its children, request at least one block. *)

val block_size : int
(** 256 addresses. *)

val block_lifetime : Time.t
(** 30 days. *)

val request_gap : Rng.t -> Time.t
(** The delay to a server's next request: uniform on [\[1 h, 95 h)],
    one draw from the generator.  Inlined, so the draw reaches the
    engine unboxed. *)
