(** The paper's Figure-3 walkthrough as a library value: the CLI's
    [dot] subcommand renders it, and tests drive it. *)

type walkthrough = {
  engine : Engine.t;
  walkthrough_topo : Topo.t;
  fabric : Bgmp_fabric.t;
  walkthrough_group : Ipv4.t;
}

val figure3 : ?loss:float -> unit -> walkthrough
(** Figure 3(a): the eight-domain topology with group 224.0.128.1
    statically rooted at B and members joined in B, C, D, F and H
    (DVMRP inside every domain).  [loss] sets the
    fabric transport's per-message drop probability (default 0) —
    dropped joins show up as missing tree branches. *)
