type t =
  | Join of { group : Ipv4.t; span : Span.t option }
  | Prune of Ipv4.t
  | Join_sg of { source : Host_ref.t; group : Ipv4.t }
  | Prune_sg of { source : Host_ref.t; group : Ipv4.t }
  | Data of { group : Ipv4.t; source : Host_ref.t; payload : int; hops : int }
