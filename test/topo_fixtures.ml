(* Graphs and graph queries that only tests build or ask: small fixed
   shapes, and relationship and connectivity views derived from the
   program-facing [Topo] and [Spf] surface. *)

(* A path graph n0 - n1 - ... with n0 the backbone provider. *)
let line ~n =
  let topo = Topo.create () in
  let ids =
    Array.init n (fun i ->
        Topo.add_domain topo ~name:(Printf.sprintf "n%d" i)
          ~kind:(if i = 0 then Domain.Backbone else Domain.Stub))
  in
  for i = 0 to n - 2 do
    Topo.add_link topo ids.(i) ids.(i + 1) Topo.Provider_customer
  done;
  topo

(* A hub (id 0, provider) with [n-1] leaf customers. *)
let star ~n =
  if n < 1 then invalid_arg "Topo_fixtures.star: need n >= 1";
  let topo = Topo.create () in
  let hub = Topo.add_domain topo ~name:"hub" ~kind:Domain.Backbone in
  for i = 1 to n - 1 do
    let leaf = Topo.add_domain topo ~name:(Printf.sprintf "leaf%d" i) ~kind:Domain.Stub in
    Topo.add_link topo hub leaf Topo.Provider_customer
  done;
  topo

(* [(neighbour, link)] pairs of every domain, in link-insertion order. *)
let adjacency topo =
  let adj = Array.make (Topo.domain_count topo) [] in
  List.iter
    (fun (l : Topo.link) ->
      adj.(l.Topo.a) <- (l.Topo.b, l) :: adj.(l.Topo.a);
      adj.(l.Topo.b) <- (l.Topo.a, l) :: adj.(l.Topo.b))
    (Topo.links topo);
  Array.map List.rev adj

let neighbors topo id = List.map fst (adjacency topo).(id)

let customers_of topo id =
  List.filter_map
    (fun (l : Topo.link) ->
      if l.Topo.rel = Topo.Provider_customer && l.Topo.a = id then Some l.Topo.b else None)
    (Topo.links topo)

let peers_of topo id =
  List.filter_map
    (fun (nbr, (l : Topo.link)) -> if l.Topo.rel = Topo.Peer then Some nbr else None)
    (adjacency topo).(id)

(* Every domain reachable from domain 0 (true for the empty graph). *)
let is_connected topo =
  Topo.domain_count topo = 0
  || Array.for_all (fun d -> d <> max_int) (Spf.bfs topo 0).Spf.dist

(* The domains from the BFS source to [dst], or [] when unreachable. *)
let path (p : Spf.paths) dst =
  if p.Spf.dist.(dst) = max_int then []
  else
    let rec walk node acc = if node = p.Spf.src then node :: acc else walk p.Spf.via.(node) (node :: acc) in
    walk dst []
