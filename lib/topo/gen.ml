let power_law ~rng ~n ~m =
  if m < 1 || n <= m then invalid_arg "Gen.power_law: need n > m >= 1";
  let topo = Topo.create () in
  (* Names are assigned up front; kinds are refined after the degree
     distribution is known, so domains are created as Stub and the final
     kinds are exposed through a rebuilt topology. *)
  let ids = Array.init n (fun i -> Topo.add_domain topo ~name:(Printf.sprintf "d%d" i) ~kind:Domain.Stub) in
  ignore ids;
  (* Seed clique over the first m+1 nodes. *)
  for i = 0 to m do
    for j = i + 1 to m do
      Topo.add_link topo i j Topo.Provider_customer
    done
  done;
  (* Repeated-endpoint pool: picking a uniform element is
     degree-proportional attachment.  One preallocated array appended at
     the tail replaces the historical cons-list + per-node
     [Array.of_list] rebuild (which alone was most of a large graph's
     allocation).  Historical draws indexed the list FRONT, so the pick
     reads [len - 1 - k] and every [x :: y :: rest] cons becomes
     "append y, then x" — the draw sequence, and thus every golden, is
     unchanged. *)
  let cap = 2 * ((((m + 1) * m) / 2) + (max 0 (n - m - 1) * m)) in
  let ep = Array.make (max 1 cap) 0 in
  let len = ref 0 in
  let append u =
    ep.(!len) <- u;
    incr len
  in
  for i = 0 to m do
    for j = i + 1 to m do
      append j;
      append i
    done
  done;
  for v = m + 1 to n - 1 do
    let chosen = Hashtbl.create m in
    let tries = ref 0 in
    while Hashtbl.length chosen < m && !tries < 50 * m do
      incr tries;
      let u = ep.(!len - 1 - Rng.int rng !len) in
      if u <> v && not (Hashtbl.mem chosen u) then Hashtbl.add chosen u ()
    done;
    (* Fallback for pathological draws: attach to lowest-id nodes not yet
       chosen (keeps the graph connected deterministically). *)
    let u = ref 0 in
    while Hashtbl.length chosen < m do
      if !u <> v && not (Hashtbl.mem chosen !u) then Hashtbl.add chosen !u ();
      incr u
    done;
    Hashtbl.iter
      (fun u () ->
        Topo.add_link topo u v Topo.Provider_customer;
        append v;
        append u)
      chosen
  done;
  (* Rebuild with kinds derived from final degrees. *)
  let final = Topo.create () in
  for i = 0 to n - 1 do
    let deg = Topo.degree topo i in
    let kind =
      if i <= m then Domain.Backbone
      else if deg > 1 then Domain.Regional
      else Domain.Stub
    in
    ignore (Topo.add_domain final ~name:(Printf.sprintf "d%d" i) ~kind)
  done;
  List.iter (fun l -> Topo.add_link final l.Topo.a l.Topo.b l.Topo.rel) (Topo.links topo);
  final

let transit_stub ~rng ~backbones ~regionals_per_backbone ~stubs_per_regional =
  if backbones < 1 then invalid_arg "Gen.transit_stub: need at least one backbone";
  let topo = Topo.create () in
  let bb =
    Array.init backbones (fun i ->
        Topo.add_domain topo ~name:(Printf.sprintf "bb%d" i) ~kind:Domain.Backbone)
  in
  Array.iteri
    (fun i a -> Array.iteri (fun j b -> if i < j then Topo.add_link topo a b Topo.Peer) bb)
    bb;
  let regionals = ref [] in
  Array.iteri
    (fun i b ->
      for r = 0 to regionals_per_backbone - 1 do
        let rid =
          Topo.add_domain topo ~name:(Printf.sprintf "r%d_%d" i r) ~kind:Domain.Regional
        in
        Topo.add_link topo b rid Topo.Provider_customer;
        regionals := rid :: !regionals;
        for s = 0 to stubs_per_regional - 1 do
          let sid =
            Topo.add_domain topo ~name:(Printf.sprintf "s%d_%d_%d" i r s) ~kind:Domain.Stub
          in
          Topo.add_link topo rid sid Topo.Provider_customer
        done
      done)
    bb;
  (* Sprinkle peer links between regionals: one per four regionals. *)
  let regs = Array.of_list !regionals in
  let extra = Array.length regs / 4 in
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra && !attempts < 100 * (extra + 1) do
    incr attempts;
    let a = Rng.pick rng regs and b = Rng.pick rng regs in
    if a <> b && Topo.link_between topo a b = None then begin
      Topo.add_link topo a b Topo.Peer;
      incr added
    end
  done;
  topo

let masc_hierarchy ~tops ~children_per_top =
  let topo = Topo.create () in
  let top_ids =
    Array.init tops (fun i ->
        Topo.add_domain topo ~name:(Printf.sprintf "top%d" i) ~kind:Domain.Backbone)
  in
  Array.iteri
    (fun i a ->
      Array.iteri (fun j b -> if i < j then Topo.add_link topo a b Topo.Peer) top_ids)
    top_ids;
  Array.iteri
    (fun i t ->
      for c = 0 to children_per_top - 1 do
        let cid =
          Topo.add_domain topo ~name:(Printf.sprintf "c%d_%d" i c) ~kind:Domain.Stub
        in
        Topo.add_link topo t cid Topo.Provider_customer
      done)
    top_ids;
  topo

let figure1 () =
  let topo = Topo.create () in
  let add name kind = Topo.add_domain topo ~name ~kind in
  let a = add "A" Domain.Backbone in
  let b = add "B" Domain.Regional in
  let c = add "C" Domain.Regional in
  let d = add "D" Domain.Backbone in
  let e = add "E" Domain.Backbone in
  let f = add "F" Domain.Stub in
  let g = add "G" Domain.Stub in
  Topo.add_link topo d a Topo.Peer;
  Topo.add_link topo e a Topo.Peer;
  Topo.add_link topo d e Topo.Peer;
  Topo.add_link topo a b Topo.Provider_customer;
  Topo.add_link topo a c Topo.Provider_customer;
  Topo.add_link topo b c Topo.Peer;
  Topo.add_link topo b f Topo.Provider_customer;
  Topo.add_link topo c g Topo.Provider_customer;
  topo

let figure3 () =
  let topo = figure1 () in
  let c = Option.get (Topo.find_by_name topo "C") in
  let a = Option.get (Topo.find_by_name topo "A") in
  let f = Option.get (Topo.find_by_name topo "F") in
  let g = Option.get (Topo.find_by_name topo "G") in
  let h = Topo.add_domain topo ~name:"H" ~kind:Domain.Stub in
  Topo.add_link topo c h Topo.Provider_customer;
  Topo.add_link topo g h Topo.Peer;
  (* F's second border router F2 peers directly with A in Figure 3(b). *)
  Topo.add_link topo a f Topo.Peer;
  topo
