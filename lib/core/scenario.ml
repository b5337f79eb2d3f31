type session = {
  inet : Internet.t;
  group : Ipv4.t;
  root : Domain.id;
  members : Domain.id list;
}

let figure1 ?(seed = 1998) ?(loss = 0.0) ?(check_invariants = true) () =
  let topo = Gen.figure1 () in
  let config = { Internet.quick_config with Internet.seed; Internet.loss } in
  let inet = Internet.create ~config topo in
  if check_invariants then Internet.enable_invariant_checks inet;
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);
  let dom name = Option.get (Topo.find_by_name topo name) in
  let b = dom "B" in
  let alloc =
    match Internet.request_address_retry inet b ~every:(Time.hours 1.0) ~attempts:52 with
    | Some a -> a
    | None -> failwith "Scenario.figure1: allocation did not settle"
  in
  let group = alloc.Maas.address in
  let members = List.map dom [ "C"; "D"; "F"; "G" ] in
  List.iter (fun d -> Internet.join inet ~host:(Host_ref.make d 0) ~group) members;
  Internet.run_for inet (Time.minutes 30.0);
  let root =
    match Internet.root_domain_of inet group with
    | Some r -> r
    | None -> failwith "Scenario.figure1: group not routable"
  in
  { inet; group; root; members }

let send session ~source =
  let payload = Internet.send session.inet ~source ~group:session.group in
  Internet.run_for session.inet (Time.minutes 10.0);
  Internet.deliveries session.inet ~payload

type walkthrough = {
  engine : Engine.t;
  walkthrough_topo : Topo.t;
  fabric : Bgmp_fabric.t;
  walkthrough_group : Ipv4.t;
}

let figure3 ?migp_style ?(loss = 0.0) () =
  let topo = Gen.figure3 () in
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~config:{ Net.loss_rate = loss; loss_seed = 1998 } ()
  in
  let b = Option.get (Topo.find_by_name topo "B") in
  let paths = Spf.bfs topo b in
  let route_to_root d _g =
    if d = b then Bgmp_fabric.Root_here
    else
      match Spf.next_hop_toward topo paths d with
      | Some nh -> Bgmp_fabric.Via nh
      | None -> Bgmp_fabric.Unroutable
  in
  let fabric =
    Bgmp_fabric.create ~engine ~topo ~net ?migp_style ~route_to_root ()
  in
  let group = Ipv4.of_string "224.0.128.1" in
  List.iter
    (fun name ->
      let d = Option.get (Topo.find_by_name topo name) in
      Bgmp_fabric.host_join fabric ~host:(Host_ref.make d 0) ~group)
    [ "B"; "C"; "D"; "F"; "H" ];
  Engine.run_until_idle engine;
  { engine; walkthrough_topo = topo; fabric; walkthrough_group = group }

let deliveries_by_domain w ~payload =
  List.sort compare
    (List.map
       (fun (h, hops) ->
         ((Topo.domain w.walkthrough_topo h.Host_ref.host_domain).Domain.name, hops))
       (Bgmp_fabric.deliveries w.fabric ~payload))

let figure3_branch_demo w ~before ~after =
  let d = Option.get (Topo.find_by_name w.walkthrough_topo "D") in
  let f = Option.get (Topo.find_by_name w.walkthrough_topo "F") in
  let source = Host_ref.make d 3 in
  let f_hops payload =
    List.filter_map
      (fun (h, hops) -> if h.Host_ref.host_domain = f then Some hops else None)
      (Bgmp_fabric.deliveries w.fabric ~payload)
  in
  let p1 = Bgmp_fabric.send w.fabric ~source ~group:w.walkthrough_group in
  Engine.run_until_idle w.engine;
  let p2 = Bgmp_fabric.send w.fabric ~source ~group:w.walkthrough_group in
  Engine.run_until_idle w.engine;
  f_hops p1 = before && f_hops p2 = after
