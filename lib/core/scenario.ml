type walkthrough = {
  engine : Engine.t;
  walkthrough_topo : Topo.t;
  fabric : Bgmp_fabric.t;
  walkthrough_group : Ipv4.t;
}

let figure3 ?(loss = 0.0) () =
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
    Bgmp_fabric.create ~engine ~topo ~net ~route_to_root ()
  in
  let group = Ipv4.of_string "224.0.128.1" in
  List.iter
    (fun name ->
      let d = Option.get (Topo.find_by_name topo name) in
      Bgmp_fabric.host_join fabric ~host:(Host_ref.make d 0) ~group)
    [ "B"; "C"; "D"; "F"; "H" ];
  Engine.run_until_idle engine;
  { engine; walkthrough_topo = topo; fabric; walkthrough_group = group }
