(* The paper's worked examples as the tests drive them: the Figure-1
   flow on the integrated stack, and what the tests read back from the
   Figure-3 walkthrough ([Scenario.figure3]). *)

type session = {
  inet : Internet.t;
  group : Ipv4.t;
  root : Domain.id;  (* the group's root domain per the G-RIB *)
  members : Domain.id list;
}

(* Build the seven-domain topology, run MASC until domain B holds a
   range, allocate the group address at B (so B is the root), join
   members in C, D, F and G, and run until ready.  [check_invariants]
   installs the live invariant monitor. *)
let figure1 ?(check_invariants = true) () =
  let topo = Gen.figure1 () in
  let inet = Internet.create ~config:Internet.quick_config topo in
  if check_invariants then Internet.enable_invariant_checks inet;
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);
  let dom name = Option.get (Topo.find_by_name topo name) in
  let b = dom "B" in
  let alloc =
    match Internet.request_address_retry inet b ~every:(Time.hours 1.0) ~attempts:52 with
    | Some a -> a
    | None -> failwith "Scenario_fixtures.figure1: allocation did not settle"
  in
  let group = alloc.Maas.address in
  let members = List.map dom [ "C"; "D"; "F"; "G" ] in
  List.iter (fun d -> Internet.join inet ~host:(Host_ref.make d 0) ~group) members;
  Internet.run_for inet (Time.minutes 30.0);
  let root =
    match Internet.root_domain_of inet group with
    | Some r -> r
    | None -> failwith "Scenario_fixtures.figure1: group not routable"
  in
  { inet; group; root; members }

(* Send one packet and return the deliveries (host, inter-domain hops),
   after letting the simulation settle. *)
let send session ~source =
  let payload = Internet.send session.inet ~source ~group:session.group in
  Internet.run_for session.inet (Time.minutes 10.0);
  Internet.deliveries session.inet ~payload

(* (domain name, hops) per delivery, sorted by name. *)
let deliveries_by_domain (w : Scenario.walkthrough) ~payload =
  List.sort compare
    (List.map
       (fun (h, hops) ->
         ((Topo.domain w.Scenario.walkthrough_topo h.Host_ref.host_domain).Domain.name, hops))
       (Bgmp_fabric.deliveries w.Scenario.fabric ~payload))

(* Figure 3(b): send twice from a source in D and compare F's delivery
   hop count against the expected [before] (shared tree) and [after]
   (source-specific branch) values; whether both matched.  With the
   default DVMRP style, [before = [3]] and [after = [2]]. *)
let figure3_branch_demo (w : Scenario.walkthrough) ~before ~after =
  let topo = w.Scenario.walkthrough_topo in
  let d = Option.get (Topo.find_by_name topo "D") in
  let f = Option.get (Topo.find_by_name topo "F") in
  let source = Host_ref.make d 3 in
  let f_hops payload =
    List.filter_map
      (fun (h, hops) -> if h.Host_ref.host_domain = f then Some hops else None)
      (Bgmp_fabric.deliveries w.Scenario.fabric ~payload)
  in
  let send () =
    let p = Bgmp_fabric.send w.Scenario.fabric ~source ~group:w.Scenario.walkthrough_group in
    Engine.run_until_idle w.Scenario.engine;
    p
  in
  let p1 = send () in
  let p2 = send () in
  f_hops p1 = before && f_hops p2 = after
