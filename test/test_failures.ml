(* Failure-injection tests: link failures across BGP and BGMP, and
   recovery after restoration. *)

let check = Alcotest.check

let p = Prefix.of_string

(* A diamond with two disjoint paths root->member:
       top
      /    \
    left  right
      \    /
      bottom *)
let diamond () =
  let topo = Topo.create () in
  let top = Topo.add_domain topo ~name:"top" ~kind:Domain.Backbone in
  let left = Topo.add_domain topo ~name:"left" ~kind:Domain.Regional in
  let right = Topo.add_domain topo ~name:"right" ~kind:Domain.Regional in
  let bottom = Topo.add_domain topo ~name:"bottom" ~kind:Domain.Stub in
  Topo.add_link topo top left Topo.Provider_customer;
  Topo.add_link topo top right Topo.Provider_customer;
  Topo.add_link topo left bottom Topo.Provider_customer;
  Topo.add_link topo right bottom Topo.Provider_customer;
  (topo, top, left, right, bottom)

let test_bgp_reroutes_around_failed_link () =
  let topo, top, left, right, bottom = diamond () in
  let engine = Engine.create () in
  let transport = Net.create ~engine () in
  let net = Bgp_network.create ~engine ~net:transport ~topo () in
  Bgp_network.originate net top (p "224.0.0.0/16");
  Bgp_network.converge net;
  let g = Ipv4.of_string "224.0.0.1" in
  check (Alcotest.option Alcotest.int) "initially via left (lower id tie-break)" (Some left)
    (Views.next_hop_to_root (Bgp_network.speaker net bottom) g);
  Net.fail_link transport top left;
  Bgp_network.converge net;
  check (Alcotest.option Alcotest.int) "fails over via right" (Some right)
    (Views.next_hop_to_root (Bgp_network.speaker net bottom) g);
  (* left itself now reaches the root through bottom?  No: valley-free
     export means bottom (a customer) does not give left transit; left
     reaches the root via nothing... left learned the route from top
     only, so it loses it entirely. *)
  check Alcotest.bool "left lost the route (no valley transit)" true
    (Speaker.lookup (Bgp_network.speaker net left) g = None);
  Net.restore_link transport top left;
  Bgp_network.converge net;
  check (Alcotest.option Alcotest.int) "recovers to left after restore" (Some left)
    (Views.next_hop_to_root (Bgp_network.speaker net bottom) g);
  check Alcotest.bool "left relearns the route" true
    (Speaker.lookup (Bgp_network.speaker net left) g <> None)

let test_bgp_fail_unknown_link_rejected () =
  let topo, top, _, _, bottom = diamond () in
  let inet = Internet.create ~config:Internet.quick_config topo in
  Alcotest.check_raises "no such link" (Invalid_argument "Internet.fail_link: no such link")
    (fun () -> Internet.fail_link inet top bottom);
  Alcotest.check_raises "no such link to restore"
    (Invalid_argument "Internet.restore_link: no such link")
    (fun () -> Internet.restore_link inet top bottom)

let integrated_diamond () =
  let topo, top, left, right, bottom = diamond () in
  let inet = Internet.create ~config:Internet.quick_config topo in
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);
  match Internet.request_address_retry inet bottom ~every:(Time.hours 1.0) ~attempts:32 with
  | Some alloc -> (inet, top, left, right, bottom, alloc.Maas.address)
  | None -> Alcotest.fail "allocation did not settle"

let test_integrated_failover_and_recovery () =
  let inet, top, left, _right, bottom, group = integrated_diamond () in
  (* A member at the top joins the group rooted at bottom. *)
  Internet.join inet ~host:(Host_ref.make top 0) ~group;
  Internet.run_for inet (Time.minutes 30.0);
  let send_and_count () =
    let p = Internet.send inet ~source:(Host_ref.make bottom 1) ~group in
    Internet.run_for inet (Time.minutes 10.0);
    List.length (Internet.deliveries inet ~payload:p)
  in
  check Alcotest.int "delivery before failure" 1 (send_and_count ());
  (* Kill the link the tree uses. *)
  Internet.fail_link inet left bottom;
  Internet.run_for inet (Time.minutes 30.0);
  check Alcotest.int "delivery after failover" 1 (send_and_count ());
  (* And after restoration. *)
  Internet.restore_link inet left bottom;
  Internet.run_for inet (Time.minutes 30.0);
  check Alcotest.int "delivery after restore" 1 (send_and_count ());
  check Alcotest.int "never duplicated" 0
    (Bgmp_fabric.duplicate_deliveries (Internet.fabric inet))

let test_integrated_partition_blocks_then_heals () =
  (* Killing BOTH paths partitions the member from the root: no
     delivery; healing one path restores service. *)
  let inet, top, left, right, bottom, group = integrated_diamond () in
  Internet.join inet ~host:(Host_ref.make top 0) ~group;
  Internet.run_for inet (Time.minutes 30.0);
  Internet.fail_link inet left bottom;
  Internet.fail_link inet right bottom;
  Internet.run_for inet (Time.minutes 30.0);
  let p1 = Internet.send inet ~source:(Host_ref.make bottom 1) ~group in
  Internet.run_for inet (Time.minutes 10.0);
  check Alcotest.int "partitioned: nothing delivered" 0
    (List.length (Internet.deliveries inet ~payload:p1));
  Internet.restore_link inet right bottom;
  Internet.run_for inet (Time.minutes 30.0);
  let p2 = Internet.send inet ~source:(Host_ref.make bottom 1) ~group in
  Internet.run_for inet (Time.minutes 10.0);
  check Alcotest.int "healed: delivered again" 1
    (List.length (Internet.deliveries inet ~payload:p2))

let test_fabric_loses_inflight_messages () =
  let topo, top, left, _right, _bottom = diamond () in
  let engine = Engine.create () in
  let paths = Spf.bfs topo top in
  let route_to_root d _ =
    if d = top then Bgmp_fabric.Root_here
    else
      match Spf.next_hop_toward topo paths d with
      | Some nh -> Bgmp_fabric.Via nh
      | None -> Bgmp_fabric.Unroutable
  in
  let net = Net.create ~engine () in
  let fabric = Bgmp_fabric.create ~engine ~topo ~net ~route_to_root () in
  let g = Ipv4.of_string "224.9.0.1" in
  (* Join from left, then immediately fail the link before the engine
     runs: the in-flight join must be lost and no tree forms at top. *)
  Bgmp_fabric.host_join fabric ~host:(Host_ref.make left 0) ~group:g;
  Net.fail_link net top left;
  Engine.run_until_idle engine;
  check Alcotest.bool "top never heard the join" false
    (List.mem top (Bgmp_fabric.tree_domains fabric ~group:g))

let suite =
  [
    ("bgp reroutes around failed link", `Quick, test_bgp_reroutes_around_failed_link);
    ("bgp fail unknown link rejected", `Quick, test_bgp_fail_unknown_link_rejected);
    ("integrated failover and recovery", `Quick, test_integrated_failover_and_recovery);
    ("integrated partition blocks then heals", `Quick, test_integrated_partition_blocks_then_heals);
    ("fabric loses in-flight messages", `Quick, test_fabric_loses_inflight_messages);
  ]
