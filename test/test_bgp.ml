(* Tests for mcast_bgp: routes, decision process, policy export,
   aggregation, and network-wide convergence of group routes. *)

let check = Alcotest.check

let p = Prefix.of_string

let prefix_testable = Alcotest.testable Prefix.pp Prefix.equal

(* --- Route ------------------------------------------------------------ *)

let test_route_prefer_shortest_path () =
  let pre = p "224.0.0.0/16" in
  let short = Route.through (Route.originate 1 pre) 2 in
  let long = Route.through (Route.through (Route.originate 1 pre) 3) 4 in
  check Alcotest.bool "shorter preferred" true (Route.prefer short long == short);
  let self = Route.originate 5 pre in
  check Alcotest.bool "self-originated beats learned" true (Route.prefer self short == self)

let test_route_loop_detection () =
  let r = Route.through (Route.through (Route.originate 1 (p "224.0.0.0/16")) 2) 3 in
  check Alcotest.bool "loop via path" true (Route.contains_loop r 2);
  check Alcotest.bool "loop via origin" true (Route.contains_loop r 1);
  check Alcotest.bool "no loop" false (Route.contains_loop r 9)

let test_route_next_hop () =
  let r = Route.originate 1 (p "224.0.0.0/16") in
  check (Alcotest.option Alcotest.int) "self-originated has no next hop" None (Route.next_hop r);
  check (Alcotest.option Alcotest.int) "learned next hop" (Some 7) (Route.next_hop (Route.through r 7))

(* --- A small BGP network harness -------------------------------------- *)

let line_network n =
  (* 0 -P- 1 -P- 2 ... provider chain, 0 at the top. *)
  let topo = Topo_fixtures.line ~n in
  let engine = Engine.create () in
  let net = Bgp_network.create ~engine ~topo () in
  (topo, engine, net)

let test_propagation_line () =
  let _, _, net = line_network 4 in
  Bgp_network.originate net 0 (p "224.0.0.0/16");
  Bgp_network.converge net;
  for d = 0 to 3 do
    match Speaker.lookup (Bgp_network.speaker net d) (Ipv4.of_string "224.0.1.1") with
    | Some r ->
        check Alcotest.int (Printf.sprintf "origin at %d" d) 0 r.Route.origin;
        check Alcotest.int (Printf.sprintf "path length at %d" d) d (Route.path_length r)
    | None -> Alcotest.fail (Printf.sprintf "domain %d has no route" d)
  done

let test_next_hop_to_root () =
  let _, _, net = line_network 3 in
  Bgp_network.originate net 0 (p "224.0.0.0/16");
  Bgp_network.converge net;
  let g = Ipv4.of_string "224.0.0.1" in
  check (Alcotest.option Alcotest.int) "at root" None
    (Views.next_hop_to_root (Bgp_network.speaker net 0) g);
  check (Alcotest.option Alcotest.int) "one hop" (Some 0)
    (Views.next_hop_to_root (Bgp_network.speaker net 1) g);
  check (Alcotest.option Alcotest.int) "two hops" (Some 1)
    (Views.next_hop_to_root (Bgp_network.speaker net 2) g)

let test_withdraw_propagates () =
  let _, _, net = line_network 3 in
  Bgp_network.originate net 0 (p "224.0.0.0/16");
  Bgp_network.converge net;
  Bgp_network.withdraw net 0 (p "224.0.0.0/16");
  Bgp_network.converge net;
  for d = 0 to 2 do
    check Alcotest.bool (Printf.sprintf "gone at %d" d) true
      (Speaker.lookup (Bgp_network.speaker net d) (Ipv4.of_string "224.0.0.1") = None)
  done

let test_gao_rexford_policy () =
  (* Two providers P1, P2 over one customer C; a prefix originated by P1
     must NOT be exported by C to P2 (customers give no transit). *)
  let topo = Topo.create () in
  let p1 = Topo.add_domain topo ~name:"P1" ~kind:Domain.Backbone in
  let p2 = Topo.add_domain topo ~name:"P2" ~kind:Domain.Backbone in
  let c = Topo.add_domain topo ~name:"C" ~kind:Domain.Stub in
  Topo.add_link topo p1 c Topo.Provider_customer;
  Topo.add_link topo p2 c Topo.Provider_customer;
  let engine = Engine.create () in
  let net = Bgp_network.create ~engine ~topo () in
  Bgp_network.originate net p1 (p "224.0.0.0/16");
  Bgp_network.converge net;
  check Alcotest.bool "customer has the route" true
    (Speaker.lookup (Bgp_network.speaker net c) (Ipv4.of_string "224.0.0.1") <> None);
  check Alcotest.bool "other provider does not (no valley)" true
    (Speaker.lookup (Bgp_network.speaker net p2) (Ipv4.of_string "224.0.0.1") = None)

let test_peer_routes_not_transited () =
  (* Peers exchange their own routes but do not give each other transit
     to a third peer. P1 -peer- P2 -peer- P3 in a line. *)
  let topo = Topo.create () in
  let p1 = Topo.add_domain topo ~name:"P1" ~kind:Domain.Backbone in
  let p2 = Topo.add_domain topo ~name:"P2" ~kind:Domain.Backbone in
  let p3 = Topo.add_domain topo ~name:"P3" ~kind:Domain.Backbone in
  Topo.add_link topo p1 p2 Topo.Peer;
  Topo.add_link topo p2 p3 Topo.Peer;
  let engine = Engine.create () in
  let net = Bgp_network.create ~engine ~topo () in
  Bgp_network.originate net p1 (p "224.0.0.0/16");
  Bgp_network.converge net;
  check Alcotest.bool "direct peer hears it" true
    (Speaker.lookup (Bgp_network.speaker net p2) (Ipv4.of_string "224.0.0.1") <> None);
  check Alcotest.bool "peer of peer does not" true
    (Speaker.lookup (Bgp_network.speaker net p3) (Ipv4.of_string "224.0.0.1") = None)

let test_customer_routes_go_everywhere () =
  (* Provider must export customer routes to peers and other customers. *)
  let topo = Topo.create () in
  let prov = Topo.add_domain topo ~name:"P" ~kind:Domain.Backbone in
  let peer = Topo.add_domain topo ~name:"Q" ~kind:Domain.Backbone in
  let c1 = Topo.add_domain topo ~name:"C1" ~kind:Domain.Stub in
  let c2 = Topo.add_domain topo ~name:"C2" ~kind:Domain.Stub in
  Topo.add_link topo prov peer Topo.Peer;
  Topo.add_link topo prov c1 Topo.Provider_customer;
  Topo.add_link topo prov c2 Topo.Provider_customer;
  let engine = Engine.create () in
  let net = Bgp_network.create ~engine ~topo () in
  Bgp_network.originate net c1 (p "224.1.0.0/16");
  Bgp_network.converge net;
  let g = Ipv4.of_string "224.1.2.3" in
  check Alcotest.bool "peer hears customer route" true
    (Speaker.lookup (Bgp_network.speaker net peer) g <> None);
  check Alcotest.bool "sibling customer hears it" true
    (Speaker.lookup (Bgp_network.speaker net c2) g <> None)

let test_aggregation_suppresses_specifics () =
  (* §4.3.2: the parent's covering route makes the child's more-specific
     route invisible beyond the parent. A(top) - B - C chain where B
     claims from A's space. *)
  let _, _, net = line_network 3 in
  Bgp_network.originate net 0 (p "224.0.0.0/16");
  Bgp_network.originate net 1 (p "224.0.128.0/24");
  Bgp_network.converge net;
  (* Domain 0 (the parent? here 0 is the top): it originates the /16; it
     hears B's /24. 0's own G-RIB has both. *)
  check Alcotest.int "top sees both routes" 2 (Speaker.grib_size (Bgp_network.speaker net 0));
  (* Domain 2 is a customer of 1: it hears 1's /24 (self-originated) and
     the /16 (learned from 0 via 1 — 1 exports its provider's route to
     its customer). *)
  check Alcotest.bool "customer of B sees the /24" true
    (List.mem_assoc (p "224.0.128.0/24") (Speaker.best_routes (Bgp_network.speaker net 2)));
  (* Now check suppression in the other direction: make a sibling of B
     under the top — it must NOT see B's /24 (covered by the /16 the top
     originates), only the aggregate. *)
  let topo = Topo.create () in
  let a = Topo.add_domain topo ~name:"A" ~kind:Domain.Backbone in
  let b = Topo.add_domain topo ~name:"B" ~kind:Domain.Regional in
  let s = Topo.add_domain topo ~name:"S" ~kind:Domain.Regional in
  Topo.add_link topo a b Topo.Provider_customer;
  Topo.add_link topo a s Topo.Provider_customer;
  let engine = Engine.create () in
  let net2 = Bgp_network.create ~engine ~topo () in
  Bgp_network.originate net2 a (p "224.0.0.0/16");
  Bgp_network.originate net2 b (p "224.0.128.0/24");
  Bgp_network.converge net2;
  let s_routes = Speaker.best_routes (Bgp_network.speaker net2 s) in
  check Alcotest.bool "sibling sees aggregate" true (List.mem_assoc (p "224.0.0.0/16") s_routes);
  check Alcotest.bool "sibling does not see the specific" false
    (List.mem_assoc (p "224.0.128.0/24") s_routes);
  (* Yet longest-match from the sibling still routes toward A, which
     holds the more-specific route toward B: two-stage forwarding of
     §4.2. *)
  check (Alcotest.option Alcotest.int) "sibling forwards to A" (Some a)
    (Views.next_hop_to_root (Bgp_network.speaker net2 s) (Ipv4.of_string "224.0.128.9"));
  check (Alcotest.option Alcotest.int) "A forwards into B" (Some b)
    (Views.next_hop_to_root (Bgp_network.speaker net2 a) (Ipv4.of_string "224.0.128.9"))

let test_custom_export_filter () =
  (* Multicast policy via selective propagation (§4.2): A filters the
     route toward one peer. *)
  let topo = Topo.create () in
  let a = Topo.add_domain topo ~name:"A" ~kind:Domain.Backbone in
  let b = Topo.add_domain topo ~name:"B" ~kind:Domain.Stub in
  let c = Topo.add_domain topo ~name:"C" ~kind:Domain.Stub in
  Topo.add_link topo a b Topo.Provider_customer;
  Topo.add_link topo a c Topo.Provider_customer;
  let engine = Engine.create () in
  let net = Bgp_network.create ~engine ~topo () in
  Speaker.set_export_filter (Bgp_network.speaker net a) (fun ~dst _route -> dst <> c);
  Bgp_network.originate net a (p "224.0.0.0/16");
  Bgp_network.converge net;
  check Alcotest.bool "B hears the route" true
    (Speaker.lookup (Bgp_network.speaker net b) (Ipv4.of_string "224.0.0.1") <> None);
  check Alcotest.bool "C is filtered" true
    (Speaker.lookup (Bgp_network.speaker net c) (Ipv4.of_string "224.0.0.1") = None)

let test_best_path_selection_in_mesh () =
  (* A square: 0-1, 1-3, 0-2, 2-3 (all peers won't propagate; use
     provider links downward from 0). 3 should pick a 2-hop path. *)
  let topo = Topo.create () in
  let d0 = Topo.add_domain topo ~name:"0" ~kind:Domain.Backbone in
  let d1 = Topo.add_domain topo ~name:"1" ~kind:Domain.Regional in
  let d2 = Topo.add_domain topo ~name:"2" ~kind:Domain.Regional in
  let d3 = Topo.add_domain topo ~name:"3" ~kind:Domain.Stub in
  Topo.add_link topo d0 d1 Topo.Provider_customer;
  Topo.add_link topo d0 d2 Topo.Provider_customer;
  Topo.add_link topo d1 d3 Topo.Provider_customer;
  Topo.add_link topo d2 d3 Topo.Provider_customer;
  let engine = Engine.create () in
  let net = Bgp_network.create ~engine ~topo () in
  Bgp_network.originate net d0 (p "224.0.0.0/16");
  Bgp_network.converge net;
  match Speaker.lookup (Bgp_network.speaker net d3) (Ipv4.of_string "224.0.0.1") with
  | Some r ->
      check Alcotest.int "two-hop path" 2 (Route.path_length r);
      (* Deterministic tie-break: lower first-hop id wins. *)
      check (Alcotest.option Alcotest.int) "tie-break to lower id" (Some d1) (Route.next_hop r)
  | None -> Alcotest.fail "no route at 3"

let test_grib_sizes () =
  let _, _, net = line_network 3 in
  Bgp_network.originate net 0 (p "224.0.0.0/16");
  Bgp_network.originate net 1 (p "225.0.0.0/16");
  Bgp_network.converge net;
  let size d = Speaker.grib_size (Bgp_network.speaker net d) in
  check Alcotest.int "domain 0" 2 (size 0);
  check Alcotest.int "domain 2" 2 (size 2)

let test_reorigination_idempotent () =
  let topo = Topo_fixtures.line ~n:2 in
  let engine = Engine.create () in
  let links = Net.create ~engine () in
  let net = Bgp_network.create ~engine ~net:links ~topo () in
  let updates () = Net.delivered links ~protocol:"bgp" in
  Bgp_network.originate net 0 (p "224.0.0.0/16");
  Bgp_network.converge net;
  let before = updates () in
  Bgp_network.originate net 0 (p "224.0.0.0/16");
  Bgp_network.converge net;
  check Alcotest.int "no extra updates" before (updates ())

let prop_converged_next_hops_reach_origin =
  (* On random provider trees, following next hops from any domain
     reaches the route's origin. *)
  QCheck.Test.make ~name:"G-RIB next hops lead to the root domain" ~count:30
    QCheck.(int_range 1 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let topo = Gen.transit_stub ~rng ~backbones:2 ~regionals_per_backbone:2 ~stubs_per_regional:2 in
      let engine = Engine.create () in
      let net = Bgp_network.create ~engine ~topo () in
      let origin = Rng.int rng (Topo.domain_count topo) in
      Bgp_network.originate net origin (p "224.0.0.0/16");
      Bgp_network.converge net;
      let g = Ipv4.of_string "224.0.0.1" in
      let ok = ref true in
      for d = 0 to Topo.domain_count topo - 1 do
        let rec follow node steps =
          if steps > Topo.domain_count topo then false
          else if node = origin then true
          else
            match Views.next_hop_to_root (Bgp_network.speaker net node) g with
            | Some nxt -> follow nxt (steps + 1)
            | None -> false
        in
        (* Policy may legitimately hide the route from some domains; only
           check domains that have it. *)
        if Speaker.lookup (Bgp_network.speaker net d) g <> None then
          if not (follow d 0) then ok := false
      done;
      !ok)

let _ = prefix_testable

let suite =
  [
    ("route prefer shortest path", `Quick, test_route_prefer_shortest_path);
    ("route loop detection", `Quick, test_route_loop_detection);
    ("route next hop", `Quick, test_route_next_hop);
    ("propagation along a line", `Quick, test_propagation_line);
    ("next hop to root", `Quick, test_next_hop_to_root);
    ("withdraw propagates", `Quick, test_withdraw_propagates);
    ("gao-rexford policy", `Quick, test_gao_rexford_policy);
    ("peer routes not transited", `Quick, test_peer_routes_not_transited);
    ("customer routes go everywhere", `Quick, test_customer_routes_go_everywhere);
    ("aggregation suppresses specifics", `Quick, test_aggregation_suppresses_specifics);
    ("custom export filter", `Quick, test_custom_export_filter);
    ("best path selection in mesh", `Quick, test_best_path_selection_in_mesh);
    ("grib sizes", `Quick, test_grib_sizes);
    ("re-origination idempotent", `Quick, test_reorigination_idempotent);
    QCheck_alcotest.to_alcotest prop_converged_next_hops_reach_origin;
  ]
