(* Tests for mcast_topo: the domain graph, shortest paths, generators. *)

let check = Alcotest.check

let test_build_and_accessors () =
  let t = Topo.create () in
  let a = Topo.add_domain t ~name:"A" ~kind:Domain.Backbone in
  let b = Topo.add_domain t ~name:"B" ~kind:Domain.Regional in
  let c = Topo.add_domain t ~name:"C" ~kind:Domain.Stub in
  Topo.add_link t a b Topo.Provider_customer;
  Topo.add_link t b c Topo.Provider_customer;
  check Alcotest.int "domain count" 3 (Topo.domain_count t);
  check Alcotest.int "link count" 2 (Topo.link_count t);
  check Alcotest.string "name" "B" (Topo.domain t b).Domain.name;
  check (Alcotest.option Alcotest.int) "find by name" (Some b) (Topo.find_by_name t "B");
  check (Alcotest.list Alcotest.int) "neighbors of b" [ a; c ] (Topo_fixtures.neighbors t b);
  check Alcotest.int "degree" 2 (Topo.degree t b);
  check (Alcotest.list Alcotest.int) "providers of b" [ a ] (Topo.providers_of t b);
  check (Alcotest.list Alcotest.int) "customers of b" [ c ] (Topo_fixtures.customers_of t b);
  check (Alcotest.list Alcotest.int) "peers of b" [] (Topo_fixtures.peers_of t b);
  check Alcotest.bool "connected" true (Topo_fixtures.is_connected t)

let test_rejects_bad_links () =
  let t = Topo.create () in
  let a = Topo.add_domain t ~name:"A" ~kind:Domain.Stub in
  let b = Topo.add_domain t ~name:"B" ~kind:Domain.Stub in
  Topo.add_link t a b Topo.Peer;
  Alcotest.check_raises "self link" (Invalid_argument "Topo.add_link: self-link") (fun () ->
      Topo.add_link t a a Topo.Peer);
  Alcotest.check_raises "duplicate link" (Invalid_argument "Topo.add_link: duplicate link")
    (fun () -> Topo.add_link t b a Topo.Peer)

let test_disconnected_detected () =
  let t = Topo.create () in
  ignore (Topo.add_domain t ~name:"A" ~kind:Domain.Stub);
  ignore (Topo.add_domain t ~name:"B" ~kind:Domain.Stub);
  check Alcotest.bool "disconnected" false (Topo_fixtures.is_connected t)

(* --- Spf ------------------------------------------------------------- *)

let test_bfs_line () =
  let t = Topo_fixtures.line ~n:5 in
  let paths = Spf.bfs t 0 in
  check Alcotest.int "dist to end" 4 (Spf.dist paths 4);
  check (Alcotest.list Alcotest.int) "path" [ 0; 1; 2; 3; 4 ] (Topo_fixtures.path paths 4);
  check (Alcotest.option Alcotest.int) "next hop toward src" (Some 1) (Spf.next_hop_toward t paths 2);
  check (Alcotest.option Alcotest.int) "next hop at src" None (Spf.next_hop_toward t paths 0)

let test_bfs_unreachable () =
  let t = Topo.create () in
  let a = Topo.add_domain t ~name:"A" ~kind:Domain.Stub in
  let b = Topo.add_domain t ~name:"B" ~kind:Domain.Stub in
  let paths = Spf.bfs t a in
  check Alcotest.int "unreachable" max_int (Spf.dist paths b);
  check (Alcotest.list Alcotest.int) "empty path" [] (Topo_fixtures.path paths b)

(* --- Generators ------------------------------------------------------ *)

let test_power_law_shape () =
  let rng = Rng.create 1 in
  let t = Gen.power_law ~rng ~n:500 ~m:2 in
  check Alcotest.int "node count" 500 (Topo.domain_count t);
  check Alcotest.bool "connected" true (Topo_fixtures.is_connected t);
  (* Preferential attachment: expect a heavy tail — some node much
     better connected than the median. *)
  let degrees = List.map (fun d -> Topo.degree t d.Domain.id) (Topo.domains t) in
  let max_deg = List.fold_left max 0 degrees in
  check Alcotest.bool "hub exists" true (max_deg > 20);
  check Alcotest.bool "deterministic given seed" true
    (Topo.link_count t = Topo.link_count (Gen.power_law ~rng:(Rng.create 1) ~n:500 ~m:2))

let test_power_law_rejects_bad_params () =
  Alcotest.check_raises "n <= m" (Invalid_argument "Gen.power_law: need n > m >= 1") (fun () ->
      ignore (Gen.power_law ~rng:(Rng.create 1) ~n:2 ~m:2))

let test_transit_stub_shape () =
  let rng = Rng.create 2 in
  let t = Gen.transit_stub ~rng ~backbones:3 ~regionals_per_backbone:4 ~stubs_per_regional:5 in
  check Alcotest.int "node count" (3 + (3 * 4) + (3 * 4 * 5)) (Topo.domain_count t);
  check Alcotest.bool "connected" true (Topo_fixtures.is_connected t);
  let backbones = List.filter (fun d -> d.Domain.kind = Domain.Backbone) (Topo.domains t) in
  check Alcotest.int "backbones" 3 (List.length backbones)

let test_masc_hierarchy_shape () =
  let t = Gen.masc_hierarchy ~tops:4 ~children_per_top:3 in
  check Alcotest.int "node count" 16 (Topo.domain_count t);
  (* tops fully meshed: 6 peer links; 12 provider links *)
  check Alcotest.int "links" (6 + 12) (Topo.link_count t);
  let tops = List.filter (fun d -> d.Domain.kind = Domain.Backbone) (Topo.domains t) in
  List.iter
    (fun d -> check Alcotest.int "3 customers each" 3 (List.length (Topo_fixtures.customers_of t d.Domain.id)))
    tops

let test_figure1_figure3 () =
  let f1 = Gen.figure1 () in
  check Alcotest.int "figure1 domains" 7 (Topo.domain_count f1);
  check Alcotest.bool "figure1 connected" true (Topo_fixtures.is_connected f1);
  let f3 = Gen.figure3 () in
  check Alcotest.int "figure3 domains" 8 (Topo.domain_count f3);
  check (Alcotest.option Alcotest.int) "H exists" (Some 7) (Topo.find_by_name f3 "H");
  (* B is a customer of A in both. *)
  let a = Option.get (Topo.find_by_name f1 "A") and b = Option.get (Topo.find_by_name f1 "B") in
  check Alcotest.bool "A provides B" true (List.mem b (Topo_fixtures.customers_of f1 a))

let test_star () =
  let t = Topo_fixtures.star ~n:6 in
  check Alcotest.int "nodes" 6 (Topo.domain_count t);
  check Alcotest.int "hub degree" 5 (Topo.degree t 0);
  check Alcotest.int "customers of hub" 5 (List.length (Topo_fixtures.customers_of t 0))

(* --- Host_ref --------------------------------------------------------- *)

let test_host_ref () =
  let h1 = Host_ref.make 3 0 and h2 = Host_ref.make 3 1 and h1' = Host_ref.make 3 0 in
  check Alcotest.bool "equal" true (Host_ref.equal h1 h1');
  check Alcotest.bool "not equal" false (Host_ref.equal h1 h2);
  check Alcotest.bool "ordered" true (Host_ref.compare h1 h2 < 0)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"bfs satisfies triangle inequality over edges" ~count:50
    QCheck.(int_range 1 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let t = Gen.power_law ~rng ~n:60 ~m:2 in
      let paths = Spf.bfs t 0 in
      List.for_all
        (fun (l : Topo.link) ->
          let da = Spf.dist paths l.Topo.a and db = Spf.dist paths l.Topo.b in
          abs (da - db) <= 1)
        (Topo.links t))

let prop_path_endpoints_and_length =
  QCheck.Test.make ~name:"bfs path endpoints and length are consistent" ~count:50
    QCheck.(pair (int_range 1 10000) (int_range 0 59))
    (fun (seed, dst) ->
      let rng = Rng.create seed in
      let t = Gen.power_law ~rng ~n:60 ~m:2 in
      let paths = Spf.bfs t 0 in
      match Topo_fixtures.path paths dst with
      | [] -> dst <> 0 && Spf.dist paths dst = max_int
      | path ->
          List.hd path = 0
          && List.nth path (List.length path - 1) = dst
          && List.length path = Spf.dist paths dst + 1)

let suite =
  [
    ("build and accessors", `Quick, test_build_and_accessors);
    ("rejects bad links", `Quick, test_rejects_bad_links);
    ("disconnected detected", `Quick, test_disconnected_detected);
    ("bfs line", `Quick, test_bfs_line);
    ("bfs unreachable", `Quick, test_bfs_unreachable);
    ("power law shape", `Quick, test_power_law_shape);
    ("power law rejects bad params", `Quick, test_power_law_rejects_bad_params);
    ("transit stub shape", `Quick, test_transit_stub_shape);
    ("masc hierarchy shape", `Quick, test_masc_hierarchy_shape);
    ("figure1/figure3", `Quick, test_figure1_figure3);
    ("star", `Quick, test_star);
    ("host ref", `Quick, test_host_ref);
    QCheck_alcotest.to_alcotest prop_bfs_triangle_inequality;
    QCheck_alcotest.to_alcotest prop_path_endpoints_and_length;
  ]
