(* Tests for tree repair after G-RIB changes (route withdrawals, path
   moves, MASC renumbering). *)

let check = Alcotest.check

let g = Ipv4.of_string "224.7.0.1"

let test_fabric_rebuild_moves_path () =
  (* Square: 0-1, 0-2, 1-3, 2-3.  Root at 0, member at 3.  The route
     from 3 toward 0 initially runs via 1; after a "routing change" it
     runs via 2.  rebuild_group must move the tree. *)
  let topo = Topo.create () in
  let d0 = Topo.add_domain topo ~name:"r" ~kind:Domain.Backbone in
  let d1 = Topo.add_domain topo ~name:"l" ~kind:Domain.Regional in
  let d2 = Topo.add_domain topo ~name:"m" ~kind:Domain.Regional in
  let d3 = Topo.add_domain topo ~name:"s" ~kind:Domain.Stub in
  Topo.add_link topo d0 d1 Topo.Provider_customer;
  Topo.add_link topo d0 d2 Topo.Provider_customer;
  Topo.add_link topo d1 d3 Topo.Provider_customer;
  Topo.add_link topo d2 d3 Topo.Provider_customer;
  let engine = Engine.create () in
  let via = ref d1 in
  let route_to_root d _ =
    if d = d0 then Bgmp_fabric.Root_here
    else if d = d3 then Bgmp_fabric.Via !via
    else Bgmp_fabric.Via d0
  in
  let fabric = Bgmp_fabric.create ~engine ~topo ~route_to_root () in
  Bgmp_fabric.host_join fabric ~host:(Host_ref.make d3 0) ~group:g;
  Engine.run_until_idle engine;
  check Alcotest.bool "tree initially via d1" true
    (List.mem d1 (Bgmp_fabric.tree_domains fabric ~group:g));
  (* The path moves; without repair the tree is stale. *)
  via := d2;
  Bgmp_fabric.rebuild_group fabric ~group:g;
  Engine.run_until_idle engine;
  let tree = Bgmp_fabric.tree_domains fabric ~group:g in
  check Alcotest.bool "tree now via d2" true (List.mem d2 tree);
  check Alcotest.bool "old transit dropped" false (List.mem d1 tree);
  (* Delivery still works over the new path. *)
  let p = Bgmp_fabric.send fabric ~source:(Host_ref.make d0 0) ~group:g in
  Engine.run_until_idle engine;
  (match Bgmp_fabric.deliveries fabric ~payload:p with
  | [ (h, hops) ] ->
      check Alcotest.int "member reached" d3 h.Host_ref.host_domain;
      check Alcotest.int "two hops over the new path" 2 hops
  | other -> Alcotest.failf "expected one delivery, got %d" (List.length other));
  check Alcotest.int "no duplicates" 0 (Bgmp_fabric.duplicate_deliveries fabric)

let test_fabric_rebuild_preserves_members_and_branches () =
  (* Rebuild on the Figure-3 group: same members, fresh tree; the (S,G)
     branches are dropped and re-form on the next packets. *)
  let w = Scenario.figure3 () in
  let before = Scenario_fixtures.deliveries_by_domain w in
  ignore before;
  Bgmp_fabric.rebuild_group w.Scenario.fabric ~group:w.Scenario.walkthrough_group;
  Engine.run_until_idle w.Scenario.engine;
  let e = Option.get (Topo.find_by_name w.Scenario.walkthrough_topo "E") in
  let p =
    Bgmp_fabric.send w.Scenario.fabric ~source:(Host_ref.make e 0)
      ~group:w.Scenario.walkthrough_group
  in
  Engine.run_until_idle w.Scenario.engine;
  check Alcotest.int "all five members after rebuild" 5
    (List.length (Scenario_fixtures.deliveries_by_domain w ~payload:p));
  (* Branch behaviour re-establishes exactly as before. *)
  check Alcotest.bool "branch re-forms after rebuild" true
    (Scenario_fixtures.figure3_branch_demo w ~before:[ 3 ] ~after:[ 2 ])

let test_active_groups_listing () =
  let w = Scenario.figure3 () in
  let groups = ref [] in
  Bgmp_fabric.iter_active_groups w.Scenario.fabric (fun g -> groups := g :: !groups);
  check (Alcotest.list Alcotest.int) "one active group" [ w.Scenario.walkthrough_group ]
    (List.rev !groups)

let test_integrated_root_migration_on_withdraw () =
  (* The paper's aggregation fallback as a failure-recovery path: when
     the root domain's specific route disappears (here: forced
     withdrawal, as after a MASC renumbering), longest-match falls back
     to the parent's aggregate — the tree re-roots at the parent and
     delivery continues. *)
  let s = Scenario_fixtures.figure1 () in
  let inet = s.Scenario_fixtures.inet in
  let topo = Internet.topo inet in
  let dom name = Option.get (Topo.find_by_name topo name) in
  check Alcotest.int "initially rooted at B" (dom "B") s.Scenario_fixtures.root;
  (* Sanity: delivery works before. *)
  let d1 = Scenario_fixtures.send s ~source:(Host_ref.make (dom "E") 0) in
  check Alcotest.int "four deliveries before" 4 (List.length d1);
  (* Withdraw every specific B originates; the aggregate at A remains. *)
  List.iter
    (fun p -> Bgp_network.withdraw (Internet.bgp inet) (dom "B") p)
    (Views.originated (Internet.speaker inet (dom "B")));
  Internet.run_for inet (Time.minutes 30.0);
  check (Alcotest.option Alcotest.int) "root migrated to A" (Some (dom "A"))
    (Internet.root_domain_of inet s.Scenario_fixtures.group);
  let d2 = Scenario_fixtures.send s ~source:(Host_ref.make (dom "E") 0) in
  check Alcotest.int "four deliveries after migration" 4 (List.length d2);
  check Alcotest.int "no duplicates" 0
    (Bgmp_fabric.duplicate_deliveries (Internet.fabric inet))

let test_integrated_repair_traced_by_doubling () =
  (* MASC doubling replaces B's /24 with a /23 (withdraw + originate):
     the change notification fires and the group keeps working without
     manual intervention. *)
  let s = Scenario_fixtures.figure1 () in
  let inet = s.Scenario_fixtures.inet in
  let topo = Internet.topo inet in
  let dom name = Option.get (Topo.find_by_name topo name) in
  (* Exhaust B's first range so its claim doubles (256 addresses per
     /24). *)
  let got = ref 1 (* the scenario already allocated one *) in
  (try
     for _ = 1 to 400 do
       match Internet.request_address_retry inet (dom "B") ~every:(Time.hours 1.0) ~attempts:1 with
       | Some _ -> incr got
       | None -> raise Exit
     done
   with Exit -> ());
  Internet.run_for inet (Time.hours 2.0);
  (* More allocations must now succeed from the doubled range. *)
  (match Internet.request_address_retry inet (dom "B") ~every:(Time.hours 1.0) ~attempts:1 with
  | Some _ -> ()
  | None -> Alcotest.fail "doubling did not unblock allocation");
  (* And the original group still delivers. *)
  let d = Scenario_fixtures.send s ~source:(Host_ref.make (dom "E") 0) in
  check Alcotest.int "group survives the renumber-free doubling" 4 (List.length d)

let suite =
  [
    ("fabric rebuild moves path", `Quick, test_fabric_rebuild_moves_path);
    ("fabric rebuild preserves members/branches", `Quick, test_fabric_rebuild_preserves_members_and_branches);
    ("active groups listing", `Quick, test_active_groups_listing);
    ("integrated root migration on withdraw", `Quick, test_integrated_root_migration_on_withdraw);
    ("integrated repair under MASC doubling", `Quick, test_integrated_repair_traced_by_doubling);
  ]
