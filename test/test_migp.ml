(* Tests for mcast_migp: the behavioural MIGP component. *)

let check = Alcotest.check

let g = Ipv4.of_string "224.1.2.3"

let g2 = Ipv4.of_string "225.0.0.1"

let test_styles () =
  check Alcotest.bool "dvmrp strict rpf" true (Migp.strict_rpf Migp.Dvmrp);
  check Alcotest.bool "pim-dm strict rpf" true (Migp.strict_rpf Migp.Pim_dm);
  check Alcotest.bool "pim-sm relaxed rpf" false (Migp.strict_rpf Migp.Pim_sm);
  check Alcotest.bool "cbt relaxed rpf" false (Migp.strict_rpf Migp.Cbt)

let test_membership_and_dwr () =
  let m = Migp.create Migp.Dvmrp ~domain:3 in
  let events = ref [] in
  Migp.set_on_group_active m (fun ~group ~active -> events := (group, active) :: !events);
  let h0 = Host_ref.make 3 0 and h1 = Host_ref.make 3 1 in
  Migp.host_join m ~group:g ~host:h0;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool)) "first join fires DWR"
    [ (g, true) ] (List.rev !events);
  Migp.host_join m ~group:g ~host:h1;
  check Alcotest.int "no extra DWR on second join" 1 (List.length !events);
  check Alcotest.int "two members" 2 (List.length (Migp.members m ~group:g));
  Migp.host_leave m ~group:g ~host:h0;
  check Alcotest.int "still active" 1 (List.length !events);
  Migp.host_leave m ~group:g ~host:h1;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool)) "last leave fires DWR"
    [ (g, true); (g, false) ] (List.rev !events);
  check Alcotest.bool "no members" false (Migp.has_members m ~group:g)

let test_membership_errors () =
  let m = Migp.create Migp.Pim_sm ~domain:3 in
  let h = Host_ref.make 3 0 in
  Alcotest.check_raises "wrong domain" (Invalid_argument "Migp.host_join: host not in this domain")
    (fun () -> Migp.host_join m ~group:g ~host:(Host_ref.make 4 0));
  Migp.host_join m ~group:g ~host:h;
  Alcotest.check_raises "double join" (Invalid_argument "Migp.host_join: already a member")
    (fun () -> Migp.host_join m ~group:g ~host:h);
  Alcotest.check_raises "leave non-member" (Invalid_argument "Migp.host_leave: not a member")
    (fun () -> Migp.host_leave m ~group:g2 ~host:h)

let test_groups_listing () =
  let m = Migp.create Migp.Cbt ~domain:1 in
  Migp.host_join m ~group:g ~host:(Host_ref.make 1 0);
  Migp.host_join m ~group:g2 ~host:(Host_ref.make 1 1);
  let groups = ref [] in
  Migp.iter_groups m (fun group _ -> groups := group :: !groups);
  check Alcotest.int "two active groups" 2 (List.length !groups);
  check Alcotest.bool "lists both" true (List.mem g !groups && List.mem g2 !groups)

let test_counters () =
  let m = Migp.create Migp.Dvmrp ~domain:0 in
  Migp.note_encapsulation m;
  check Alcotest.int "encaps" 1 (Migp.encapsulations m)

let test_member_join_order () =
  let m = Migp.create Migp.Pim_sm ~domain:2 in
  let hosts = List.init 5 (Host_ref.make 2) in
  List.iter (fun h -> Migp.host_join m ~group:g ~host:h) hosts;
  check Alcotest.bool "members in join order" true (Migp.members m ~group:g = hosts)

let suite =
  [
    ("styles", `Quick, test_styles);
    ("membership and DWR", `Quick, test_membership_and_dwr);
    ("membership errors", `Quick, test_membership_errors);
    ("groups listing", `Quick, test_groups_listing);
    ("counters", `Quick, test_counters);
    ("member join order", `Quick, test_member_join_order);
  ]
