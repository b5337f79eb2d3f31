(* Tests for the workload generators and the library-level scenarios. *)

let check = Alcotest.check

(* --- Membership ------------------------------------------------------- *)

let test_membership_beacon_plan () =
  (* The dbeacon deployment shape is index-deterministic: per_domain
     hosts per domain plus host 0 of every domain on the session. *)
  let topo = Gen.figure3 () in
  let n = Topo.domain_count topo in
  let plan = Membership.beacon_plan topo ~per_domain:3 in
  check Alcotest.int "one fleet per domain" n (List.length plan.Membership.local_fleets);
  check Alcotest.int "one session beacon per domain" n
    (List.length plan.Membership.session_beacons);
  List.iter
    (fun (d, fleet) ->
      check Alcotest.int "fleet size" 3 (List.length fleet);
      List.iteri
        (fun i host ->
          check Alcotest.int "fleet host domain" d host.Host_ref.host_domain;
          check Alcotest.int "fleet host index" i host.Host_ref.host_index)
        fleet)
    plan.Membership.local_fleets;
  List.iter
    (fun host -> check Alcotest.int "session beacon is host 0" 0 host.Host_ref.host_index)
    plan.Membership.session_beacons;
  (* Determinism: two plans are structurally identical. *)
  check Alcotest.bool "deterministic" true
    (plan = Membership.beacon_plan topo ~per_domain:3)

(* --- Scenario ----------------------------------------------------------- *)

let test_scenario_figure1 () =
  let s = Scenario_fixtures.figure1 () in
  let topo = Internet.topo s.Scenario_fixtures.inet in
  let b = Option.get (Topo.find_by_name topo "B") in
  check Alcotest.int "rooted at B" b s.Scenario_fixtures.root;
  check Alcotest.int "four members" 4 (List.length s.Scenario_fixtures.members);
  let e = Option.get (Topo.find_by_name topo "E") in
  let deliveries = Scenario_fixtures.send s ~source:(Host_ref.make e 0) in
  check Alcotest.int "all members received" 4 (List.length deliveries)

let test_scenario_figure3_branch () =
  let w = Scenario.figure3 () in
  check Alcotest.bool "branch shortens F's path from 3 to 2 hops" true
    (Scenario_fixtures.figure3_branch_demo w ~before:[ 3 ] ~after:[ 2 ]);
  (* All five member domains appear in the deliveries of the second
     packet. *)
  let p = Bgmp_fabric.send w.Scenario.fabric ~source:(Host_ref.make 4 (* E *) 0)
      ~group:w.Scenario.walkthrough_group in
  Engine.run_until_idle w.Scenario.engine;
  check Alcotest.int "five member domains" 5
    (List.length (Scenario_fixtures.deliveries_by_domain w ~payload:p))

let test_scenario_figure3_pim_sm () =
  (* With a non-strict-RPF MIGP everywhere, no branch forms and F stays
     at 3 hops on both packets. *)
  let walkthrough_topo = Gen.figure3 () in
  let engine, fabric =
    Test_bgmp.make_fabric ~migp_style:(fun _ -> Migp.Pim_sm) ~root_name:"B" walkthrough_topo
  in
  Test_bgmp.join_all walkthrough_topo fabric [ "B"; "C"; "D"; "F"; "H" ];
  Engine.run_until_idle engine;
  let w = { Scenario.engine; walkthrough_topo; fabric; walkthrough_group = Test_bgmp.g } in
  check Alcotest.bool "no branch under PIM-SM" true
    (Scenario_fixtures.figure3_branch_demo w ~before:[ 3 ] ~after:[ 3 ])

(* The churn stream's array form, for the tests only: one record per
   event, collected from [Membership.iter_group_churn].  Each join's
   receipt is its own [seq], so a leave's [join_ref] is the receipt the
   stream handed back: the [seq] of the join it cancels ([-1] on a
   join). *)
type group_event = { seq : int; group : int; node : Domain.id; join : bool; join_ref : int }

let group_churn ~seed ~shard ~domains ~groups ~events () =
  let out = ref [] in
  Membership.iter_group_churn ~seed ~shard ~domains ~groups ~events
    ~join:(fun seq group node ->
      out := { seq; group; node; join = true; join_ref = -1 } :: !out;
      seq)
    ~leave:(fun seq group node receipt ->
      out := { seq; group; node; join = false; join_ref = receipt } :: !out);
  Array.of_list (List.rev !out)

let test_group_churn_deterministic () =
  let gen shard = group_churn ~seed:424242 ~shard ~domains:500 ~groups:40 ~events:2000 () in
  let a = gen 3 and b = gen 3 in
  Alcotest.(check int) "same length" (Array.length a) (Array.length b);
  Array.iteri
    (fun i ev ->
      let ev' = b.(i) in
      Alcotest.(check bool) "same event" true
        (ev.seq = ev'.seq && ev.group = ev'.group && ev.node = ev'.node && ev.join = ev'.join
        && ev.join_ref = ev'.join_ref))
    a

let test_group_churn_shards_disjoint () =
  (* Shard s draws group ids only from its own block, so parallel
     trials mutate disjoint (group, router) state at any job count. *)
  let groups = 40 in
  List.iter
    (fun shard ->
      let evs = group_churn ~seed:7 ~shard ~domains:300 ~groups ~events:1500 () in
      Array.iter
        (fun ev ->
          if ev.group < shard * groups || ev.group >= (shard + 1) * groups then
            Alcotest.failf "shard %d drew group %d outside its block" shard ev.group)
        evs)
    [ 0; 1; 2; 5 ];
  (* And different shards draw genuinely different streams. *)
  let a = group_churn ~seed:7 ~shard:0 ~domains:300 ~groups ~events:1500 () in
  let b = group_churn ~seed:7 ~shard:1 ~domains:300 ~groups ~events:1500 () in
  let same = ref true in
  Array.iteri
    (fun i ev ->
      if ev.node <> b.(i).node || ev.join <> b.(i).join then same := false)
    a;
  Alcotest.(check bool) "shards are independent streams" false !same

let test_group_churn_leaves_reference_live_joins () =
  let evs = group_churn ~seed:99 ~shard:2 ~domains:200 ~groups:25 ~events:3000 () in
  let live = Hashtbl.create 256 in
  Array.iter
    (fun ev ->
      if ev.join then begin
        Alcotest.(check int) "joins carry no back-reference" (-1) ev.join_ref;
        Hashtbl.replace live ev.seq ev
      end
      else begin
        match Hashtbl.find_opt live ev.join_ref with
        | None ->
            Alcotest.failf "leave %d references %d, which is not a live join" ev.seq ev.join_ref
        | Some j ->
            Alcotest.(check int) "leave cancels the join's group" j.group ev.group;
            Alcotest.(check int) "leave cancels the join's member" j.node ev.node;
            Hashtbl.remove live ev.join_ref
      end)
    evs;
  (* Some churn actually happened. *)
  let leaves = Array.fold_left (fun n ev -> if ev.join then n else n + 1) 0 evs in
  Alcotest.(check bool) "stream contains leaves" true (leaves > 0)

let test_group_churn_collector_matches_stream () =
  (* The collector is a plain fold over the stream: consuming the
     events one by one, as fig4-modern does, sees the same sequence. *)
  let seed = 1998 and shard = 1 and domains = 400 and groups = 30 and events = 2500 in
  let collected = group_churn ~seed ~shard ~domains ~groups ~events () in
  let count = ref 0 in
  let event seq group node join_ref =
    Alcotest.(check int) "events arrive in order" !count seq;
    let ev = collected.(seq) in
    Alcotest.(check (list int)) (Printf.sprintf "event %d" seq)
      [ ev.seq; ev.group; ev.node; ev.join_ref ]
      [ seq; group; node; join_ref ];
    incr count
  in
  Membership.iter_group_churn ~seed ~shard ~domains ~groups ~events
    ~join:(fun seq group node ->
      event seq group node (-1);
      seq)
    ~leave:event;
  Alcotest.(check int) "same length" (Array.length collected) !count;
  Alcotest.(check int) "every event streamed" events !count

let suite =
  [
    ("membership beacon plan", `Quick, test_membership_beacon_plan);
    ("group churn deterministic", `Quick, test_group_churn_deterministic);
    ("group churn shards disjoint", `Quick, test_group_churn_shards_disjoint);
    ("group churn leaves reference live joins", `Quick, test_group_churn_leaves_reference_live_joins);
    ("group churn collector matches stream", `Quick, test_group_churn_collector_matches_stream);
    ("scenario figure1", `Quick, test_scenario_figure1);
    ("scenario figure3 branch", `Quick, test_scenario_figure3_branch);
    ("scenario figure3 under pim-sm", `Quick, test_scenario_figure3_pim_sm);
  ]
