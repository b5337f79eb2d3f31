(* Integration tests for mcast_core: the full MASC + BGP + BGMP stack. *)

let check = Alcotest.check

let setup ?config topo =
  let config = Option.value ~default:Internet.quick_config config in
  let inet = Internet.create ~config topo in
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);
  inet

let dom topo name = Option.get (Topo.find_by_name topo name)

let get_address inet d =
  match Internet.request_address_retry inet d ~every:(Time.hours 1.0) ~attempts:31 with
  | Some a -> a
  | None -> Alcotest.fail "address allocation never succeeded"

let deliveries_names inet topo payload =
  List.sort compare
    (List.map
       (fun (h, _) -> (Topo.domain topo h.Host_ref.host_domain).Domain.name)
       (Internet.deliveries inet ~payload))

let test_root_at_initiator_domain () =
  let topo = Gen.figure1 () in
  let inet = setup topo in
  let b = dom topo "B" in
  let alloc = get_address inet b in
  check Alcotest.bool "address is multicast" true (Prefix.mem alloc.Maas.address Prefix.class_d);
  check (Alcotest.option Alcotest.int) "root domain is the initiator's" (Some b)
    (Internet.root_domain_of inet alloc.Maas.address)

let test_end_to_end_delivery () =
  let topo = Gen.figure1 () in
  let inet = setup topo in
  let b = dom topo "B" in
  let alloc = get_address inet b in
  let g = alloc.Maas.address in
  List.iter
    (fun n -> Internet.join inet ~host:(Host_ref.make (dom topo n) 0) ~group:g)
    [ "C"; "D"; "F"; "G" ];
  Internet.run_for inet (Time.minutes 30.0);
  let p = Internet.send inet ~source:(Host_ref.make (dom topo "E") 1) ~group:g in
  Internet.run_for inet (Time.minutes 10.0);
  check (Alcotest.list Alcotest.string) "all members receive" [ "C"; "D"; "F"; "G" ]
    (deliveries_names inet topo p);
  check Alcotest.int "no duplicates" 0
    (Bgmp_fabric.duplicate_deliveries (Internet.fabric inet))

let test_multiple_groups_different_roots () =
  let topo = Gen.figure1 () in
  let inet = setup topo in
  let b = dom topo "B" and c = dom topo "C" in
  let a1 = get_address inet b in
  let a2 = get_address inet c in
  check Alcotest.bool "distinct addresses" false (Ipv4.equal a1.Maas.address a2.Maas.address);
  check (Alcotest.option Alcotest.int) "first rooted at B" (Some b)
    (Internet.root_domain_of inet a1.Maas.address);
  check (Alcotest.option Alcotest.int) "second rooted at C" (Some c)
    (Internet.root_domain_of inet a2.Maas.address);
  (* Disjoint membership: F on g1, G on g2. *)
  Internet.join inet ~host:(Host_ref.make (dom topo "F") 0) ~group:a1.Maas.address;
  Internet.join inet ~host:(Host_ref.make (dom topo "G") 0) ~group:a2.Maas.address;
  Internet.run_for inet (Time.minutes 30.0);
  let p1 = Internet.send inet ~source:(Host_ref.make (dom topo "D") 0) ~group:a1.Maas.address in
  let p2 = Internet.send inet ~source:(Host_ref.make (dom topo "D") 0) ~group:a2.Maas.address in
  Internet.run_for inet (Time.minutes 10.0);
  check (Alcotest.list Alcotest.string) "g1 reaches F" [ "F" ] (deliveries_names inet topo p1);
  check (Alcotest.list Alcotest.string) "g2 reaches G" [ "G" ] (deliveries_names inet topo p2)

let test_aggregation_visible_in_gribs () =
  (* After B (customer of A) acquires space carved from A's range, the
     peers D/E must carry only A's aggregate — not B's specific. *)
  let topo = Gen.figure1 () in
  let inet = setup topo in
  let b = dom topo "B" in
  ignore (get_address inet b);
  Internet.run_for inet (Time.hours 1.0);
  let b_specifics = Views.originated (Internet.speaker inet b) in
  check Alcotest.bool "B originates a range" true (b_specifics <> []);
  let d_routes = Speaker.best_routes (Internet.speaker inet (dom topo "D")) in
  List.iter
    (fun bp ->
      check Alcotest.bool "B's specific invisible at D" false (List.mem_assoc bp d_routes))
    b_specifics;
  (* Yet D can still route to the group: the aggregate covers it. *)
  (match Speaker.lookup (Internet.speaker inet (dom topo "D")) (Prefix.base (List.hd b_specifics)) with
  | Some r -> check Alcotest.int "aggregate originated by A" (dom topo "A") r.Route.origin
  | None -> Alcotest.fail "no covering aggregate at D")

let test_leave_then_no_delivery () =
  let topo = Gen.figure1 () in
  let inet = setup topo in
  let b = dom topo "B" in
  let alloc = get_address inet b in
  let g = alloc.Maas.address in
  let host = Host_ref.make (dom topo "G") 0 in
  Internet.join inet ~host ~group:g;
  Internet.run_for inet (Time.minutes 30.0);
  let p1 = Internet.send inet ~source:(Host_ref.make (dom topo "E") 0) ~group:g in
  Internet.run_for inet (Time.minutes 10.0);
  check (Alcotest.list Alcotest.string) "delivered while joined" [ "G" ]
    (deliveries_names inet topo p1);
  Internet.leave inet ~host ~group:g;
  Internet.run_for inet (Time.minutes 30.0);
  let p2 = Internet.send inet ~source:(Host_ref.make (dom topo "E") 0) ~group:g in
  Internet.run_for inet (Time.minutes 10.0);
  check (Alcotest.list Alcotest.string) "nothing after leave" [] (deliveries_names inet topo p2)

let test_address_release_and_reuse () =
  let topo = Gen.figure1 () in
  let inet = setup topo in
  let b = dom topo "B" in
  let a1 = get_address inet b in
  Internet.release_address inet b a1;
  let a2 = get_address inet b in
  check Alcotest.bool "released address reused" true (Ipv4.equal a1.Maas.address a2.Maas.address)

let test_many_addresses_unique_across_domains () =
  let topo = Gen.figure1 () in
  let inet = setup topo in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun name ->
      let d = dom topo name in
      for _ = 1 to 10 do
        let a = get_address inet d in
        check Alcotest.bool "globally unique" false (Hashtbl.mem seen a.Maas.address);
        Hashtbl.add seen a.Maas.address name
      done)
    [ "B"; "C"; "F"; "G" ];
  check Alcotest.int "forty addresses" 40 (Hashtbl.length seen)

let test_stack_on_generated_topology () =
  let rng = Rng.create 11 in
  let topo = Gen.transit_stub ~rng ~backbones:2 ~regionals_per_backbone:2 ~stubs_per_regional:2 in
  let inet = setup topo in
  (* Pick a stub domain as initiator. *)
  let stub =
    (List.find (fun d -> d.Domain.kind = Domain.Stub) (Topo.domains topo)).Domain.id
  in
  let alloc = get_address inet stub in
  let g = alloc.Maas.address in
  check (Alcotest.option Alcotest.int) "rooted at the stub" (Some stub)
    (Internet.root_domain_of inet g);
  (* Every other stub joins; a backbone host sends. *)
  let stubs =
    List.filter_map
      (fun d -> if d.Domain.kind = Domain.Stub && d.Domain.id <> stub then Some d.Domain.id else None)
      (Topo.domains topo)
  in
  List.iter (fun d -> Internet.join inet ~host:(Host_ref.make d 0) ~group:g) stubs;
  Internet.run_for inet (Time.minutes 30.0);
  let p = Internet.send inet ~source:(Host_ref.make 0 0) ~group:g in
  Internet.run_for inet (Time.minutes 10.0);
  let got = List.map fst (Internet.deliveries inet ~payload:p) in
  check Alcotest.int "all stubs received" (List.length stubs) (List.length got);
  check Alcotest.int "no duplicates" 0 (Bgmp_fabric.duplicate_deliveries (Internet.fabric inet))

(* The protocol narrative lives in the flight recorder: [recorded] runs
   [f] with it on, keeping every record, and [narrated] reads back the
   narrative records with one label. *)
let recorded f =
  Recorder.enable ~retain:Recorder.Keep_all ();
  Fun.protect ~finally:Recorder.disable f

let narrated label =
  List.filter (fun r -> r.Recorder.r_label = label) (Trace_report.narrative (Recorder.recent ()))

let test_trace_records_protocol_activity () =
  recorded (fun () ->
      let topo = Gen.figure1 () in
      let inet = setup topo in
      ignore (get_address inet (dom topo "B")));
  check Alcotest.bool "claims recorded" true (narrated "claim" <> []);
  check Alcotest.bool "acquisitions recorded" true (narrated "acquired" <> [])

let test_masc_bgp_glue_withdraw_on_expiry () =
  (* A claim that lapses must disappear from every G-RIB. *)
  let topo = Gen.figure1 () in
  let config =
    {
      Internet.quick_config with
      Internet.masc =
        {
          Internet.quick_config.Internet.masc with
          Masc_node.claim_lifetime = Time.days 1.0;
          renew_margin = Time.hours 2.0;
        };
    }
  in
  let inet = setup ~config topo in
  let b = dom topo "B" in
  let alloc = get_address inet b in
  let g = alloc.Maas.address in
  check Alcotest.bool "routable while held" true (Internet.root_domain_of inet g <> None);
  (* Release the address so the claim has no use, then let it expire. *)
  Internet.release_address inet b alloc;
  Internet.run_for inet (Time.days 5.0);
  check (Alcotest.option Alcotest.int) "B's specific withdrawn everywhere" None
    (Option.bind
       (Speaker.lookup (Internet.speaker inet (dom topo "G")) g)
       (fun r -> if r.Route.origin = b then Some b else None))

let test_fallback_allocation_roots_at_parent () =
  let topo = Gen.figure1 () in
  let inet = setup topo in
  let f = dom topo "F" and b = dom topo "B" in
  (* Warm up so F holds its initial range. *)
  ignore (get_address inet f);
  (* Exhaust F's space with a burst; fallbacks must come from B (F's
     provider) and be rooted there. *)
  let fallback_seen = ref false in
  let local_seen = ref false in
  for _ = 1 to 600 do
    match Internet.request_address_with_fallback inet f with
    | Some (a, root) ->
        if root = f then local_seen := true
        else begin
          fallback_seen := true;
          check Alcotest.int "fallback comes from the provider" b root;
          check (Alcotest.option Alcotest.int) "group rooted at the provider" (Some b)
            (Internet.root_domain_of inet a.Maas.address)
        end
    | None ->
        (* Neither MAAS had space: let the pending claims settle a bit,
           as a retrying session would. *)
        Internet.run_for inet (Time.minutes 30.0)
  done;
  check Alcotest.bool "local allocations happened" true !local_seen;
  check Alcotest.bool "fallback allocations happened" true !fallback_seen

let test_churn_sequence_invariant () =
  (* Random join/leave churn: after every settled step, a probe packet
     reaches exactly the current members. *)
  let topo = Gen.figure3 () in
  let engine = Engine.create () in
  let b = dom topo "B" in
  let paths = Spf.bfs topo b in
  let route_to_root d _ =
    if d = b then Bgmp_fabric.Root_here
    else
      match Spf.next_hop_toward topo paths d with
      | Some nh -> Bgmp_fabric.Via nh
      | None -> Bgmp_fabric.Unroutable
  in
  let fabric = Bgmp_fabric.create ~engine ~topo ~route_to_root () in
  let g = Ipv4.of_string "224.0.128.1" in
  let rng = Rng.create 99 in
  let n = Topo.domain_count topo in
  let member = Array.make n false in
  for step = 1 to 60 do
    let d = Rng.int rng n in
    if member.(d) then begin
      Bgmp_fabric.host_leave fabric ~host:(Host_ref.make d 0) ~group:g;
      member.(d) <- false
    end
    else begin
      Bgmp_fabric.host_join fabric ~host:(Host_ref.make d 0) ~group:g;
      member.(d) <- true
    end;
    Engine.run_until_idle engine;
    let src = Host_ref.make (Rng.int rng n) 77 in
    let p = Bgmp_fabric.send fabric ~source:src ~group:g in
    Engine.run_until_idle engine;
    let got =
      List.sort compare
        (List.map (fun (h, _) -> h.Host_ref.host_domain) (Bgmp_fabric.deliveries fabric ~payload:p))
    in
    let want =
      List.sort compare
        (List.filteri (fun i _ -> member.(i)) (Array.to_list (Array.init n (fun i -> i))))
    in
    check (Alcotest.list Alcotest.int) (Printf.sprintf "step %d exact delivery" step) want got
  done;
  (* Branch establishment is make-before-break: the packet that turns a
     branch live can reach a domain via both paths once.  Such transient
     duplicates are suppressed before hosts see them (the per-step exact
     delivery checks above); just bound them. *)
  check Alcotest.bool "transient duplicates bounded" true
    (Bgmp_fabric.duplicate_deliveries fabric < 60)

let test_invariants_clean_and_converged () =
  (* The full Figure-1 session with the live monitor installed (the
     scenario default): no predicate may fire, and every subsystem must
     have reported a convergence watermark. *)
  let s = Scenario_fixtures.figure1 () in
  let inet = s.Scenario_fixtures.inet in
  check Alcotest.int "no violations across the whole run" 0
    (List.length (Internet.invariant_violations inet));
  check (Alcotest.list Alcotest.string) "all five predicates installed"
    [
      "masc-sibling-overlap";
      "bgmp-acyclic";
      "bgmp-tree-settled";
      "grib-nexthop";
      "grib-valley-free";
    ]
    (Invariant.names (Internet.invariants inet));
  check Alcotest.int "an explicit full check is also clean" 0
    (List.length (Internet.check_invariants ~quiescent:false inet));
  match Engine.converged_at (Internet.engine inet) with
  | Some t ->
      check Alcotest.bool "convergence time within the run" true
        (t > 0.0 && t <= Engine.now (Internet.engine inet))
  | None -> Alcotest.fail "stack never reported convergence"

let valley_free_of vs =
  List.filter_map
    (fun (v : Invariant.violation) ->
      if v.Invariant.inv = "grib-valley-free" then Some v.Invariant.detail else None)
    vs

(* The G-RIBs the predicate sweeps: how many routes, and the longest
   advertisement path among them. *)
let grib_shape inet =
  let routes = ref 0 and longest = ref 0 in
  List.iter
    (fun (d : Domain.t) ->
      Speaker.iter_routes (Internet.speaker inet d.Domain.id) (fun r ->
          incr routes;
          longest := max !longest (Route.path_length r)))
    (Topo.domains (Internet.topo inet));
  (!routes, !longest)

(* A clean pass of a built predicate allocates nothing. *)
let assert_valley_free_clean what inet =
  check (Alcotest.list Alcotest.string) (what ^ ": monitor saw no valley") []
    (valley_free_of (Internet.invariant_violations inet));
  check (Alcotest.list Alcotest.string) (what ^ ": final check clean") []
    (valley_free_of (Internet.check_invariants inet));
  let routes, longest = grib_shape inet in
  check Alcotest.bool (what ^ ": G-RIBs hold multi-hop routes") true (routes > 0 && longest >= 2);
  let pred = Internet.grib_valley_free inet in
  check Alcotest.int (what ^ ": fresh predicate clean") 0 (List.length (pred ()));
  let w0 = Gc.minor_words () in
  let vs = pred () in
  let w1 = Gc.minor_words () in
  check Alcotest.int (what ^ ": still clean") 0 (List.length vs);
  check (Alcotest.float 0.0) (what ^ ": a clean pass allocates nothing") 0.0 (w1 -. w0)

(* The Figure-1 demo, then a shortened copy of the CLI soak over a
   56-domain transit-stub internet (2 backbones x 3 regionals x 8
   stubs): group churn, random senders and stub-link failures, healed
   before the end.  Every route the speakers install is valley-free. *)
let test_grib_valley_free_clean () =
  let s = Scenario_fixtures.figure1 () in
  assert_valley_free_clean "figure 1" s.Scenario_fixtures.inet;
  let rng = Rng.create 1998 in
  let topo = Gen.transit_stub ~rng ~backbones:2 ~regionals_per_backbone:3 ~stubs_per_regional:8 in
  check Alcotest.int "56 domains" 56 (Topo.domain_count topo);
  let inet = Internet.create ~config:Internet.quick_config topo in
  Internet.enable_invariant_checks inet;
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);
  let group =
    match Internet.request_address_retry inet 5 ~every:(Time.hours 1.0) ~attempts:52 with
    | Some a -> a.Maas.address
    | None -> Alcotest.fail "soak: allocation did not settle"
  in
  let n = Topo.domain_count topo in
  let links = Array.of_list (Topo.links topo) in
  let members = Array.make n false and broken = ref None in
  for _ = 1 to 30 do
    (match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        let d = Rng.int rng n in
        let host = Host_ref.make d 0 in
        if members.(d) then Internet.leave inet ~host ~group else Internet.join inet ~host ~group;
        members.(d) <- not members.(d)
    | 4 | 5 -> (
        match !broken with
        | Some (a, b) ->
            Internet.restore_link inet a b;
            broken := None
        | None ->
            let l = Rng.pick rng links in
            if (Topo.domain topo l.Topo.b).Domain.kind = Domain.Stub && l.Topo.b <> 5 then begin
              Internet.fail_link inet l.Topo.a l.Topo.b;
              broken := Some (l.Topo.a, l.Topo.b)
            end)
    | _ -> ());
    Internet.run_for inet (Time.minutes 10.0);
    ignore (Internet.send inet ~source:(Host_ref.make (Rng.int rng n) 42) ~group);
    Internet.run_for inet (Time.minutes 10.0)
  done;
  Option.iter (fun (a, b) -> Internet.restore_link inet a b) !broken;
  Internet.run_for inet (Time.hours 1.0);
  assert_valley_free_clean "56-domain soak" inet

(* P1 and P2 are providers of the multi-homed customer CU, and X is
   P1's other customer.  CU re-advertises P1's route to P2 — a
   provider -> customer -> provider valley that CU's export policy
   would never send — so P2's G-RIB holds exactly one route the
   predicate must reject.  A second crafted route crosses X -> CU,
   which is not a link. *)
let test_grib_valley_route_detected () =
  let topo = Topo.create () in
  let add name kind = Topo.add_domain topo ~name ~kind in
  let p1 = add "P1" Domain.Backbone in
  let p2 = add "P2" Domain.Backbone in
  let cu = add "CU" Domain.Stub in
  let x = add "X" Domain.Stub in
  Topo.add_link topo p1 cu Topo.Provider_customer;
  Topo.add_link topo p2 cu Topo.Provider_customer;
  Topo.add_link topo p1 x Topo.Provider_customer;
  let inet = Internet.create topo in
  let deliver ~origin ~via prefix =
    let route =
      List.fold_left Route.through (Route.originate origin (Prefix.of_string prefix)) via
    in
    Speaker.receive (Internet.speaker inet p2) ~from_:cu (Update.Advertise route)
  in
  check Alcotest.int "clean before the crafted update" 0
    (List.length (Internet.check_invariants inet));
  deliver ~origin:p1 ~via:[ p1; cu ] "232.0.0.0/8";
  let valley =
    "domain 1's route for 232.0.0.0/8 has path 0 -> 2 -> 1: hop 0 -> 2 breaks the valley-free \
     order"
  in
  let vs = Internet.check_invariants inet in
  check (Alcotest.list Alcotest.string) "exactly one violation: the valley" [ valley ]
    (valley_free_of vs);
  check Alcotest.int "and nothing else" 1 (List.length vs);
  deliver ~origin:x ~via:[ x; cu ] "233.0.0.0/8";
  check (Alcotest.list Alcotest.string) "a hop that is not a link"
    [
      valley;
      "domain 1's route for 233.0.0.0/8 has path 3 -> 2 -> 1: hop 3 -> 2 is not a link";
    ]
    (valley_free_of (Internet.check_invariants inet))

let test_seeded_overlap_violation_detected () =
  let s = Scenario_fixtures.figure1 ~check_invariants:false () in
  let inet = s.Scenario_fixtures.inet in
  (* The root domain holds an acquired range; forge an overlapping
     sibling claim in the node's own registry — exactly the state
     collision resolution exists to prevent. *)
  let node = Internet.masc_node inet s.Scenario_fixtures.root in
  let claim =
    match
      List.filter
        (fun c ->
          c.Masc_node.claim_state = Masc_node.Acquired && c.Masc_node.claim_arena = Masc_node.Up)
        (Masc_node.all_claims node)
    with
    | c :: _ -> c
    | [] -> Alcotest.fail "root domain holds no acquired claim"
  in
  let forged =
    Prefix.make (Prefix.base claim.Masc_node.claim_prefix)
      (Prefix.len claim.Masc_node.claim_prefix + 1)
  in
  let before = Metrics.snapshot Metrics.default in
  Address_space.register (Masc_node.space_view node) ~owner:9999 forged;
  let vs = recorded (fun () -> Internet.check_invariants ~quiescent:false inet) in
  let v =
    match List.filter (fun v -> v.Invariant.inv = "masc-sibling-overlap") vs with
    | v :: _ -> v
    | [] -> Alcotest.fail "seeded overlap not detected"
  in
  check (Alcotest.option Alcotest.string) "violation names the claim's causal chain"
    (Some claim.Masc_node.claim_span.Span.trace_id) v.Invariant.trace_id;
  let delta name =
    match Metrics.find (Metrics.diff ~before ~after:(Metrics.snapshot Metrics.default)) name with
    | Some (Metrics.Counter_v n) -> n
    | _ -> 0
  in
  check Alcotest.bool "counted in invariant.violations" true (delta "invariant.violations" >= 1);
  check Alcotest.bool "counted under the predicate's name" true
    (delta "invariant.violations.masc-sibling-overlap" >= 1);
  check Alcotest.bool "recorded as a narrative record on the same chain" true
    (List.exists
       (fun r -> r.Recorder.r_trace_id = Some claim.Masc_node.claim_span.Span.trace_id)
       (narrated "violation"));
  (* Removing the forged claim repairs the stack. *)
  Address_space.unregister (Masc_node.space_view node) forged;
  check Alcotest.int "clean after repair" 0
    (List.length (Internet.check_invariants ~quiescent:false inet))

(* [grib-nexthop] on three forged tree states of the Figure-1 session,
   one per kind of report: the root domain given an upstream peer, a
   member domain joined upstream through a router of its own domain
   instead of its G-RIB next hop, and state for a group no G-RIB
   covers.  Each report names the group and carries a trace id. *)
let test_grib_nexthop_violations_detailed () =
  let s = Scenario_fixtures.figure1 ~check_invariants:false () in
  let inet = s.Scenario_fixtures.inet in
  let fabric = Internet.fabric inet in
  let group = s.Scenario_fixtures.group in
  let member = List.find (fun d -> d <> s.Scenario_fixtures.root) s.Scenario_fixtures.members in
  let nh =
    match Views.next_hop_to_root (Internet.speaker inet member) group with
    | Some nh -> nh
    | None -> Alcotest.fail "member has no G-RIB next hop"
  in
  let first_router d = List.hd (Bgmp_fabric.routers_of fabric d) in
  let rejoin r ~group ~upstream =
    Bgmp_router.clear_group r group;
    Bgmp_router.set_classify_root r (fun _ -> Bgmp_router.External upstream);
    ignore (Bgmp_router.handle_join r ~group ~from:Bgmp_router.Migp_target)
  in
  let root_r = first_router s.Scenario_fixtures.root and member_r = first_router member in
  let sibling = Bgmp_router.id member_r in
  let bogus = Ipv4.of_string "239.255.0.1" in
  rejoin root_r ~group ~upstream:(Bgmp_router.id member_r);
  rejoin member_r ~group ~upstream:sibling;
  rejoin member_r ~group:bogus ~upstream:sibling;
  let vs =
    List.filter
      (fun v -> v.Invariant.inv = "grib-nexthop")
      (Internet.check_invariants ~quiescent:true inet)
  in
  let g = Ipv4.to_string group in
  check (Alcotest.list Alcotest.string) "one report per forged state"
    (List.sort compare
       [
         Printf.sprintf "group %s: root domain %d still has an upstream peer (router %d)" g
           s.Scenario_fixtures.root (Bgmp_router.id member_r);
         Printf.sprintf
           "group %s: domain %d joins upstream via domain %d but its G-RIB next hop is %d" g
           member member nh;
         Printf.sprintf
           "group 239.255.0.1: domain %d keeps upstream peer %d but the group is unroutable"
           member sibling;
       ])
    (List.sort compare (List.map (fun v -> v.Invariant.detail) vs));
  check Alcotest.bool "every report carries a trace id" true
    (List.for_all (fun v -> v.Invariant.trace_id <> None) vs)

let test_partition_collision_resolves_with_full_chain () =
  (* The §4.4 start-up partition: two top-level domains, isolated from
     each other, both claim the first free sub-prefix of 224/4 and
     graduate.  While partitioned the overlap invariant must see the
     conflict; after healing, the next claim renewal forces the duel,
     the higher-id top yields, and the winner's causal chain carries
     claim, collision, G-RIB update and join end to end. *)
  let topo = Topo.create () in
  let p0 = Topo.add_domain topo ~name:"P0" ~kind:Domain.Backbone in
  let p1 = Topo.add_domain topo ~name:"P1" ~kind:Domain.Backbone in
  let c0 = Topo.add_domain topo ~name:"C0" ~kind:Domain.Stub in
  let c1 = Topo.add_domain topo ~name:"C1" ~kind:Domain.Stub in
  Topo.add_link topo p0 p1 Topo.Peer;
  Topo.add_link topo p0 c0 Topo.Provider_customer;
  Topo.add_link topo p1 c1 Topo.Provider_customer;
  let config =
    {
      Internet.quick_config with
      Internet.masc =
        {
          Internet.quick_config.Internet.masc with
          Masc_node.claim_lifetime = Time.days 1.0;
          renew_margin = Time.hours 2.0;
        };
    }
  in
  Recorder.enable ~retain:Recorder.Keep_all ();
  Fun.protect ~finally:Recorder.disable @@ fun () ->
  let inet = Internet.create ~config topo in
  Masc_network.partition (Internet.masc_network inet) p0 p1;
  Internet.start inet;
  Internet.run_for inet (Time.hours 1.0);
  (* Claims are demand-driven: a group allocated at each top makes both
     claim out of 224/4 blind to each other (and keeps both claims
     renewing later).  First-fit placement lands them on the same
     sub-prefix, so the overlap invariant must expose the conflict
     while the partition lasts. *)
  let alloc = get_address inet p0 in
  ignore (get_address inet p1);
  Internet.run_for inet (Time.hours 1.0);
  let during = Internet.check_invariants ~quiescent:false inet in
  check Alcotest.bool "overlap visible during the partition" true
    (List.exists (fun v -> v.Invariant.inv = "masc-sibling-overlap") during);
  Masc_network.heal (Internet.masc_network inet) p0 p1;
  Internet.run_for inet (Time.days 2.0);
  check Alcotest.bool "a collision was fought" true (narrated "collision-sent" <> []);
  check Alcotest.bool "the loser yielded" true (narrated "collision-yield" <> []);
  check Alcotest.int "overlap resolved after healing" 0
    (List.length
       (List.filter
          (fun v -> v.Invariant.inv = "masc-sibling-overlap")
          (Internet.check_invariants ~quiescent:false inet)));
  (* The surviving allocation still roots P0's group; join from the far
     side and stitch the chain. *)
  let g = alloc.Maas.address in
  check (Alcotest.option Alcotest.int) "group still rooted at the winner" (Some p0)
    (Internet.root_domain_of inet g);
  Internet.join inet ~host:(Host_ref.make c1 0) ~group:g;
  Internet.run_for inet (Time.minutes 30.0);
  let id =
    match Speaker.lookup (Internet.speaker inet p0) g with
    | Some r -> (
        match r.Route.span with
        | Some s -> s.Span.trace_id
        | None -> Alcotest.fail "covering route carries no span")
    | None -> Alcotest.fail "no covering route for the group"
  in
  let records = Recorder.recent () in
  let tags = Views.chain_labels records ~id in
  List.iter
    (fun t -> check Alcotest.bool (t ^ " on the chain") true (List.mem t tags))
    [ "claim"; "acquired"; "collision-sent"; "grib-update"; "join" ];
  (* And the [trace] subcommand's renderer reconstructs the same story. *)
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Trace_report.pp_chain_for ppf records ~id;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let mem needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun t -> check Alcotest.bool (t ^ " rendered") true (mem t))
    [ "claim"; "collision-sent"; "grib-update"; "join" ]

let suite =
  [
    ("root at initiator domain", `Quick, test_root_at_initiator_domain);
    ("end-to-end delivery", `Quick, test_end_to_end_delivery);
    ("multiple groups, different roots", `Quick, test_multiple_groups_different_roots);
    ("aggregation visible in G-RIBs", `Quick, test_aggregation_visible_in_gribs);
    ("leave then no delivery", `Quick, test_leave_then_no_delivery);
    ("address release and reuse", `Quick, test_address_release_and_reuse);
    ("addresses unique across domains", `Quick, test_many_addresses_unique_across_domains);
    ("stack on generated topology", `Quick, test_stack_on_generated_topology);
    ("trace records protocol activity", `Quick, test_trace_records_protocol_activity);
    ("withdraw on expiry", `Quick, test_masc_bgp_glue_withdraw_on_expiry);
    ("fallback allocation roots at parent", `Quick, test_fallback_allocation_roots_at_parent);
    ("churn sequence invariant", `Quick, test_churn_sequence_invariant);
    ("invariants clean and converged on figure 1", `Quick, test_invariants_clean_and_converged);
    ("seeded overlap violation detected", `Quick, test_seeded_overlap_violation_detected);
    ("grib-nexthop violations detailed", `Quick, test_grib_nexthop_violations_detailed);
    ("grib valley-free clean on demo and soak", `Quick, test_grib_valley_free_clean);
    ("grib valley route detected", `Quick, test_grib_valley_route_detected);
    ( "partition collision resolves with full chain",
      `Quick,
      test_partition_collision_resolves_with_full_chain );
  ]
