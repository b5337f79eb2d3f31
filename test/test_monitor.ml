(* The cadence monitor's predicates against Monitor_reference: a BGMP
   parent-pointer cycle built on purpose, the predicates at every
   cadence tick and final check of seeded fault-schedule oracle runs,
   and the allocation of one check while every predicate holds. *)

open Alcotest

let detail_list = list (pair string (option string))

(* Three domains in a line, a - b - c, whose G-RIBs disagree about one
   group: a routes it via b and b via a, so the joins from c's host meet
   in a two-router parent-pointer cycle on the a-b link, and c's branch
   hangs off it.  A second, lower group is routed consistently toward a
   over the same routers, so its pass runs first and leaves every router
   coloured "reaches a root": the cycle is found only if each group's
   pass starts from fresh colours. *)
let test_cycle_matches_bounded_walk () =
  let topo = Topo.create () in
  let add name = Topo.add_domain topo ~name ~kind:Domain.Regional in
  let a = add "A" and b = add "B" and c = add "C" in
  Topo.add_link topo a b Topo.Peer;
  Topo.add_link topo b c Topo.Peer;
  let sound = Ipv4.of_string "224.1.2.2" and looped = Ipv4.of_string "224.1.2.3" in
  let route_to_root dom group =
    if dom = c then Bgmp_fabric.Via b
    else if dom = b then Bgmp_fabric.Via a
    else if group = sound then Bgmp_fabric.Root_here
    else Bgmp_fabric.Via b
  in
  let engine = Engine.create () in
  let fabric = Bgmp_fabric.create ~engine ~topo ~route_to_root () in
  List.iter
    (fun group -> Bgmp_fabric.host_join fabric ~host:(Host_ref.make c 0) ~group)
    [ sound; looped ];
  Engine.run_until_idle engine;
  let span_of_group _ _ = None in
  let reference = Monitor_reference.acyclic fabric ~topo ~route_to_root ~span_of_group in
  let got = Bgmp_fabric.cycle_violations fabric in
  let on_tree group =
    List.concat_map
      (fun d ->
        List.filter (fun r -> Bgmp_router.on_tree r group) (Bgmp_fabric.routers_of fabric d))
      [ a; b; c ]
  in
  check int "every router on the looped tree reaches the cycle" (List.length (on_tree looped))
    (List.length got);
  check bool "the looped tree spans the line" true (List.length (on_tree looped) >= 3);
  check bool "the sound tree shares its routers" true (List.length (on_tree sound) >= 3);
  check detail_list "same details, same order as the bounded walk" reference got;
  check detail_list "tree_violations ~quiescent:false agrees" reference
    (Bgmp_fabric.tree_violations fabric ~quiescent:false);
  List.iter
    (fun (d, tid) ->
      check bool "detail names the looped group" true
        (String.starts_with ~prefix:"tree cycle for 224.1.2.3 via parent pointers from " d);
      check (option string) "group trace id" (Some (Span.group_id "224.1.2.3")) tid)
    got;
  (* The quiescent composition reports each group's cycles, then its
     settle findings; only the looped group has cycles. *)
  check detail_list "settle sweep = reference settle"
    (Monitor_reference.settled fabric ~topo ~route_to_root ~span_of_group)
    (Bgmp_fabric.settle_violations fabric);
  check detail_list "quiescent sweep = reference quiescent sweep"
    (Monitor_reference.tree_violations fabric ~topo ~route_to_root ~span_of_group ~quiescent:true)
    (Bgmp_fabric.tree_violations fabric ~quiescent:true)

(* A counter's value in a registry, 0 before its first increment. *)
let counter registry name =
  match Metrics.find (Metrics.snapshot registry) name with
  | Some (Metrics.Counter_v n) -> n
  | _ -> 0

let of_inv name vs =
  List.filter_map
    (fun (v : Invariant.violation) ->
      if v.Invariant.inv = name then Some (v.Invariant.detail, v.Invariant.trace_id) else None)
    vs

(* 80 schedules from the explorer's own generator on the default
   arena: its 20 enumerated single faults (the §4.4 canaries among them,
   so the overlap predicate's violation path runs) and 60 seeded random
   ones, all on one oracle stack, as a campaign worker runs them.  At
   every check the active-group scan must also visit the reference's
   sorted list. *)
let test_predicates_match_reference () =
  let arena = Oracle.default_arena in
  let topo = Oracle.topology arena in
  let stack = Oracle.stack arena in
  let schedules =
    Fault_gen.generate ~topo ~budget:80 ~max_faults:6 ~seed:19
      ~horizon:Explore.default_config.Explore.horizon
  in
  let ticks = ref 0 and overlap_ticks = ref 0 and final_overlaps = ref 0 in
  fst @@ Obs.capture
  @@ fun () ->
  let registry = Metrics.current () in
  let compare_all ~at inet vs ~settled =
    let visited = ref [] in
    Bgmp_fabric.iter_active_groups (Internet.fabric inet) (fun g -> visited := g :: !visited);
    check (list int) (at ^ ": active groups")
      (Monitor_reference.active_groups (Internet.fabric inet) ~topo)
      (List.rev !visited);
    let reference = Monitor_reference.masc_overlap inet in
    if reference <> [] then incr overlap_ticks;
    check detail_list (at ^ ": masc-sibling-overlap") reference (of_inv "masc-sibling-overlap" vs);
    check detail_list (at ^ ": bgmp-acyclic") (Monitor_reference.internet_acyclic inet)
      (of_inv "bgmp-acyclic" vs);
    check detail_list (at ^ ": bgmp-tree-settled") (Monitor_reference.internet_settled inet) settled
  in
  List.iteri
    (fun i schedule ->
      let at = Printf.sprintf "schedule %d (%s)" i (Schedule.to_string schedule) in
      let on_check inet vs =
        incr ticks;
        compare_all ~at inet vs
          ~settled:(Bgmp_fabric.settle_violations (Internet.fabric inet))
      in
      let outcome, inet = Oracle.run ~stack ~on_check ~seed:(1000 + i) schedule in
      let vs = outcome.Oracle.violations in
      if of_inv "masc-sibling-overlap" vs <> [] then incr final_overlaps;
      (* The final check runs the quiescent-only predicates exactly when
         the schedule ends with every link up. *)
      let settled =
        if Schedule.ends_all_up schedule then of_inv "bgmp-tree-settled" vs
        else Bgmp_fabric.settle_violations (Internet.fabric inet)
      in
      compare_all ~at:(at ^ " final") inet vs ~settled)
    schedules;
  check int "80 oracle runs" 80 (List.length schedules);
  check bool "cadence ticks observed" true (!ticks > 80 * 20);
  check bool "overlap violations seen at some ticks" true (!overlap_ticks > 0);
  check bool "overlap violations seen at some final checks" true (!final_overlaps > 0);
  (* Both gated predicates are evaluated at every check, cadence and
     final alike; most of those evaluations see unchanged state. *)
  let count = counter registry in
  let gated = 2 * count "invariant.checks" and skipped = count "invariant.skipped" in
  check bool
    (Printf.sprintf "skipped %d of %d gated evaluations (>= 75%%)" skipped gated)
    true
    (4 * skipped >= 3 * gated)

(* The gated monitor against the reference at every half-hour tick of
   a 56-domain transit-stub internet (the soak's shape, with eight stubs
   per regional): MASC allocation through three levels, a group joined
   from every stub, a stub link and a backbone-regional link failed and
   restored, and the two backbones partitioned while both claim, then
   healed.  The partition makes the overlap predicate report for a
   stretch of ticks, so both its violation path and its skips run at
   this scale. *)
let test_transit_stub_matches_reference () =
  let topo =
    Gen.transit_stub ~rng:(Rng.create 11) ~backbones:2 ~regionals_per_backbone:3
      ~stubs_per_regional:8
  in
  let of_kind k =
    List.filter_map
      (fun (d : Domain.t) -> if d.Domain.kind = k then Some d.Domain.id else None)
      (Topo.domains topo)
  in
  let stubs = of_kind Domain.Stub and regionals = of_kind Domain.Regional in
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
  fst @@ Obs.capture @@ fun () ->
  let registry = Metrics.current () in
  let inet = Internet.create ~config topo in
  let ticks = ref 0 and overlap_ticks = ref 0 in
  Engine.set_monitor (Internet.engine inet) ~cadence:(Time.minutes 30.0) (fun ~quiescent:_ ->
      incr ticks;
      let at = Printf.sprintf "tick %d" !ticks in
      let vs = Invariant.check ~quiescent:false (Internet.invariants inet) in
      let reference = Monitor_reference.masc_overlap inet in
      if reference <> [] then incr overlap_ticks;
      check detail_list (at ^ ": masc-sibling-overlap") reference
        (of_inv "masc-sibling-overlap" vs);
      check detail_list (at ^ ": bgmp-acyclic") (Monitor_reference.internet_acyclic inet)
        (of_inv "bgmp-acyclic" vs));
  let masc = Internet.masc_network inet in
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);
  let initiator = List.nth stubs 5 in
  let group =
    match Internet.request_address_retry inet initiator ~every:(Time.hours 1.0) ~attempts:24 with
    | Some a -> a.Maas.address
    | None -> Alcotest.fail "no group address"
  in
  let members = Array.make (Topo.domain_count topo) false in
  let toggle s =
    let host = Host_ref.make s 0 in
    if members.(s) then Internet.leave inet ~host ~group else Internet.join inet ~host ~group;
    members.(s) <- not members.(s)
  in
  List.iter toggle stubs;
  Internet.run_for inet (Time.hours 2.0);
  let stub = List.nth stubs 20 and regional = List.nth regionals 1 in
  let provider_of d =
    List.find (fun p -> Topo.link_between topo p d <> None) (0 :: 1 :: regionals)
  in
  (* Membership churn every half hour, with the faults laid over it. *)
  let rng = Rng.create 12 in
  for step = 1 to 48 do
    (match step with
    | 8 ->
        Internet.fail_link inet (provider_of stub) stub;
        Internet.fail_link inet (provider_of regional) regional
    | 14 ->
        Internet.restore_link inet (provider_of stub) stub;
        Internet.restore_link inet (provider_of regional) regional
    | 20 ->
        Masc_network.partition masc 0 1;
        List.iter (fun d -> Masc_node.request_space (Masc_network.node masc d) ~need:4096) [ 0; 1 ]
    | 32 -> Masc_network.heal masc 0 1
    | _ -> ());
    toggle (Rng.pick rng (Array.of_list stubs));
    Internet.run_for inet (Time.minutes 30.0)
  done;
  Internet.run_for inet (Time.days 3.0);
  let count = counter registry in
  check int "56 domains" 56 (Topo.domain_count topo);
  check bool "ticks observed" true (!ticks > 60);
  check bool "overlap violations seen at some ticks" true (!overlap_ticks > 0);
  check bool "some gated evaluations skipped" true (count "invariant.skipped" > 0);
  check bool "and some run" true (count "invariant.skipped" < 2 * !ticks)

(* Overlaps in three arenas at once, which the oracle's workload (only
   tops allocate) never produces: the three tops claim out of 224/4 while
   partitioned from each other, and under tops 0 and 1 two children each
   claim from their parent's advertised space while cut off from it.
   The report order across arenas is part of the contract (ledgers and
   recordings carry it), so every half-hour the predicate must return
   the reference's list exactly. *)
let test_overlap_order_across_arenas () =
  let topo = Gen.masc_hierarchy ~tops:3 ~children_per_top:3 in
  let inet = Internet.create ~config:Internet.quick_config topo in
  let masc = Internet.masc_network inet in
  let partition = List.iter (fun (a, b) -> Masc_network.partition masc a b) in
  let request = List.iter (fun d -> Masc_node.request_space (Masc_network.node masc d) ~need:256) in
  Internet.start inet;
  Internet.run_for inet (Time.hours 1.0);
  partition [ (0, 1); (0, 2); (1, 2) ];
  request [ 0; 1; 2 ];
  Internet.run_for inet (Time.hours 2.0);
  (* One child per parent claims first, so the parents reserve and
     advertise space to all their children. *)
  request [ 5; 8 ];
  Internet.run_for inet (Time.hours 2.0);
  partition [ (0, 3); (0, 4); (1, 6); (1, 7) ];
  request [ 3; 4; 6; 7 ];
  let last = ref [] in
  for _ = 1 to 6 do
    Internet.run_for inet (Time.minutes 30.0);
    let got =
      of_inv "masc-sibling-overlap" (Invariant.check ~quiescent:false (Internet.invariants inet))
    in
    check detail_list "same list as the reference" (Monitor_reference.masc_overlap inet) got;
    last := List.map fst got
  done;
  let has prefix = List.exists (String.starts_with ~prefix) !last in
  check bool "top-level arena overlaps" true (has "domains 1 and 0 ");
  check bool "overlap under top 0" true (has "domains 4 and 3 ");
  check bool "overlap under top 1" true (has "domains 7 and 6 ");
  (* A node's registry holding sibling claims inside one of its acquired
     ranges, as a failed collision resolution would leave it (made here
     by registering two directly): the registry scan reports those, in
     prefix order and after the arena pairs, and not the node's own
     claim. *)
  let node = Masc_network.node masc 5 in
  let mine =
    List.find
      (fun (c : Masc_node.own_claim) ->
        c.Masc_node.claim_state = Masc_node.Acquired && c.Masc_node.claim_arena = Masc_node.Up)
      (Masc_node.all_claims node)
  in
  let inside len = Prefix.first_subprefix mine.Masc_node.claim_prefix len in
  let registered = [ (inside 28, 3); (inside 27, 4) ] in
  List.iter
    (fun (p, owner) -> Address_space.register (Masc_node.space_view node) ~owner p)
    registered;
  let got =
    of_inv "masc-sibling-overlap" (Invariant.check ~quiescent:false (Internet.invariants inet))
  in
  check detail_list "registry findings match the reference"
    (Monitor_reference.masc_overlap inet)
    got;
  check (list string) "registry findings in prefix order"
    (List.map
       (fun (p, owner) ->
         Printf.sprintf "domain 5's acquired range %s overlaps %s registered to domain %d"
           (Prefix.to_string mine.Masc_node.claim_prefix)
           (Prefix.to_string p) owner)
       (List.rev registered))
    (List.filter (fun d -> String.starts_with ~prefix:"domain 5's" d) (List.map fst got));
  check bool "registry findings follow the arena pairs" true
    (String.starts_with ~prefix:"domain 5's" (fst (List.nth got (List.length got - 1))))

(* Minor bytes of one [Invariant.check ~quiescent:false] on the settled
   default oracle arena (no fault, every predicate holds).  On unchanged
   state both gated predicates are skipped and the check allocates
   nothing.  After real mutations under both (a stub leaves its group,
   a top claims more space) both run: measured at 384 bytes under the
   default dev profile, all of it in the cycle pass: the closure
   [Hashtbl.iter] builds per router while the groups are gathered, and
   the [Via] boxes of the G-RIB answers the parent walks ask for.  The
   MASC overlap sweep allocates nothing.  The bound is 1.25x the
   measured value. *)
let check_minor_bytes_bound = 480.0

let test_check_allocation () =
  fst @@ Obs.capture @@ fun () ->
  let registry = Metrics.current () in
  let _, inet = Oracle.run ~seed:7 [] in
  let inv = Internet.invariants inet in
  let skipped () = counter registry "invariant.skipped" in
  let minor_bytes_of_check what =
    let minor0 = Gc.minor_words () in
    let vs = Invariant.check ~quiescent:false inv in
    let minor1 = Gc.minor_words () in
    check int (what ^ ": every predicate holds") 0 (List.length vs);
    (minor1 -. minor0) *. float_of_int (Sys.word_size / 8)
  in
  ignore (minor_bytes_of_check "warm-up");
  let before = skipped () in
  check (float 0.0) "unchanged state: no allocation" 0.0 (minor_bytes_of_check "unchanged");
  check int "unchanged state: both gated predicates skipped" (before + 2) (skipped ());
  (* Stop the oracle's cadence monitor, so the mutations reach the
     measured check unseen. *)
  Engine.clear_monitor (Internet.engine inet);
  let group =
    let first = ref None in
    Bgmp_fabric.iter_active_groups (Internet.fabric inet) (fun g ->
        if !first = None then first := Some g);
    match !first with Some g -> g | None -> Alcotest.fail "no active group"
  in
  let routers () =
    List.concat_map
      (fun (d : Domain.t) -> Bgmp_fabric.routers_of (Internet.fabric inet) d.Domain.id)
      (Topo.domains (Internet.topo inet))
  in
  let tree_version () = List.fold_left (fun acc r -> acc + Bgmp_router.version r) 0 (routers ()) in
  let node = Internet.masc_node inet 0 in
  let masc_version () = Masc_node.version node in
  let tree0 = tree_version () and masc0 = masc_version () in
  Internet.leave inet ~host:(Host_ref.make 5 0) ~group;
  Masc_node.request_space node ~need:256;
  Internet.run_for inet (Time.hours 1.0);
  check bool "the leave moved the tree state" true (tree_version () > tree0);
  check bool "the claim moved the MASC state" true (masc_version () > masc0);
  let before = skipped () in
  let minor_bytes = minor_bytes_of_check "after the mutations" in
  check int "after the mutations: nothing skipped" before (skipped ());
  check bool
    (Printf.sprintf "minor bytes %.0f within %.0f" minor_bytes check_minor_bytes_bound)
    true
    (minor_bytes <= check_minor_bytes_bound)

(* The wiring of the two dependencies: on the settled oracle arena, a
   change to any one kind of state a gated predicate reads makes
   exactly that predicate run again at the next check, and the other
   one stays skipped.  Each change is made directly on one structure,
   with the engine stopped, so nothing else moves. *)
let test_dependencies_cover_what_predicates_read () =
  fst @@ Obs.capture @@ fun () ->
  let registry = Metrics.current () in
  let _, inet = Oracle.run ~seed:7 [] in
  let inv = Internet.invariants inet in
  let skipped () = counter registry "invariant.skipped" in
  let checked what ~expect_skips =
    let before = skipped () in
    check int (what ^ ": every predicate holds") 0
      (List.length (Invariant.check ~quiescent:false inv));
    check int (what ^ ": skipped predicates") expect_skips (skipped () - before)
  in
  checked "settled" ~expect_skips:2;
  let router = List.hd (Bgmp_fabric.routers_of (Internet.fabric inet) 2) in
  ignore (Bgmp_router.handle_join router ~group:(Ipv4.of_string "232.9.9.9") ~from:Migp_target);
  checked "a (star,G) table changed" ~expect_skips:1;
  let route = Route.through (Route.originate 0 (Prefix.of_string "232.0.0.0/8")) 0 in
  Speaker.receive (Internet.speaker inet 2) ~from_:0 (Update.Advertise route);
  checked "a G-RIB changed" ~expect_skips:1;
  Address_space.register
    (Masc_node.space_view (Internet.masc_node inet 5))
    ~owner:4 (Prefix.of_string "239.255.255.0/24");
  checked "a MASC registry changed" ~expect_skips:1;
  Masc_node.request_space (Internet.masc_node inet 1) ~need:256;
  checked "own MASC claims changed" ~expect_skips:1;
  checked "nothing changed" ~expect_skips:2

(* Every mutation the gated predicates depend on moves its structure's
   counter, and every no-op leaves it where it was.  The rows of a table
   run in order against shared state; each names the step, whether the
   counter it reads must move, and the step itself. *)
type row = { what : string; version : unit -> int; bumps : bool; step : unit -> unit }

let row version what bumps step = { what; version; bumps; step }

let run_rows table rows =
  List.iter
    (fun r ->
      let what = table ^ ": " ^ r.what in
      let before = r.version () in
      r.step ();
      let after = r.version () in
      check bool (what ^ ": never decreases") true (after >= before);
      check bool (what ^ if r.bumps then ": bumps" else ": leaves the version") r.bumps
        (after > before))
    rows

let address_space_rows () =
  let sp = Address_space.create () in
  let row = row (fun () -> Address_space.version sp) in
  let pfx = Prefix.of_string in
  let p = pfx "224.0.0.0/24" and q = pfx "224.0.1.0/24" in
  let rng = Rng.create 3 in
  [
    row "add a cover" false (fun () -> Address_space.add_cover sp (pfx "224.0.0.0/16"));
    row "register a claim" true (fun () -> Address_space.register sp ~owner:1 p);
    row "register a second claim" true (fun () -> Address_space.register sp ~owner:2 q);
    row "lookups and the claim draw" false (fun () ->
        ignore (Address_space.owner_of sp p);
        ignore (Address_space.conflicting sp (pfx "224.0.0.0/23"));
        ignore (Address_space.can_double sp p);
        ignore (Address_space.choose_claim sp ~rng ~want_len:24);
        ignore (Address_space.free_addresses sp));
    row "remove a cover" false (fun () -> Address_space.remove_cover sp (pfx "224.0.128.0/17"));
    row "unregister a claim" true (fun () -> Address_space.unregister sp q);
    row "unregister an unclaimed prefix" false (fun () -> Address_space.unregister sp q);
  ]

let masc_node_rows () =
  let engine = Engine.create () in
  let config =
    {
      Masc_node.default_config with
      Masc_node.claim_wait = Time.minutes 5.0;
      renew_margin = Time.hours 1.0;
    }
  in
  let create id role = Masc_node.create ~id ~role ~config ~engine ~rng:(Rng.create id) in
  let node = create 3 Masc_node.Top and child = create 4 (Masc_node.Child 1) in
  Masc_node.bootstrap_top node (Prefix.of_string "224.0.0.0/4");
  Masc_node.start node;
  let own = row (fun () -> Masc_node.version node)
  and registry = row (fun () -> Address_space.version (Masc_node.space_view node))
  and child_row = row (fun () -> Masc_node.version child) in
  let mine () =
    match Masc_node.all_claims node with
    | c :: _ -> c.Masc_node.claim_prefix
    | [] -> Alcotest.fail "no own claim"
  in
  let announce lifetime_end () =
    Masc_node.receive node ~from_:9
      (Masc_message.Claim_announce
         { owner = 9; prefix = Prefix.of_string "239.0.0.0/24"; lifetime_end; span = None })
  in
  let lifetime_end () =
    match Masc_node.all_claims node with
    | c :: _ -> c.Masc_node.claim_lifetime_end
    | [] -> Alcotest.fail "no own claim"
  in
  [
    own "an own claim is added" true (fun () -> Masc_node.request_space node ~need:256);
    own "the claim is acquired" true (fun () -> Engine.run ~until:(Time.minutes 10.0) engine);
    own "MAAS usage of the claim" false (fun () -> Masc_node.note_assigned node (mine ()) 256);
    registry "a foreign claim is heard" true (announce (Time.days 90.0));
    registry "its expiry is refreshed" false (announce (Time.days 120.0));
    own "a foreign claim is heard" false (announce (Time.days 150.0));
    own "the claim's lifetime is renewed" false (fun () ->
        let before = lifetime_end () in
        Engine.run ~until:(Time.days 31.0) engine;
        check bool "renewed" true (lifetime_end () > before));
    own "lookups" false (fun () ->
        ignore (Masc_node.acquired_ranges node);
        ignore (Masc_node.bgp_ranges node));
    own "the claim expires unused" true (fun () ->
        Masc_node.note_assigned node (mine ()) (-256);
        Engine.run ~until:(Time.days 70.0) engine;
        check int "released" 0 (List.length (Masc_node.all_claims node)));
    child_row "a reparent" true (fun () -> Masc_node.reparent child ~new_parent:2);
    child_row "a reparent to the same parent" false (fun () ->
        Masc_node.reparent child ~new_parent:2);
  ]

let bgmp_router_rows () =
  let r = Bgmp_router.create ~id:0 ~domain:0 ~name:"r0" in
  let row = row (fun () -> Bgmp_router.version r) in
  let g = Ipv4.of_string "224.1.0.1" and other = Ipv4.of_string "224.1.0.2" in
  let source = Host_ref.make 7 0 in
  let join group from () = ignore (Bgmp_router.handle_join r ~group ~from)
  and prune group from () = ignore (Bgmp_router.handle_prune r ~group ~from) in
  [
    row "a (star,G) entry is added" true (join g (Peer 1));
    row "a child is added" true (join g (Peer 2));
    row "a join from an existing child" false (join g (Peer 2));
    row "a prune from a non-child" false (prune g (Peer 5));
    row "data forwarding" false (fun () ->
        ignore (Data_oracle.handle_data r ~group:g ~source ~payload:1 ~hops:0 ~from:(Peer 1)));
    row "(S,G) state" false (fun () ->
        ignore (Bgmp_router.handle_join_sg r ~source ~group:g ~from:(Peer 3)));
    row "lookups" false (fun () ->
        ignore (Bgmp_router.star_entry r g);
        ignore (Bgmp_router.star_parent r g);
        ignore (Bgmp_router.on_tree r g));
    row "a child is pruned" true (prune g (Peer 2));
    row "the last child is pruned" true (prune g (Peer 1));
    row "another entry is added" true (join other Migp_target);
    row "clear_group drops it" true (fun () -> Bgmp_router.clear_group r other);
    row "clear_group of an absent group" false (fun () -> Bgmp_router.clear_group r other);
  ]

let speaker_rows () =
  let sp = Speaker.create ~id:0 in
  Speaker.add_peer sp 1 Speaker.To_peer;
  let row = row (fun () -> Speaker.version sp) in
  let p = Prefix.of_string "224.2.0.0/16" and q = Prefix.of_string "224.3.0.0/16" in
  let hear update () = Speaker.receive sp ~from_:1 update in
  let learned prefix = Update.Advertise (Route.through (Route.originate 1 prefix) 1) in
  [
    row "a route is originated" true (fun () -> Speaker.originate sp p);
    row "the same origination again" false (fun () -> Speaker.originate sp p);
    row "a new lifetime on the same route" false (fun () ->
        Speaker.originate ~lifetime_end:(Time.days 30.0) sp p);
    row "a worse route for a held prefix" false (hear (learned p));
    row "a route for a new prefix" true (hear (learned q));
    row "the same advertisement again" false (hear (learned q));
    row "lookups" false (fun () ->
        ignore (Speaker.lookup sp (Prefix.base q));
        ignore (Speaker.best_routes sp));
    row "the route is withdrawn" true (hear (Update.Withdraw q));
    row "a withdraw of an unknown route" false (hear (Update.Withdraw q));
  ]

let test_versions () =
  run_rows "address space" (address_space_rows ());
  run_rows "masc node" (masc_node_rows ());
  run_rows "bgmp router" (bgmp_router_rows ());
  run_rows "speaker" (speaker_rows ())

let suite =
  [
    ("bgmp cycle matches bounded walk", `Quick, test_cycle_matches_bounded_walk);
    ("predicates match reference at every tick", `Quick, test_predicates_match_reference);
    ("overlap order across arenas", `Quick, test_overlap_order_across_arenas);
    ("check allocation", `Quick, test_check_allocation);
    ("state versions move with the state", `Quick, test_versions);
    ( "dependencies cover what the predicates read",
      `Quick,
      test_dependencies_cover_what_predicates_read );
    ( "transit-stub internet matches reference at every tick",
      `Quick,
      test_transit_stub_matches_reference );
  ]
