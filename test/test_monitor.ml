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

let of_inv name vs =
  List.filter_map
    (fun (v : Invariant.violation) ->
      if v.Invariant.inv = name then Some (v.Invariant.detail, v.Invariant.trace_id) else None)
    vs

(* 80 schedules from the explorer's own generator on the default
   arena: its 20 enumerated single faults (the §4.4 canaries among them,
   so the overlap predicate's violation path runs) and 60 seeded random
   ones. *)
let test_predicates_match_reference () =
  let arena = Oracle.default_arena in
  let topo =
    Gen.masc_hierarchy ~tops:arena.Oracle.tops ~children_per_top:arena.Oracle.children_per_top
  in
  let schedules =
    Fault_gen.generate ~topo ~budget:80 ~max_faults:6 ~seed:19
      ~horizon:Explore.default_config.Explore.horizon
  in
  let ticks = ref 0 and overlap_ticks = ref 0 and final_overlaps = ref 0 in
  let compare_all ~at inet vs ~settled =
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
      let outcome, inet = Oracle.run ~arena ~on_check ~seed:(1000 + i) schedule in
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
  check bool "overlap violations seen at some final checks" true (!final_overlaps > 0)

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
   default oracle arena (no fault, every predicate holds), after one
   warm-up check has built the sweeps' scratch.  Measured at 384 bytes
   under the default dev profile, all of it in the cycle pass: the
   closure [Hashtbl.iter] builds per router while the groups are
   gathered, and the [Via] boxes of the G-RIB answers the parent walks
   ask for.  The MASC overlap sweep allocates nothing.  The bound is
   1.25x the measured value. *)
let check_minor_bytes_bound = 480.0

let test_check_allocation () =
  let _, inet = Oracle.run ~arena:Oracle.default_arena ~seed:7 [] in
  let inv = Internet.invariants inet in
  check int "holds on the settled arena" 0 (List.length (Invariant.check ~quiescent:false inv));
  let minor0 = Gc.minor_words () in
  let vs = Invariant.check ~quiescent:false inv in
  let minor1 = Gc.minor_words () in
  check int "still holds" 0 (List.length vs);
  let minor_bytes = (minor1 -. minor0) *. float_of_int (Sys.word_size / 8) in
  check bool
    (Printf.sprintf "minor bytes %.0f within %.0f" minor_bytes check_minor_bytes_bound)
    true
    (minor_bytes <= check_minor_bytes_bound)

let suite =
  [
    ("bgmp cycle matches bounded walk", `Quick, test_cycle_matches_bounded_walk);
    ("predicates match reference at every tick", `Quick, test_predicates_match_reference);
    ("overlap order across arenas", `Quick, test_overlap_order_across_arenas);
    ("check allocation", `Quick, test_check_allocation);
  ]
