(* masc-bgmp: command-line driver for the paper's experiments.

   One subcommand per evaluation artifact (see DESIGN.md §3):
     fig2             MASC address-space utilization and G-RIB size
     fig4             tree path-length overheads vs SPT
     ablate-placement first-sub-prefix vs random claim placement (A2)
     ablate-threshold occupancy-threshold sweep (A3)
     ablate-root      root-domain placement sensitivity (A4)
     ablate-claim     claim-collide vs query-response robustness (A1)
     beacon           dbeacon-style active measurement: NxN delivery matrix
     trace            inspect a recording's narrative: timelines, latencies, causal chains
     report           summarize profile/telemetry/metrics artifacts of a run
     demo             end-to-end run on the Figure-1 topology

   Every experiment accepts --check-invariants: live invariant
   evaluation with violations on stderr and a non-zero exit, leaving
   stdout byte-identical. *)

let print_series ppf series = List.iter (Stats.pp_series ppf) series

(* ---------------- observability flags -------------------------------- *)

(* Every subcommand runs under [with_obs]: the shared --metrics /
   --profile / --sample handling lives in this one record, one cmdliner
   term and one exit path, so each experiment only wires the sinks it
   feeds.  The registry is reset up front so back-to-back invocations in
   one process would start clean; at exit the metrics snapshot goes to
   stderr (dest = "-") or to a JSON file, the profile tree goes to its
   JSONL file, and the telemetry sink is flushed.  Stdout stays
   byte-identical with everything on: the figure outputs are diffed in
   tests. *)

type obs = {
  obs_metrics : string option;  (* --metrics[=FILE]; "-" = stderr table *)
  obs_profile : string option;  (* --profile[=FILE]: Prof tree as JSONL *)
  obs_sample : float option;  (* --sample EVERY: telemetry cadence, sim seconds *)
  obs_record : string option;  (* --record[=FILE]: flight-recorder JSONL *)
  obs_fingerprint : bool;  (* --fingerprint: run fingerprint on stderr *)
}

let timeseries_file = "timeseries.jsonl"

(* [f] receives [Some (sink, every)] when --sample was given; the
   experiment decides how to drive the sink (engine sampler, figure
   cadence, per-point). *)
let with_obs obs f =
  Metrics.reset Metrics.default;
  Span.reset ();
  if obs.obs_profile <> None then Prof.enable ();
  if obs.obs_record <> None || obs.obs_fingerprint then
    Recorder.enable ?sink:obs.obs_record ();
  let sampling =
    Option.map
      (fun every -> (Timeseries.create ~sink:(Timeseries.Jsonl timeseries_file) (), every))
      obs.obs_sample
  in
  let t0 = Sys.time () in
  let finish () =
    (match obs.obs_metrics with
    | None -> ()
    | Some target ->
        Metrics.set (Metrics.gauge "harness.wall_seconds") (Sys.time () -. t0);
        let snap = Metrics.snapshot Metrics.default in
        if target = "-" then Format.eprintf "%a@?" Metrics.pp snap
        else begin
          let oc = open_out target in
          output_string oc (Metrics.to_json snap);
          output_char oc '\n';
          close_out oc
        end);
    (match obs.obs_profile with
    | None -> ()
    | Some file ->
        Prof.write_jsonl file;
        Prof.disable ());
    if obs.obs_record <> None || obs.obs_fingerprint then begin
      if obs.obs_fingerprint then
        Format.eprintf "%a@?" Recorder.pp_fingerprint (Recorder.fingerprint ());
      Recorder.disable ()
    end;
    Option.iter (fun (ts, _) -> Timeseries.close ts) sampling
  in
  Fun.protect ~finally:finish (fun () -> f sampling)

(* ---------------- invariant reporting -------------------------------- *)

(* All --check-invariants output goes to stderr: the figure output on
   stdout must stay byte-identical with checks on. *)
let fail_on_violations what n =
  if n > 0 then begin
    Format.eprintf "%s: %d invariant violation(s) detected@." what n;
    exit 1
  end
  else Format.eprintf "%s: invariants clean@." what

let report_inet_violations what inet =
  let vs = Internet.invariant_violations inet in
  List.iter (fun v -> Format.eprintf "%a@." Invariant.pp_violation v) vs;
  fail_on_violations what (List.length vs)

(* ---------------- fig2 ---------------------------------------------- *)

let fig2_series (r : Allocation_sim.result) =
  let pick f = Array.map (fun (s : Allocation_sim.sample) -> (s.Allocation_sim.day, f s)) r.Allocation_sim.samples in
  [
    { Stats.label = "utilization"; points = pick (fun s -> s.Allocation_sim.utilization) };
    { Stats.label = "grib-avg"; points = pick (fun s -> s.Allocation_sim.grib_avg) };
    {
      Stats.label = "grib-max";
      points = pick (fun s -> float_of_int s.Allocation_sim.grib_max);
    };
  ]

let fig2_summary r =
  let steady = Allocation_sim.steady_state r ~from_day:400.0 in
  let avg f = Stats.mean_of (Array.of_list (List.map f steady)) in
  Format.printf "--- Figure 2 summary (steady state, day >= 400) ---@.";
  Format.printf "samples                : %d@." (List.length steady);
  Format.printf "utilization            : %.3f   (paper: ~0.50)@."
    (avg (fun (s : Allocation_sim.sample) -> s.Allocation_sim.utilization));
  Format.printf "G-RIB avg              : %.1f   (paper: ~175)@."
    (avg (fun (s : Allocation_sim.sample) -> s.Allocation_sim.grib_avg));
  Format.printf "G-RIB max              : %.1f   (paper: <=180)@."
    (avg (fun (s : Allocation_sim.sample) -> float_of_int s.Allocation_sim.grib_max));
  Format.printf "outstanding blocks     : %.0f   (paper: 37500)@."
    (avg (fun (s : Allocation_sim.sample) -> float_of_int s.Allocation_sim.outstanding_blocks));
  Format.printf "failed block requests  : %d@." r.Allocation_sim.failed_requests;
  Format.printf "claims made            : %d@." r.Allocation_sim.claims_made

let run_fig2 check summary_only days hetero seed sampling =
  let p =
    {
      Allocation_sim.default_params with
      Allocation_sim.horizon = Time.days (float_of_int days);
      hetero_spread = hetero;
      check_invariants = check;
      seed;
      telemetry = Option.map fst sampling;
    }
  in
  Format.printf "# MASC claim simulation: 50 top-level domains, 50 (+/- %d) children each, %d days@."
    hetero days;
  let r = Allocation_sim.run p in
  if not summary_only then print_series Format.std_formatter (fig2_series r);
  fig2_summary r;
  if check then fail_on_violations "fig2" r.Allocation_sim.invariant_violations

(* ---------------- fig4 ---------------------------------------------- *)

let fig4_summary (r : Tree_experiment.result) =
  Format.printf "--- Figure 4 summary ---@.";
  Format.printf "%8s %10s %10s %10s %10s %10s %10s@." "size" "uni-avg" "uni-max" "bi-avg"
    "bi-max" "hy-avg" "hy-max";
  List.iter
    (fun (pt : Tree_experiment.point) ->
      Format.printf "%8d %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f@."
        pt.Tree_experiment.group_size pt.Tree_experiment.uni_avg pt.Tree_experiment.uni_max
        pt.Tree_experiment.bi_avg pt.Tree_experiment.bi_max pt.Tree_experiment.hy_avg
        pt.Tree_experiment.hy_max)
    r.Tree_experiment.points;
  Format.printf
    "worst-case ratios: unidirectional %.1f, bidirectional %.1f, hybrid %.1f@."
    r.Tree_experiment.worst_uni r.Tree_experiment.worst_bi r.Tree_experiment.worst_hy;
  Format.printf
    "(paper, in-text: unidirectional avg ~2x / max up to 6x; bidirectional avg <1.3x / max \
     4.5x; hybrid avg <1.2x / max 4x)@."

let run_fig4 check summary_only nodes trials topology seed sampling =
  let topology = if topology = "transit-stub" then `Transit_stub else `Power_law in
  let p =
    {
      Tree_experiment.default_params with
      Tree_experiment.nodes;
      trials;
      topology;
      check_invariants = check;
      seed;
      telemetry = Option.map fst sampling;
    }
  in
  Format.printf "# Tree quality: %d-node %s topology, %d trials per group size@." nodes
    (match topology with `Power_law -> "power-law" | `Transit_stub -> "transit-stub")
    trials;
  let r = Tree_experiment.run p in
  if not summary_only then print_series Format.std_formatter (Tree_experiment.series_of_result r);
  fig4_summary r;
  if check then fail_on_violations "fig4" r.Tree_experiment.invariant_violations

(* ---------------- fig4-modern ---------------------------------------- *)

let run_fig4_modern check summary_only domains groups roots events link_every trials scratch seed
    jobs sampling =
  let mode = if scratch then Modern_experiment.Scratch else Modern_experiment.Incremental in
  let p =
    {
      Modern_experiment.default_params with
      Modern_experiment.domains;
      groups;
      roots;
      events;
      link_every;
      trials;
      seed;
      mode;
      jobs;
      check_invariants = check;
      telemetry = Option.map fst sampling;
    }
  in
  Format.printf
    "# fig4-modern: state vs members at scale (%d-domain target, %d groups x %d trials, %s \
     route maintenance)@."
    domains groups trials
    (match mode with
    | Modern_experiment.Incremental -> "incremental"
    | Modern_experiment.Scratch -> "from-scratch");
  let r = Modern_experiment.run p in
  Format.printf "topology: %d domains, %d links@." r.Modern_experiment.r_domains
    r.Modern_experiment.r_links;
  if not summary_only then
    List.iter
      (fun ck ->
        Format.printf "fig4-modern %d %.1f %.1f %.1f@." ck.Modern_experiment.ck_events
          ck.Modern_experiment.ck_members ck.Modern_experiment.ck_entries
          ck.Modern_experiment.ck_grib)
      r.Modern_experiment.checkpoints;
  Modern_experiment.pp_summary Format.std_formatter r;
  if check then fail_on_violations "fig4-modern" r.Modern_experiment.invariant_violations

(* ---------------- ablations ------------------------------------------ *)

let run_ablate_placement check days seed =
  Format.printf "# A2: claim placement rule (first-sub-prefix vs random), %d days@." days;
  let param placement =
    {
      Allocation_sim.default_params with
      Allocation_sim.horizon = Time.days (float_of_int days);
      placement;
      check_invariants = check;
      seed;
    }
  in
  (* The two runs are independent full simulations: fan them out. *)
  let results = Allocation_sim.run_many [ param `First; param `Random ] in
  let bad =
    List.fold_left (fun acc r -> acc + r.Allocation_sim.invariant_violations) 0 results
  in
  let steady r = Allocation_sim.steady_state r ~from_day:(float_of_int days /. 2.0) in
  let describe tag r =
    let s = steady r in
    let avg f = Stats.mean_of (Array.of_list (List.map f s)) in
    Format.printf "%-18s util=%.3f grib-avg=%.1f grib-max=%.1f claims=%d@." tag
      (avg (fun (x : Allocation_sim.sample) -> x.Allocation_sim.utilization))
      (avg (fun (x : Allocation_sim.sample) -> x.Allocation_sim.grib_avg))
      (avg (fun (x : Allocation_sim.sample) -> float_of_int x.Allocation_sim.grib_max))
      r.Allocation_sim.claims_made
  in
  List.iter2 describe [ "first-sub-prefix"; "random-placement" ] results;
  if check then fail_on_violations "ablate-placement" bad

let run_ablate_threshold check days seed =
  Format.printf "# A3: occupancy-threshold sweep (utilization vs aggregation), %d days@." days;
  let thresholds = [ 0.5; 0.75; 0.9 ] in
  let results =
    (* One independent simulation per threshold: fan them out. *)
    Allocation_sim.run_many
      (List.map
         (fun threshold ->
           {
             Allocation_sim.default_params with
             Allocation_sim.horizon = Time.days (float_of_int days);
             policy = { Claim_policy.default_params with Claim_policy.threshold };
             check_invariants = check;
             seed;
           })
         thresholds)
  in
  let bad =
    List.fold_left (fun acc r -> acc + r.Allocation_sim.invariant_violations) 0 results
  in
  List.iter2
    (fun threshold r ->
      let s = Allocation_sim.steady_state r ~from_day:(float_of_int days /. 2.0) in
      let avg f = Stats.mean_of (Array.of_list (List.map f s)) in
      Format.printf "threshold=%.2f  util=%.3f  grib-avg=%.1f  grib-max=%.1f@." threshold
        (avg (fun (x : Allocation_sim.sample) -> x.Allocation_sim.utilization))
        (avg (fun (x : Allocation_sim.sample) -> x.Allocation_sim.grib_avg))
        (avg (fun (x : Allocation_sim.sample) -> float_of_int x.Allocation_sim.grib_max)))
    thresholds results;
  if check then fail_on_violations "ablate-threshold" bad

let run_ablate_root check nodes trials seed =
  Format.printf "# A4: root-domain placement (group size 100, %d-node power-law)@." nodes;
  let bad = ref 0 in
  List.iter
    (fun (tag, placement) ->
      let r =
        Tree_experiment.run
          {
            Tree_experiment.default_params with
            Tree_experiment.nodes;
            group_sizes = [ 100 ];
            trials;
            root_placement = placement;
            check_invariants = check;
            seed;
          }
      in
      bad := !bad + r.Tree_experiment.invariant_violations;
      match r.Tree_experiment.points with
      | [ pt ] ->
          Format.printf "%-16s bi-avg=%.2f bi-max=%.2f hy-avg=%.2f uni-avg=%.2f@." tag
            pt.Tree_experiment.bi_avg pt.Tree_experiment.bi_max pt.Tree_experiment.hy_avg
            pt.Tree_experiment.uni_avg
      | _ -> ())
    [
      ("at-initiator", Tree_experiment.Root_at_initiator);
      ("at-source", Tree_experiment.Root_at_source);
      ("random", Tree_experiment.Root_random);
    ];
  if check then fail_on_violations "ablate-root" !bad

let run_ablate_kampai check days seed =
  Format.printf
    "# A5: contiguous CIDR claims vs Kampai non-contiguous masks (100 domains, %d days)@." days;
  let r =
    Kampai.Sim.run
      {
        Kampai.Sim.default_params with
        Kampai.Sim.horizon = Time.days (float_of_int days);
        seed;
      }
  in
  let show tag (s : Kampai.Sim.side) =
    Format.printf "%-12s util=%.3f table-entries=%.1f failures=%d renumberings=%d@." tag
      s.Kampai.Sim.utilization s.Kampai.Sim.table_entries s.Kampai.Sim.failures
      s.Kampai.Sim.renumberings
  in
  show "contiguous" r.Kampai.Sim.contiguous;
  show "kampai" r.Kampai.Sim.kampai;
  if check then Format.eprintf "ablate-kampai: no live invariants apply@.";
  Format.printf
    "(the paper, §4.3.3/§7: non-contiguous masks \"would provide even better address space      utilization\" at the cost of operational complexity)@."

(* A1: decentralised claim-collide keeps allocating during a partition
   among siblings (collisions are detected and repaired after the heal),
   whereas a query-response allocator with a single root of the
   hierarchy simply fails every request from the partitioned side. *)
let run_ablate_claim check seed =
  Format.printf "# A1: claim-collide vs query-response under a 2-day partition@.";
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let config =
    {
      Masc_node.default_config with
      Masc_node.claim_wait = Time.hours 4.0;
      claim_lifetime = Time.days 20.0;
      renew_margin = Time.days 1.0;
    }
  in
  (* Two top-level domains; both keep allocating while partitioned. *)
  let net =
    Masc_network.create ~engine ~rng ~config ~parent_of:(fun _ -> None) ~ids:[ 0; 1 ] ()
  in
  Masc_network.start net;
  Masc_network.partition net 0 1;
  Masc_node.request_space (Masc_network.node net 0) ~need:1024;
  Masc_node.request_space (Masc_network.node net 1) ~need:1024;
  Engine.run ~until:(Time.days 1.0) engine;
  let acquired id = List.length (Masc_node.acquired_ranges (Masc_network.node net id)) in
  Format.printf "claim-collide: during partition, domain 0 acquired %d range(s), domain 1 %d@."
    (acquired 0) (acquired 1);
  List.iter
    (fun id ->
      let node = Masc_network.node net id in
      List.iter
        (fun (c : Masc_node.own_claim) ->
          Masc_node.note_assigned node c.Masc_node.claim_prefix 16)
        (Masc_node.acquired_ranges node))
    [ 0; 1 ];
  Masc_network.heal net 0 1;
  Engine.run ~until:(Time.days 30.0) engine;
  Format.printf
    "claim-collide: after heal, %d collision(s) repaired; final allocations disjoint: %b@."
    (Masc_network.total_collisions net)
    (let all =
       List.concat_map
         (fun id ->
           List.map
             (fun (c : Masc_node.own_claim) -> c.Masc_node.claim_prefix)
             (Masc_node.acquired_ranges (Masc_network.node net id)))
         [ 0; 1 ]
     in
     not
       (List.exists
          (fun a -> List.exists (fun b -> (not (Prefix.equal a b)) && Prefix.overlaps a b) all)
          all));
  (* Query-response strawman: one root server; requests from the
     partitioned side are lost. *)
  let served = ref 0 and failed = ref 0 in
  let partitioned id = id = 1 in
  List.iter
    (fun id -> if partitioned id then incr failed else incr served)
    [ 0; 1 ];
  Format.printf
    "query-response: same scenario, single allocation root reachable only by domain 0:@.";
  Format.printf
    "query-response: %d request(s) served, %d blocked for the entire partition (no allocation \
     possible)@."
    !served !failed;
  if check then begin
    (* The §4 repair guarantee: after the heal settles, no two domains
       hold overlapping acquired ranges. *)
    let all =
      List.concat_map
        (fun id ->
          List.map
            (fun (c : Masc_node.own_claim) -> (id, c.Masc_node.claim_prefix))
            (Masc_node.acquired_ranges (Masc_network.node net id)))
        [ 0; 1 ]
    in
    let overlaps =
      List.concat_map
        (fun (a, pa) ->
          List.filter_map
            (fun (b, pb) ->
              if a < b && Prefix.overlaps pa pb then Some (a, b, pa, pb) else None)
            all)
        all
    in
    List.iter
      (fun (a, b, pa, pb) ->
        Format.eprintf "overlap survived the heal: domain %d %s vs domain %d %s@." a
          (Prefix.to_string pa) b (Prefix.to_string pb))
      overlaps;
    fail_on_violations "ablate-claim" (List.length overlaps)
  end

let run_baselines check nodes trials seed =
  Format.printf "# Related-work baselines (§6) vs BGMP hybrid trees, %d-node power-law@." nodes;
  Format.printf "## HPIM (hash-placed RP hierarchy, 3 levels)@.";
  List.iter
    (fun (pt : Baselines.comparison_point) ->
      Format.printf "size=%4d  hpim avg=%.2f max=%.2f  |  bgmp-hybrid avg=%.2f max=%.2f@."
        pt.Baselines.cmp_group_size pt.Baselines.hpim_avg pt.Baselines.hpim_max
        pt.Baselines.bgmp_hybrid_avg pt.Baselines.bgmp_hybrid_max)
    (Baselines.compare_hpim ~nodes ~trials ~seed ());
  Format.printf
    "(paper: \"as HPIM uses hash functions to choose the next RP at each level, the trees can      be very bad in the worst case\")@.";
  Format.printf "@.## HDVMRP (inter-region flood and prune)@.";
  let topo = Gen.power_law ~rng:(Rng.create seed) ~n:nodes ~m:2 in
  List.iter
    (fun members ->
      let c = Baselines.hdvmrp_costs topo ~senders:5 ~groups:100 ~members in
      Format.printf
        "members=%4d: flood deliveries=%d, prunes=%d, per-router (S,G) state=%d (BGMP state          grows only with the tree)@."
        members c.Baselines.flood_deliveries c.Baselines.prune_messages
        c.Baselines.per_router_state)
    [ 10; 100; 500 ];
  if check then Format.eprintf "baselines: no live invariants apply@."

(* ---------------- dot -------------------------------------------------- *)

(* Render the Figure-3 scenario as Graphviz: topology + the shared tree
   for the walkthrough group.  Pipe through `dot -Tsvg`. *)
let run_dot check loss () =
  let w = Scenario.figure3 ~loss () in
  let topo = w.Scenario.walkthrough_topo in
  let tree_domains = Bgmp_fabric.tree_domains w.Scenario.fabric ~group:w.Scenario.walkthrough_group in
  (* Tree edges: for each on-tree router with an external peer parent or
     child, the corresponding inter-domain link. *)
  let edges = ref [] in
  List.iter
    (fun (d : Domain.t) ->
      List.iter
        (fun r ->
          match Bgmp_router.star_entry r w.Scenario.walkthrough_group with
          | None -> ()
          | Some e ->
              let note = function
                | Bgmp_router.Peer rid ->
                    let other =
                      List.find_map
                        (fun (dd : Domain.t) ->
                          List.find_map
                            (fun rr ->
                              if Bgmp_router.id rr = rid then Some dd.Domain.id else None)
                            (Bgmp_fabric.routers_of w.Scenario.fabric dd.Domain.id))
                        (Topo.domains topo)
                    in
                    (match other with
                    | Some o -> edges := (d.Domain.id, o) :: !edges
                    | None -> ())
                | Bgmp_router.Migp_target | Bgmp_router.Internal_router _ -> ()
              in
              (match e.Bgmp_router.parent with Some t -> note t | None -> ());
              List.iter note e.Bgmp_router.children)
        (Bgmp_fabric.routers_of w.Scenario.fabric d.Domain.id))
    (Topo.domains topo);
  print_string
    (Topo_dot.to_dot ~highlight:tree_domains ~highlight_edges:!edges
       ~label:"Figure 3: shared tree for 224.0.128.1 (root B)" topo);
  if check then begin
    let vs = Bgmp_fabric.tree_violations w.Scenario.fabric ~quiescent:true in
    List.iter (fun (detail, _) -> Format.eprintf "tree invariant: %s@." detail) vs;
    fail_on_violations "dot" (List.length vs)
  end

(* ---------------- soak ------------------------------------------------ *)

let net_total inet counter =
  let net = Internet.net inet in
  List.fold_left (fun acc p -> acc + counter net ~protocol:p) 0 [ "masc"; "bgp"; "bgmp" ]

(* A randomized long-run stress of the integrated stack: group churn,
   random senders, and occasional link failures/restores, checking the
   exact-delivery invariant continuously. *)
let run_soak check steps seed loss sampling =
  Format.printf "# soak: %d randomized steps over a transit-stub internetwork (seed %d)@." steps
    seed;
  let rng = Rng.create seed in
  let topo = Gen.transit_stub ~rng ~backbones:2 ~regionals_per_backbone:3 ~stubs_per_regional:3 in
  let inet = Internet.create ~config:{ Internet.quick_config with Internet.loss } topo in
  (match sampling with
  | Some (ts, every) -> Internet.enable_sampling ~every:(Time.seconds every) inet ts
  | None -> ());
  if check then Internet.enable_invariant_checks inet;
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);
  let n = Topo.domain_count topo in
  let initiator = 5 in
  let rec get tries =
    match Internet.request_address inet initiator with
    | Some a -> a
    | None ->
        if tries > 50 then begin
          Format.eprintf "soak: allocation never settled@.";
          exit 2
        end
        else begin
          Internet.run_for inet (Time.hours 1.0);
          get (tries + 1)
        end
  in
  let group = (get 0).Maas.address in
  let members = Array.make n false in
  let broken = ref None in
  let violations = ref 0 in
  let checks = ref 0 in
  for step = 1 to steps do
    (match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 -> (
        (* toggle a membership *)
        let d = Rng.int rng n in
        if members.(d) then begin
          Internet.leave inet ~host:(Host_ref.make d 0) ~group;
          members.(d) <- false
        end
        else begin
          Internet.join inet ~host:(Host_ref.make d 0) ~group;
          members.(d) <- true
        end)
    | 4 -> (
        (* break or heal a random link *)
        match !broken with
        | Some (a, b) ->
            Format.printf "step %4d: restore %d-%d@." step a b;
            Internet.restore_link inet a b;
            broken := None
        | None -> (
            let links = Array.of_list (Topo.links topo) in
            let l = Rng.pick rng links in
            (* Avoid partitioning the root's own attachments entirely;
               pick stub-side links only. *)
            if
              (Topo.domain topo l.Topo.b).Domain.kind = Domain.Stub
              && l.Topo.b <> initiator
            then begin
              Format.printf "step %4d: fail %d-%d@." step l.Topo.a l.Topo.b;
              Internet.fail_link inet l.Topo.a l.Topo.b;
              broken := Some (l.Topo.a, l.Topo.b)
            end))
    | _ -> ());
    Internet.run_for inet (Time.minutes 10.0);
    let src = Host_ref.make (Rng.int rng n) 42 in
    let payload = Internet.send inet ~source:src ~group in
    Internet.run_for inet (Time.minutes 10.0);
    let got =
      List.sort_uniq compare
        (List.map (fun (h, _) -> h.Host_ref.host_domain) (Internet.deliveries inet ~payload))
    in
    (* Members behind the broken link are unreachable by design; exclude
       them from the expectation. *)
    let unreachable d = match !broken with Some (_, b) -> d = b | None -> false in
    let want =
      (* A partitioned source still serves its own domain's members
         (interior delivery needs no inter-domain link) but nobody else;
         a partitioned member is excluded from everyone else's
         delivery. *)
      if unreachable src.Host_ref.host_domain then
        if members.(src.Host_ref.host_domain) then [ src.Host_ref.host_domain ] else []
      else List.filter (fun d -> members.(d) && not (unreachable d)) (List.init n (fun i -> i))
    in
    incr checks;
    if got <> want then begin
      incr violations;
      Format.printf "step %4d: MISMATCH src=%d broken=%s got=[%s] want=[%s]@." step
        src.Host_ref.host_domain
        (match !broken with Some (a, b) -> Printf.sprintf "%d-%d" a b | None -> "-")
        (String.concat "," (List.map string_of_int got))
        (String.concat "," (List.map string_of_int want));
      Format.printf "  root=%s tree=[%s]@."
        (match Internet.root_domain_of inet group with
        | Some r -> string_of_int r
        | None -> "NONE")
        (String.concat ","
           (List.map string_of_int (Bgmp_fabric.tree_domains (Internet.fabric inet) ~group)))
    end
  done;
  Format.printf "soak complete: %d delivery checks, %d violations, %d duplicates@." !checks
    !violations
    (Bgmp_fabric.duplicate_deliveries (Internet.fabric inet));
  if loss > 0.0 then
    (* Exact delivery is not an invariant under message loss: dropped
       joins and data are the point of the exercise.  Report the
       transport's accounting instead of failing. *)
    Format.printf "transport (loss %.2f): %d sent, %d delivered, %d dropped@." loss
      (net_total inet Net.sent) (net_total inet Net.delivered) (net_total inet Net.dropped)
  else if !violations > 0 then exit 1;
  if check then begin
    (* Quiescent-only predicates are sound here only when no link is
       down (a partitioned member legitimately keeps local state). *)
    ignore (Internet.check_invariants ~quiescent:(!broken = None) inet);
    report_inet_violations "soak" inet
  end

(* ---------------- demo ----------------------------------------------- *)

let run_demo check loss sampling () =
  let topo = Gen.figure1 () in
  let inet = Internet.create ~config:{ Internet.quick_config with Internet.loss } topo in
  (match sampling with
  | Some (ts, every) -> Internet.enable_sampling ~every:(Time.seconds every) inet ts
  | None -> ());
  if check then Internet.enable_invariant_checks inet;
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);
  let dom name = Option.get (Topo.find_by_name topo name) in
  let name_of d = (Topo.domain topo d).Domain.name in
  let rec get tries =
    match Internet.request_address inet (dom "B") with
    | Some a -> a
    | None ->
        if tries > 30 then begin
          Format.eprintf "demo: allocation did not settle@.";
          exit 2
        end
        else begin
          Internet.run_for inet (Time.hours 1.0);
          get (tries + 1)
        end
  in
  let alloc = get 0 in
  let group = alloc.Maas.address in
  Format.printf "group %a rooted at %s@." Ipv4.pp group
    (match Internet.root_domain_of inet group with
    | Some r -> name_of r
    | None -> "?");
  List.iter
    (fun n -> Internet.join inet ~host:(Host_ref.make (dom n) 0) ~group)
    [ "C"; "D"; "F"; "G" ];
  Internet.run_for inet (Time.minutes 30.0);
  let p = Internet.send inet ~source:(Host_ref.make (dom "E") 1) ~group in
  Internet.run_for inet (Time.minutes 5.0);
  List.iter
    (fun (h, hops) ->
      Format.printf "%s received (%d hops)@." (name_of h.Host_ref.host_domain) hops)
    (Internet.deliveries inet ~payload:p);
  if loss > 0.0 then
    Format.printf "transport (loss %.2f): %d sent, %d delivered, %d dropped@." loss
      (net_total inet Net.sent) (net_total inet Net.delivered) (net_total inet Net.dropped);
  if check then begin
    ignore (Internet.check_invariants ~quiescent:true inet);
    report_inet_violations "demo" inet
  end

(* ---------------- beacon ---------------------------------------------- *)

(* dbeacon-style active measurement: beacon fleets over real BGMP trees,
   N x N delivery matrix on stdout, optional JSONL export for the
   [report --matrix] view. *)
let run_beacon check domains per_domain probes trials seed loss churn matrix_out jobs sampling =
  if trials > 1 && sampling <> None then
    Format.eprintf "beacon: --sample needs a single trial; telemetry disabled@.";
  let p =
    {
      Beacon_campaign.default_params with
      Beacon_campaign.domains;
      per_domain;
      probes;
      trials;
      seed;
      loss;
      churn;
      telemetry =
        (if trials > 1 then None
         else Option.map (fun (ts, every) -> (ts, Time.seconds every)) sampling);
    }
  in
  Format.printf
    "# beacon: %d domains, %d beacon(s)/domain + interdomain session, %d probes/source, %d \
     trial(s), loss %.2f%s@."
    domains per_domain probes trials loss
    (if churn then ", churn" else "");
  let r = Beacon_campaign.run ~jobs p in
  List.iter
    (fun (t : Beacon_campaign.trial_result) ->
      Format.printf
        "trial %d: domains=%d sources=%d probes=%d delivered=%d lost=%d dup=%d data-msgs=%d \
         net-drops=%d converged=%.3fs window=[%.3fs, %.3fs]@."
        t.Beacon_campaign.r_trial t.Beacon_campaign.r_domains t.Beacon_campaign.r_sources
        t.Beacon_campaign.r_probes_sent t.Beacon_campaign.r_deliveries
        t.Beacon_campaign.r_lost t.Beacon_campaign.r_duplicates
        t.Beacon_campaign.r_data_msgs t.Beacon_campaign.r_net_dropped
        t.Beacon_campaign.r_converged_s t.Beacon_campaign.r_first_probe_s
        t.Beacon_campaign.r_last_harvest_s)
    r.Beacon_campaign.trials;
  Format.printf "--- delivery matrix ---@.";
  Format.printf "%a@." Beacon_matrix.pp_summary r.Beacon_campaign.agg;
  let worst = Beacon_matrix.worst r.Beacon_campaign.cells ~n:5 in
  if List.exists (fun (c : Beacon_matrix.cell) -> c.Beacon_matrix.c_loss > 0.0) worst
  then begin
    Format.printf "--- worst pairs ---@.";
    Format.printf "%a" Beacon_matrix.pp_cells worst
  end;
  (match matrix_out with
  | None -> ()
  | Some file ->
      let t0 = List.hd r.Beacon_campaign.trials in
      let last =
        List.fold_left
          (fun acc (t : Beacon_campaign.trial_result) ->
            Float.max acc t.Beacon_campaign.r_last_harvest_s)
          0.0 r.Beacon_campaign.trials
      in
      Beacon_matrix.write_jsonl
        ~meta:
          [
            ("trials", float_of_int trials);
            ("seed", float_of_int seed);
            ("loss", loss);
            ("domains", float_of_int t0.Beacon_campaign.r_domains);
            ("converged_s", t0.Beacon_campaign.r_converged_s);
            ("first_probe_s", t0.Beacon_campaign.r_first_probe_s);
            ("last_harvest_s", last);
          ]
        file r.Beacon_campaign.cells;
      Format.printf "matrix written to %s@." file);
  if check then begin
    (* The measurement layer's own invariants: accounting closes, trees
       never duplicate, and a lossless churn-free run delivers
       everything. *)
    let bad = ref 0 in
    let agg = r.Beacon_campaign.agg in
    if agg.Beacon_matrix.s_sent <> agg.Beacon_matrix.s_got + agg.Beacon_matrix.s_lost
    then begin
      incr bad;
      Format.eprintf "beacon: %d probes expected but %d+%d accounted@."
        agg.Beacon_matrix.s_sent agg.Beacon_matrix.s_got agg.Beacon_matrix.s_lost
    end;
    List.iter
      (fun (t : Beacon_campaign.trial_result) ->
        if t.Beacon_campaign.r_duplicates > 0 then begin
          incr bad;
          Format.eprintf "beacon: trial %d delivered %d duplicate copies@."
            t.Beacon_campaign.r_trial t.Beacon_campaign.r_duplicates
        end)
      r.Beacon_campaign.trials;
    if loss = 0.0 && (not churn) && not agg.Beacon_matrix.s_complete then begin
      incr bad;
      Format.eprintf "beacon: incomplete matrix despite loss=0 and no churn@."
    end;
    fail_on_violations "beacon" !bad
  end

(* ---------------- report ---------------------------------------------- *)

(* The offline views live in [Report]; a file they cannot read ends the
   command with a one-line message and exit code 2. *)
let reporting f =
  try f () with
  | Report.Unreadable msg ->
      Format.eprintf "%s@." msg;
      exit 2

let run_trace file id = reporting (fun () -> Report.run_trace Format.std_formatter file id)

let run_report profile timeseries metrics series fold matrix triage diff files =
  reporting @@ fun () ->
  let ppf = Format.std_formatter in
  (match (diff, files) with
  | false, [] -> ()
  | false, _ :: _ ->
      Format.eprintf "report: positional recordings are only meaningful with --diff@.";
      exit 2
  | true, [ fa; fb ] -> exit (Report.run_diff_files ppf fa fb)
  | true, _ ->
      Format.eprintf "report --diff: exactly two recording files required (got %d)@."
        (List.length files);
      exit 2);
  (match triage with
  | None -> ()
  | Some file ->
      if Sys.file_exists file then begin
        Report.with_file "ledger" file (fun ledger -> Explore.pp_triage ppf ~ledger);
        exit 0
      end
      else begin
        Format.eprintf "report --triage: %s not found (produce it with the explore subcommand)@."
          file;
        exit 2
      end);
  if Sys.file_exists profile then Report.report_profile ppf profile fold
  else Format.fprintf ppf "profile %s: not found (produce it with --profile)@." profile;
  if Sys.file_exists timeseries then Report.report_timeseries ppf timeseries series
  else
    Format.fprintf ppf "telemetry %s: not found (produce it with --sample EVERY)@." timeseries;
  (match metrics with
  | None -> ()
  | Some file ->
      if Sys.file_exists file then Report.report_metrics ppf file
      else Format.fprintf ppf "metrics %s: not found (produce it with --metrics=FILE)@." file);
  match matrix with
  | None -> ()
  | Some file ->
      if Sys.file_exists file then Report.report_matrix ppf file
      else
        Format.fprintf ppf "matrix %s: not found (produce it with beacon --matrix-out)@." file

(* ---------------- explore -------------------------------------------- *)

let run_explore budget max_faults seed ledger repro_dir =
  let config =
    { Explore.default_config with Explore.budget; max_faults; seed; ledger; repro_dir }
  in
  let s = Explore.run_campaign config in
  Explore.pp_summary Format.std_formatter s

(* ---------------- cmdliner wiring ------------------------------------ *)

open Cmdliner

let summary_flag =
  Arg.(value & flag & info [ "summary" ] ~doc:"Print only the summary, not the data series.")

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect runtime metrics and export a snapshot at exit: a JSON document written to \
           $(docv), or a human-readable table on standard error when $(docv) is \"-\" (the \
           value used when the option is given bare).")

let profile_arg =
  Arg.(
    value
    & opt ~vopt:(Some "profile.jsonl") (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Profile the run: hierarchical wall-clock and allocation spans are collected and \
           written as JSON lines to $(docv) at exit (default profile.jsonl when the option is \
           given bare); inspect them with the $(b,report) subcommand.  Standard output is \
           unchanged.")

let sample_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "sample" ] ~docv:"EVERY"
        ~doc:
          "Record sim-time telemetry series (pending events, per-protocol in-flight messages, \
           G-RIB size, outstanding claims, tree entries) as JSON lines to timeseries.jsonl, \
           sampled every $(docv) simulated seconds; inspect them with the $(b,report) \
           subcommand.  fig2 samples at its figure cadence, fig4 once per group-size point \
           and fig4-modern once per checkpoint, ignoring $(docv).")

let record_arg =
  Arg.(
    value
    & opt ~vopt:(Some "recording.jsonl") (some string) None
    & info [ "record" ] ~docv:"FILE"
        ~doc:
          "Flight-record the run: one JSON line per fired engine event, per transport \
           delivery/drop and per protocol step (claims, G-RIB updates, join hops, probes, \
           violations — the narrative lines, which carry a detail), each with its sim time, \
           label, subject and causal span ids, written to $(docv) (default recording.jsonl \
           when the option is given bare).  Read the narrative with $(b,trace); compare two \
           recordings with $(b,report --diff).  Standard output is unchanged.")

let fingerprint_arg =
  Arg.(
    value & flag
    & info [ "fingerprint" ]
        ~doc:
          "Print the run's fingerprint on standard error at exit: a rolling 64-bit hash of \
           the flight-recorder stream, overall and per label prefix (masc.*, bgp.*, bgmp.*, \
           net.*, ...).  Two runs with equal fingerprints executed the same event stream; \
           the hash is byte-identical at any --jobs.  Standard output is unchanged.")

(* The full observability record for experiments that can drive a
   telemetry sink; [obs_basic_term] for the rest (same --metrics /
   --profile / --record / --fingerprint handling, no --sample). *)
let obs_term =
  Term.(
    const (fun m p s r fp ->
        { obs_metrics = m; obs_profile = p; obs_sample = s; obs_record = r; obs_fingerprint = fp })
    $ metrics_arg $ profile_arg $ sample_arg $ record_arg $ fingerprint_arg)

let obs_basic_term =
  Term.(
    const (fun m p r fp ->
        {
          obs_metrics = m;
          obs_profile = p;
          obs_sample = None;
          obs_record = r;
          obs_fingerprint = fp;
        })
    $ metrics_arg $ profile_arg $ record_arg $ fingerprint_arg)

let seed_arg = Arg.(value & opt int 1998 & info [ "seed" ] ~doc:"Random seed.")

(* Sets the Par pool's default job count for the whole command; the
   experiment layers fan out with that default.  Every output stream
   (stdout, --metrics, --profile, --sample) is byte-identical at any
   value: randomness is drawn before fan-out and Obs shards merge in
   task order. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Run independent work (fig4 trials, ablation simulations, baseline sweeps) on $(docv) \
           runtime domains.  Output is byte-identical at any value; 0 picks the machine's \
           recommended domain count.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Evaluate the live invariants during the run (overlap-free MASC allocations, acyclic \
           and G-RIB-consistent BGMP trees, tree-ratio sanity).  Violations are reported on \
           standard error and make the command exit non-zero; standard output is unchanged.")

let days_arg n = Arg.(value & opt int n & info [ "days" ] ~doc:"Simulated days.")

let loss_arg =
  Arg.(
    value & opt float 0.0
    & info [ "loss" ] ~docv:"P"
        ~doc:
          "Per-message drop probability on every inter-domain channel, applied to all three \
           protocols by the shared transport (deterministic: drawn from a seeded RNG).  At 0 \
           (the default) the run is bit-identical to a loss-free build.")

let fig2_cmd =
  let doc = "Reproduce Figure 2: MASC address-space utilization and G-RIB size over time." in
  let hetero =
    Arg.(
      value & opt int 0
      & info [ "hetero" ]
          ~doc:"Heterogeneity: children per top-level domain vary by +/- this amount.")
  in
  Cmd.v
    (Cmd.info "fig2" ~doc)
    Term.(
      const (fun obs jobs check summary days hetero seed ->
          Par.set_jobs jobs;
          with_obs obs (run_fig2 check summary days hetero seed))
      $ obs_term $ jobs_arg $ check_arg $ summary_flag $ days_arg 800 $ hetero $ seed_arg)

let fig4_cmd =
  let doc = "Reproduce Figure 4: path-length overhead of shared trees vs shortest-path trees." in
  let nodes = Arg.(value & opt int 3326 & info [ "nodes" ] ~doc:"Topology size.") in
  let trials = Arg.(value & opt int 20 & info [ "trials" ] ~doc:"Groups per size.") in
  let topology =
    Arg.(
      value
      & opt string "power-law"
      & info [ "topology" ] ~doc:"Topology family: power-law or transit-stub.")
  in
  Cmd.v
    (Cmd.info "fig4" ~doc)
    Term.(
      const (fun obs jobs check summary nodes trials topology seed ->
          Par.set_jobs jobs;
          with_obs obs (run_fig4 check summary nodes trials topology seed))
      $ obs_term $ jobs_arg $ check_arg $ summary_flag $ nodes $ trials $ topology $ seed_arg)

let fig4_modern_cmd =
  let doc =
    "The state-vs-members study at modern scale: arena-backed per-router state under group and \
     link churn, with incrementally maintained routing."
  in
  let domains =
    Arg.(value & opt int 2000 & info [ "domains" ] ~doc:"Target domain count (transit-stub).")
  in
  let groups = Arg.(value & opt int 200 & info [ "groups" ] ~doc:"Group-id space per trial.") in
  let roots = Arg.(value & opt int 8 & info [ "roots" ] ~doc:"Distinct tree-root domains.") in
  let events = Arg.(value & opt int 4000 & info [ "events" ] ~doc:"Membership events per trial.") in
  let link_every =
    Arg.(
      value & opt int 500
      & info [ "link-every" ]
          ~doc:"One peer-link failure/restore per this many membership events (0 disables).")
  in
  let trials = Arg.(value & opt int 2 & info [ "trials" ] ~doc:"Independent trials (averaged).") in
  let scratch =
    Arg.(
      value & flag
      & info [ "scratch" ]
          ~doc:
            "Recompute every in-use tree from scratch on each link event (the retired baseline) \
             instead of repairing the maintained trees in place.")
  in
  Cmd.v
    (Cmd.info "fig4-modern" ~doc)
    Term.(
      const (fun obs jobs check summary domains groups roots events link_every trials scratch seed ->
          Par.set_jobs jobs;
          with_obs obs
            (run_fig4_modern check summary domains groups roots events link_every trials scratch
               seed jobs))
      $ obs_term $ jobs_arg $ check_arg $ summary_flag $ domains $ groups $ roots $ events
      $ link_every $ trials $ scratch $ seed_arg)

let ablate_placement_cmd =
  Cmd.v
    (Cmd.info "ablate-placement"
       ~doc:"A2: first-sub-prefix vs random claim placement (aggregation impact).")
    Term.(
      const (fun obs jobs check days seed ->
          Par.set_jobs jobs;
          with_obs obs (fun _ -> run_ablate_placement check days seed))
      $ obs_basic_term $ jobs_arg $ check_arg $ days_arg 400 $ seed_arg)

let ablate_threshold_cmd =
  Cmd.v
    (Cmd.info "ablate-threshold"
       ~doc:"A3: occupancy-threshold sweep (utilization/aggregation trade-off).")
    Term.(
      const (fun obs jobs check days seed ->
          Par.set_jobs jobs;
          with_obs obs (fun _ -> run_ablate_threshold check days seed))
      $ obs_basic_term $ jobs_arg $ check_arg $ days_arg 400 $ seed_arg)

let ablate_root_cmd =
  let nodes = Arg.(value & opt int 1000 & info [ "nodes" ] ~doc:"Topology size.") in
  let trials = Arg.(value & opt int 20 & info [ "trials" ] ~doc:"Trials.") in
  Cmd.v
    (Cmd.info "ablate-root" ~doc:"A4: root-domain placement sensitivity for tree quality.")
    Term.(
      const (fun obs check nodes trials seed ->
          with_obs obs (fun _ -> run_ablate_root check nodes trials seed))
      $ obs_basic_term $ check_arg $ nodes $ trials $ seed_arg)

let ablate_kampai_cmd =
  Cmd.v
    (Cmd.info "ablate-kampai"
       ~doc:"A5: contiguous CIDR claims vs Kampai non-contiguous masks.")
    Term.(
      const (fun obs check days seed ->
          with_obs obs (fun _ -> run_ablate_kampai check days seed))
      $ obs_basic_term $ check_arg $ days_arg 400 $ seed_arg)

let ablate_claim_cmd =
  Cmd.v
    (Cmd.info "ablate-claim"
       ~doc:"A1: claim-collide vs query-response allocation under partition.")
    Term.(
      const (fun obs check seed -> with_obs obs (fun _ -> run_ablate_claim check seed))
      $ obs_basic_term $ check_arg $ seed_arg)

let baselines_cmd =
  let nodes = Arg.(value & opt int 1000 & info [ "nodes" ] ~doc:"Topology size.") in
  let trials = Arg.(value & opt int 15 & info [ "trials" ] ~doc:"Trials per group size.") in
  Cmd.v
    (Cmd.info "baselines" ~doc:"Related-work baselines (HPIM, HDVMRP) vs BGMP trees.")
    Term.(
      const (fun obs jobs check nodes trials seed ->
          Par.set_jobs jobs;
          with_obs obs (fun _ -> run_baselines check nodes trials seed))
      $ obs_basic_term $ jobs_arg $ check_arg $ nodes $ trials $ seed_arg)

let dot_cmd =
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz DOT of the Figure-3 topology with its shared tree.")
    Term.(
      const (fun obs jobs check loss () ->
          Par.set_jobs jobs;
          with_obs obs (fun _ -> run_dot check loss ()))
      $ obs_basic_term $ jobs_arg $ check_arg $ loss_arg $ const ())

let soak_cmd =
  let steps = Arg.(value & opt int 300 & info [ "steps" ] ~doc:"Randomized steps.") in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Randomized churn + failure soak of the integrated stack with invariant checking.")
    Term.(
      const (fun obs jobs check steps seed loss ->
          Par.set_jobs jobs;
          with_obs obs (run_soak check steps seed loss))
      $ obs_term $ jobs_arg $ check_arg $ steps $ seed_arg $ loss_arg)

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"End-to-end MASC+BGP+BGMP run on the Figure-1 topology.")
    Term.(
      const (fun obs jobs check loss () ->
          Par.set_jobs jobs;
          with_obs obs (fun sampling -> run_demo check loss sampling ()))
      $ obs_term $ jobs_arg $ check_arg $ loss_arg $ const ())

let beacon_cmd =
  let domains =
    Arg.(value & opt int 20 & info [ "domains" ] ~doc:"Target domain count (rounded to the transit-stub shape).")
  in
  let per_domain =
    Arg.(value & opt int 2 & info [ "per-domain" ] ~doc:"Beacons per domain.")
  in
  let probes = Arg.(value & opt int 3 & info [ "probes" ] ~doc:"Probes per source.") in
  let trials = Arg.(value & opt int 1 & info [ "trials" ] ~doc:"Independent trials.") in
  let churn =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:
            "Fail the last stub's uplink a third of the way through the measurement window and \
             restore it at two thirds.")
  in
  let matrix_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "matrix-out" ] ~docv:"FILE"
          ~doc:
            "Write the delivery matrix as JSON lines to $(docv); inspect it with \
             $(b,report --matrix).")
  in
  Cmd.v
    (Cmd.info "beacon"
       ~doc:
         "Active measurement: beacon fleets probe per-domain groups and an interdomain session \
          over real BGMP trees, accumulating an NxN delivery/loss/latency matrix (dbeacon's \
          view of the multicast internet).")
    Term.(
      const (fun obs jobs check domains per_domain probes trials seed loss churn matrix_out ->
          Par.set_jobs jobs;
          with_obs obs
            (run_beacon check domains per_domain probes trials seed loss churn matrix_out jobs))
      $ obs_term $ jobs_arg $ check_arg $ domains $ per_domain $ probes $ trials $ seed_arg
      $ loss_arg $ churn $ matrix_out)

let trace_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"RECORDING.jsonl" ~doc:"Flight recording (written by --record).")
  in
  let id =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"TRACE_ID"
          ~doc:
            "Render the causal chain for one trace id (e.g. claim:1:224.0.0.0/24, \
             group:224.0.128.1, join:...) instead of the full timelines.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Inspect the protocol narrative of a flight recording: per-chain timelines, end-to-end \
          claim/join latency summaries, and causal chains for a given trace id.")
    Term.(
      const (fun obs file id -> with_obs obs (fun _ -> run_trace file id))
      $ obs_basic_term $ file $ id)

let explore_cmd =
  let budget =
    Arg.(
      value & opt int 50
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Fault schedules to run: every single-fault schedule over the arena's links is \
             enumerated first, then seeded random multi-fault episodes fill the rest of the \
             budget.")
  in
  let max_faults =
    Arg.(
      value & opt int 6
      & info [ "max-faults" ] ~docv:"K" ~doc:"Fault-step ceiling per sampled schedule.")
  in
  let ledger =
    Arg.(
      value
      & opt string "explore_ledger.jsonl"
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Violation ledger: one JSON outcome record per schedule, written in trial order \
             (byte-identical at any --jobs); triage it with $(b,report --triage).")
  in
  let repro_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:
            "Re-run the smallest shrunk counterexamples sequentially with the flight recorder \
             on, writing a replayable recording per counterexample into $(docv) (compare two \
             with $(b,report --diff), read its narrative with $(b,trace)).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Fault-scenario explorer: search link-failure/partition/loss schedules against the \
          invariant oracle (plus non-convergence watermarks), shrink every failure to a minimal \
          counterexample, and append structured outcomes to a violation ledger (triage it with \
          $(b,report --triage)).")
    Term.(
      const (fun obs jobs budget max_faults ledger repro_dir seed ->
          Par.set_jobs jobs;
          with_obs obs (fun _ -> run_explore budget max_faults seed ledger repro_dir))
      $ obs_basic_term $ jobs_arg $ budget $ max_faults $ ledger $ repro_dir $ seed_arg)

let report_cmd =
  let profile =
    Arg.(
      value & opt string "profile.jsonl"
      & info [ "profile" ] ~docv:"FILE" ~doc:"Profile JSONL to read (written by --profile).")
  in
  let timeseries =
    Arg.(
      value
      & opt string "timeseries.jsonl"
      & info [ "timeseries" ] ~docv:"FILE"
          ~doc:"Telemetry JSONL to read (written by --sample).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Metrics JSON snapshot to re-tabulate (written by --metrics=FILE).")
  in
  let series =
    Arg.(
      value
      & opt (some string) None
      & info [ "series" ] ~docv:"NAME"
          ~doc:
            "Dump one telemetry series as (time, value) pairs instead of the summary table \
             (e.g. grib.routes, engine.pending, alloc.utilization).")
  in
  let fold =
    Arg.(
      value
      & opt (some string) None
      & info [ "fold" ] ~docv:"FILE"
          ~doc:
            "Also write flamegraph folded stacks (one \"a;b;c self-microseconds\" line per \
             span) to $(docv).")
  in
  let matrix =
    Arg.(
      value
      & opt (some string) None
      & info [ "matrix" ] ~docv:"FILE"
          ~doc:
            "Delivery-matrix JSONL to summarize (written by $(b,beacon --matrix-out)): \
             measurement timeline, aggregate summary, worst pairs.")
  in
  let triage =
    Arg.(
      value
      & opt (some string) None
      & info [ "triage" ] ~docv:"LEDGER"
          ~doc:
            "Triage an explorer violation ledger (written by $(b,explore)): bucket outcomes by \
             verdict and by violated invariant, rank counterexamples by minimality, and print \
             the blamed causal chain out of each top counterexample's repro recording.  \
             Exclusive with the other report views.")
  in
  let diff =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Compare two flight recordings (written by --record), given as the two positional \
             arguments: find the first semantically divergent record, print an aligned context \
             window and both sides' causal chains.  Exits 0 when identical, 1 on divergence.")
  in
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"RECORDING.jsonl" ~doc:"Recordings to compare (with $(b,--diff)).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Summarize a run's observability artifacts: the per-phase wall-clock/allocation \
          breakdown from a --profile JSONL, sim-time telemetry series from a --sample JSONL, \
          a --metrics JSON snapshot, a beacon delivery matrix, an explorer violation ledger \
          (--triage) — or diff two flight recordings.")
    Term.(
      const run_report $ profile $ timeseries $ metrics $ series $ fold $ matrix $ triage $ diff
      $ files)

let main_cmd =
  let doc = "Experiments for the MASC/BGMP inter-domain multicast architecture (SIGCOMM 1998)." in
  Cmd.group
    (Cmd.info "masc-bgmp" ~version:"1.0.0" ~doc)
    [
      fig2_cmd;
      fig4_cmd;
      fig4_modern_cmd;
      ablate_placement_cmd;
      ablate_threshold_cmd;
      ablate_root_cmd;
      ablate_kampai_cmd;
      ablate_claim_cmd;
      baselines_cmd;
      beacon_cmd;
      soak_cmd;
      explore_cmd;
      dot_cmd;
      trace_cmd;
      report_cmd;
      demo_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
