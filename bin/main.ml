(* masc-bgmp: command-line driver for the paper's experiments.

   One subcommand per evaluation artifact (see DESIGN.md §3):
     fig2             MASC address-space utilization and G-RIB size
     fig4             tree path-length overheads vs SPT
     fig4-modern      per-router state vs members at modern scale, under churn
     ablate-placement first-sub-prefix vs random claim placement (A2)
     ablate-threshold occupancy-threshold sweep (A3)
     ablate-root      root-domain placement sensitivity (A4)
     ablate-kampai    contiguous CIDR claims vs Kampai non-contiguous masks (A5)
     ablate-claim     claim-collide vs query-response robustness (A1)
     baselines        related-work baselines (HPIM, HDVMRP) vs BGMP trees
     beacon           dbeacon-style active measurement: NxN delivery matrix
     soak             randomized churn and link-failure soak of the full stack
     explore          fault-scenario explorer: search, shrink, ledger
     dot              Graphviz DOT of the Figure-3 shared tree
     demo             end-to-end run on the Figure-1 topology
     trace            inspect a recording's narrative: timelines, latencies, causal chains
     report           summarize profile/telemetry/metrics artifacts of a run

   Every experiment is one row built by [experiment], which declares
   whether its entry point fans out (--jobs), drives a telemetry sink
   (--sample) and has live invariants (--check-invariants: violations on
   stderr and a non-zero exit, stdout byte-identical). *)

let print_series ppf series = List.iter (Stats.pp_series ppf) series

(* ---------------- observability flags -------------------------------- *)

(* Every experiment runs under [with_obs]: the shared --metrics /
   --profile / --sample / --record / --fingerprint handling.  The
   registry is reset up front so back-to-back invocations in one process
   would start clean; at exit the metrics snapshot goes to stderr
   (dest = "-") or to a JSON file, the profile tree goes to its JSONL
   file, and the telemetry sink is flushed.  Stdout stays byte-identical
   with everything on: the figure outputs are diffed in tests. *)

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
      (fun every -> (Timeseries.create timeseries_file, every))
      obs.obs_sample
  in
  let t0 = Unix.gettimeofday () in
  let finish () =
    (match obs.obs_metrics with
    | None -> ()
    | Some target ->
        Metrics.set (Metrics.gauge "harness.wall_seconds") (Unix.gettimeofday () -. t0);
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

(* What an experiment's entry point is handed.  Each [run_*] takes its
   own arguments, then a [ctx], and returns its invariant-violation
   count (0 when it has no live invariants). *)
type ctx = {
  check : bool;  (* --check-invariants *)
  sampling : (Timeseries.t * float) option;  (* --sample EVERY: sink and cadence *)
  jobs : int;  (* --jobs *)
}

(* ---------------- fig2 and the allocation ablations ------------------ *)

(* Means of an allocation run's samples from [from_day] on. *)
type steady = {
  samples : int;
  util : float;
  grib_avg : float;
  grib_max : float;
  outstanding : float;
}

let steady r ~from_day =
  let s = Allocation_sim.steady_state r ~from_day in
  let avg f = Stats.mean_of (Array.of_list (List.map f s)) in
  {
    samples = List.length s;
    util = avg (fun (x : Allocation_sim.sample) -> x.Allocation_sim.utilization);
    grib_avg = avg (fun (x : Allocation_sim.sample) -> x.Allocation_sim.grib_avg);
    grib_max = avg (fun (x : Allocation_sim.sample) -> float_of_int x.Allocation_sim.grib_max);
    outstanding =
      avg (fun (x : Allocation_sim.sample) -> float_of_int x.Allocation_sim.outstanding_blocks);
  }

let allocation_params days seed ctx =
  {
    Allocation_sim.default_params with
    Allocation_sim.horizon = Time.days (float_of_int days);
    check_invariants = ctx.check;
    seed;
  }

let total_violations =
  List.fold_left (fun acc r -> acc + r.Allocation_sim.invariant_violations) 0

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

let run_fig2 summary_only days hetero seed ctx =
  let p =
    {
      (allocation_params days seed ctx) with
      Allocation_sim.hetero_spread = hetero;
      telemetry = Option.map fst ctx.sampling;
    }
  in
  Format.printf "# MASC claim simulation: 50 top-level domains, 50 (+/- %d) children each, %d days@."
    hetero days;
  let r = Allocation_sim.run p in
  if not summary_only then print_series Format.std_formatter (fig2_series r);
  let s = steady r ~from_day:400.0 in
  Format.printf "--- Figure 2 summary (steady state, day >= 400) ---@.";
  Format.printf "samples                : %d@." s.samples;
  Format.printf "utilization            : %.3f   (paper: ~0.50)@." s.util;
  Format.printf "G-RIB avg              : %.1f   (paper: ~175)@." s.grib_avg;
  Format.printf "G-RIB max              : %.1f   (paper: <=180)@." s.grib_max;
  Format.printf "outstanding blocks     : %.0f   (paper: 37500)@." s.outstanding;
  Format.printf "failed block requests  : %d@." r.Allocation_sim.failed_requests;
  Format.printf "claims made            : %d@." r.Allocation_sim.claims_made;
  r.Allocation_sim.invariant_violations

(* The two runs are independent full simulations: [run_many] fans them out. *)
let run_ablate_placement days seed ctx =
  Format.printf "# A2: claim placement rule (first-sub-prefix vs random), %d days@." days;
  let param placement = { (allocation_params days seed ctx) with Allocation_sim.placement } in
  let results = Allocation_sim.run_many [ param `First; param `Random ] in
  List.iter2
    (fun tag r ->
      let s = steady r ~from_day:(float_of_int days /. 2.0) in
      Format.printf "%-18s util=%.3f grib-avg=%.1f grib-max=%.1f claims=%d@." tag s.util
        s.grib_avg s.grib_max r.Allocation_sim.claims_made)
    [ "first-sub-prefix"; "random-placement" ] results;
  total_violations results

(* One independent simulation per threshold, fanned out. *)
let run_ablate_threshold days seed ctx =
  Format.printf "# A3: occupancy-threshold sweep (utilization vs aggregation), %d days@." days;
  let thresholds = [ 0.5; 0.75; 0.9 ] in
  let results =
    Allocation_sim.run_many
      (List.map
         (fun threshold ->
           {
             (allocation_params days seed ctx) with
             Allocation_sim.policy = { Claim_policy.default_params with Claim_policy.threshold };
           })
         thresholds)
  in
  List.iter2
    (fun threshold r ->
      let s = steady r ~from_day:(float_of_int days /. 2.0) in
      Format.printf "threshold=%.2f  util=%.3f  grib-avg=%.1f  grib-max=%.1f@." threshold s.util
        s.grib_avg s.grib_max)
    thresholds results;
  total_violations results

(* ---------------- fig4 and the tree studies -------------------------- *)

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

let run_fig4 summary_only nodes trials topology seed ctx =
  let p =
    {
      Tree_experiment.default_params with
      Tree_experiment.nodes;
      trials;
      topology;
      check_invariants = ctx.check;
      seed;
      telemetry = Option.map fst ctx.sampling;
    }
  in
  Format.printf "# Tree quality: %d-node %s topology, %d trials per group size@." nodes
    (match topology with `Power_law -> "power-law" | `Transit_stub -> "transit-stub")
    trials;
  let r = Tree_experiment.run p in
  if not summary_only then print_series Format.std_formatter (Tree_experiment.series_of_result r);
  fig4_summary r;
  r.Tree_experiment.invariant_violations

let run_fig4_modern summary_only domains groups roots events link_every trials scratch seed ctx =
  let mode = if scratch then Modern_experiment.Scratch else Modern_experiment.Incremental in
  let p =
    {
      Modern_experiment.domains;
      groups;
      roots;
      events;
      link_every;
      trials;
      seed;
      mode;
      jobs = ctx.jobs;
      check_invariants = ctx.check;
      telemetry = Option.map fst ctx.sampling;
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
  r.Modern_experiment.invariant_violations

let run_ablate_root nodes trials seed ctx =
  Format.printf "# A4: root-domain placement (group size 100, %d-node power-law)@." nodes;
  List.fold_left
    (fun bad (tag, placement) ->
      let r =
        Tree_experiment.run
          {
            Tree_experiment.default_params with
            Tree_experiment.nodes;
            group_sizes = [ 100 ];
            trials;
            root_placement = placement;
            check_invariants = ctx.check;
            seed;
          }
      in
      (match r.Tree_experiment.points with
      | [ pt ] ->
          Format.printf "%-16s bi-avg=%.2f bi-max=%.2f hy-avg=%.2f uni-avg=%.2f@." tag
            pt.Tree_experiment.bi_avg pt.Tree_experiment.bi_max pt.Tree_experiment.hy_avg
            pt.Tree_experiment.uni_avg
      | _ -> ());
      bad + r.Tree_experiment.invariant_violations)
    0
    [
      ("at-initiator", Tree_experiment.Root_at_initiator);
      ("at-source", Tree_experiment.Root_at_source);
      ("random", Tree_experiment.Root_random);
    ]

let run_baselines nodes trials seed _ =
  Format.printf "# Related-work baselines (§6) vs BGMP hybrid trees, %d-node power-law@." nodes;
  Format.printf "## HPIM (hash-placed RP hierarchy, 3 levels)@.";
  List.iter
    (fun (pt : Baselines.comparison_point) ->
      Format.printf "size=%4d  hpim avg=%.2f max=%.2f  |  bgmp-hybrid avg=%.2f max=%.2f@."
        pt.Baselines.cmp_group_size pt.Baselines.hpim_avg pt.Baselines.hpim_max
        pt.Baselines.bgmp_hybrid_avg pt.Baselines.bgmp_hybrid_max)
    (Baselines.compare_hpim ~nodes ~trials ~seed ());
  Format.printf
    "(paper: \"as HPIM uses hash functions to choose the next RP at each level, the trees can be very bad in the worst case\")@.";
  Format.printf "@.## HDVMRP (inter-region flood and prune)@.";
  let topo = Gen.power_law ~rng:(Rng.create seed) ~n:nodes ~m:2 in
  List.iter
    (fun members ->
      let c = Baselines.hdvmrp_costs topo ~senders:5 ~groups:100 ~members in
      Format.printf
        "members=%4d: flood deliveries=%d, prunes=%d, per-router (S,G) state=%d (BGMP state grows only with the tree)@."
        members c.Baselines.flood_deliveries c.Baselines.prune_messages
        c.Baselines.per_router_state)
    (List.filter (fun members -> members <= nodes) [ 10; 100; 500 ]);
  0

(* ---------------- the claim-algorithm ablations ---------------------- *)

let run_ablate_kampai days seed _ =
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
  Format.printf
    "(the paper, §4.3.3/§7: non-contiguous masks \"would provide even better address space utilization\" at the cost of operational complexity)@.";
  0

(* A1: decentralised claim-collide keeps allocating during a partition
   among siblings (collisions are detected and repaired after the heal),
   whereas a query-response allocator with a single root of the
   hierarchy simply fails every request from the partitioned side. *)
let run_ablate_claim seed ctx =
  Format.printf "# A1: claim-collide vs query-response under a 2-day partition@.";
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let config =
    {
      Masc_node.claim_wait = Time.hours 4.0;
      claim_lifetime = Time.days 20.0;
      renew_margin = Time.days 1.0;
    }
  in
  (* Two top-level domains; both keep allocating while partitioned. *)
  let net =
    Masc_network.create ~engine ~rng ~config ~parent_of:(fun _ -> None) ~ids:[ 0; 1 ] ()
  in
  let acquired id = Masc_node.acquired_ranges (Masc_network.node net id) in
  Masc_network.start net;
  Masc_network.partition net 0 1;
  Masc_node.request_space (Masc_network.node net 0) ~need:1024;
  Masc_node.request_space (Masc_network.node net 1) ~need:1024;
  Engine.run ~until:(Time.days 1.0) engine;
  Format.printf "claim-collide: during partition, domain 0 acquired %d range(s), domain 1 %d@."
    (List.length (acquired 0)) (List.length (acquired 1));
  List.iter
    (fun id ->
      List.iter
        (fun (c : Masc_node.own_claim) ->
          Masc_node.note_assigned (Masc_network.node net id) c.Masc_node.claim_prefix 16)
        (acquired id))
    [ 0; 1 ];
  Masc_network.heal net 0 1;
  Engine.run ~until:(Time.days 30.0) engine;
  (* The §4 repair guarantee: after the heal settles, no two domains
     hold overlapping acquired ranges. *)
  let held =
    List.concat_map
      (fun id ->
        List.map (fun (c : Masc_node.own_claim) -> (id, c.Masc_node.claim_prefix)) (acquired id))
      [ 0; 1 ]
  in
  let overlaps =
    List.concat_map
      (fun (a, pa) ->
        List.filter_map
          (fun (b, pb) -> if a < b && Prefix.overlaps pa pb then Some (a, b, pa, pb) else None)
          held)
      held
  in
  Format.printf
    "claim-collide: after heal, %d collision(s) repaired; final allocations disjoint: %b@."
    (Masc_network.total_collisions net)
    (overlaps = []);
  (* Query-response strawman: one root server, in domain 0; requests
     from the partitioned side are lost. *)
  let served, blocked = List.partition (fun id -> id = 0) [ 0; 1 ] in
  Format.printf
    "query-response: same scenario, single allocation root reachable only by domain 0:@.";
  Format.printf
    "query-response: %d request(s) served, %d blocked for the entire partition (no allocation \
     possible)@."
    (List.length served) (List.length blocked);
  if ctx.check then
    List.iter
      (fun (a, b, pa, pb) ->
        Format.eprintf "overlap survived the heal: domain %d %s vs domain %d %s@." a
          (Prefix.to_string pa) b (Prefix.to_string pb))
      overlaps;
  List.length overlaps

(* ---------------- the integrated stack: dot, soak, demo -------------- *)

(* Render the Figure-3 scenario as Graphviz: topology + the shared tree
   for the walkthrough group.  Pipe through `dot -Tsvg`. *)
let run_dot loss ctx =
  let w = Scenario.figure3 ~loss () in
  let topo = w.Scenario.walkthrough_topo in
  let fabric = w.Scenario.fabric and group = w.Scenario.walkthrough_group in
  (* Tree edges: for each on-tree router with an external peer parent or
     child, the corresponding inter-domain link. *)
  let edges = ref [] in
  List.iter
    (fun (d : Domain.t) ->
      List.iter
        (fun r ->
          match Bgmp_router.star_entry r group with
          | None -> ()
          | Some e ->
              let note = function
                | Bgmp_router.Peer rid ->
                    edges := (d.Domain.id, Bgmp_router.domain (Bgmp_fabric.router fabric rid)) :: !edges
                | Bgmp_router.Migp_target | Bgmp_router.Internal_router _ -> ()
              in
              Option.iter note e.Bgmp_router.parent;
              List.iter note e.Bgmp_router.children)
        (Bgmp_fabric.routers_of fabric d.Domain.id))
    (Topo.domains topo);
  print_string
    (Topo_dot.to_dot ~highlight:(Bgmp_fabric.tree_domains fabric ~group) ~highlight_edges:!edges
       ~label:"Figure 3: shared tree for 224.0.128.1 (root B)" topo);
  if not ctx.check then 0
  else begin
    let vs = Bgmp_fabric.tree_violations fabric ~quiescent:true in
    List.iter (fun (detail, _) -> Format.eprintf "tree invariant: %s@." detail) vs;
    List.length vs
  end

(* soak and demo build the same stack: quick protocol timers, the
   telemetry sink and live monitor when asked, two hours for MASC to
   settle, then one group address from [initiator]'s MAAS, retried
   hourly up to [attempts] requests. *)
let start_internet name ~loss ~initiator ~attempts topo ctx =
  let inet = Internet.create ~config:{ Internet.quick_config with Internet.loss } topo in
  Option.iter
    (fun (ts, every) -> Internet.enable_sampling ~every:(Time.seconds every) inet ts)
    ctx.sampling;
  if ctx.check then Internet.enable_invariant_checks inet;
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);
  match Internet.request_address_retry inet initiator ~every:(Time.hours 1.0) ~attempts with
  | Some a -> (inet, a.Maas.address)
  | None ->
      Format.eprintf "%s: allocation did not settle@." name;
      exit 2

let net_total inet counter =
  let net = Internet.net inet in
  List.fold_left (fun acc p -> acc + counter net ~protocol:p) 0 [ "masc"; "bgp"; "bgmp" ]

(* ... and end the same way: the transport's accounting under loss, and
   the live monitor's violations, after one last sweep. *)
let finish_internet ~loss ~quiescent inet ctx =
  if loss > 0.0 then
    Format.printf "transport (loss %.2f): %d sent, %d delivered, %d dropped@." loss
      (net_total inet Net.sent) (net_total inet Net.delivered) (net_total inet Net.dropped);
  if not ctx.check then 0
  else begin
    ignore (Internet.check_invariants ~quiescent inet);
    let vs = Internet.invariant_violations inet in
    List.iter (fun v -> Format.eprintf "%a@." Invariant.pp_violation v) vs;
    List.length vs
  end

(* The soak's delivery predicate: a settled packet reached exactly the
   member domains it can reach.  Members behind the broken link are
   unreachable by design and are excluded: a partitioned source still
   serves its own domain's members (interior delivery needs no
   inter-domain link) but nobody else, and a partitioned member is
   excluded from everyone else's delivery. *)
let soak_exact_delivery inet ~group ~members ~broken ~payload ~src =
  let n = Array.length members in
  let got =
    List.sort_uniq compare
      (List.map (fun (h, _) -> h.Host_ref.host_domain) (Internet.deliveries inet ~payload))
  in
  let unreachable d = match broken with Some (_, b) -> d = b | None -> false in
  let want =
    if unreachable src then if members.(src) then [ src ] else []
    else List.filter (fun d -> members.(d) && not (unreachable d)) (List.init n (fun i -> i))
  in
  if got = want then []
  else
    let ints l = String.concat "," (List.map string_of_int l) in
    [
      ( Printf.sprintf "src=%d broken=%s got=[%s] want=[%s]" src
          (match broken with Some (a, b) -> Printf.sprintf "%d-%d" a b | None -> "-")
          (ints got) (ints want),
        Some (Span.group_id (Ipv4.to_string group)) );
    ]

(* A randomized long-run stress of the integrated stack: group churn,
   random senders, and occasional link failures/restores.  Each step's
   packet is judged by the "soak-exact-delivery" predicate on the
   stack's invariant monitor, once the packet has settled.  The verdict
   is asked of the monitor directly, not through
   [Internet.check_invariants]: under loss a mismatch is expected, so
   the soak reports it here rather than as a violation of the stack. *)
let run_soak steps seed loss ctx =
  Format.printf "# soak: %d randomized steps over a transit-stub internetwork (seed %d)@." steps
    seed;
  let rng = Rng.create seed in
  let topo = Gen.transit_stub ~rng ~backbones:2 ~regionals_per_backbone:3 ~stubs_per_regional:3 in
  let initiator = 5 in
  let inet, group = start_internet "soak" ~loss ~initiator ~attempts:52 topo ctx in
  let n = Topo.domain_count topo in
  let members = Array.make n false in
  let broken = ref None in
  let violations = ref 0 in
  let checks = ref 0 in
  (* The settled packet awaiting its verdict, as (payload, source
     domain); set only while the loop asks for the verdict, so cadence
     checks never judge a packet still in flight. *)
  let settled = ref None in
  Invariant.register (Internet.invariants inet) ~name:"soak-exact-delivery" (fun () ->
      match !settled with
      | None -> []
      | Some (payload, src) ->
          soak_exact_delivery inet ~group ~members ~broken:!broken ~payload ~src);
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
    settled := Some (payload, src.Host_ref.host_domain);
    let verdict = Invariant.check ~only:"soak-exact-delivery" (Internet.invariants inet) in
    settled := None;
    incr checks;
    List.iter
      (fun (v : Invariant.violation) ->
        incr violations;
        Format.printf "step %4d: MISMATCH %s@." step v.Invariant.detail;
        Format.printf "  root=%s tree=[%s]@."
          (match Internet.root_domain_of inet group with
          | Some r -> string_of_int r
          | None -> "NONE")
          (String.concat ","
             (List.map string_of_int (Bgmp_fabric.tree_domains (Internet.fabric inet) ~group))))
      verdict
  done;
  Format.printf "soak complete: %d delivery checks, %d violations, %d duplicates@." !checks
    !violations
    (Bgmp_fabric.duplicate_deliveries (Internet.fabric inet));
  (* Exact delivery is not an invariant under message loss: dropped
     joins and data are the point of the exercise, so a lossy run
     reports the transport's accounting instead of failing. *)
  if loss = 0.0 && !violations > 0 then exit 1;
  (* Quiescent-only predicates are sound here only when no link is
     down (a partitioned member legitimately keeps local state). *)
  finish_internet ~loss ~quiescent:(!broken = None) inet ctx

let run_demo loss ctx =
  let topo = Gen.figure1 () in
  let dom name = Option.get (Topo.find_by_name topo name) in
  let name_of d = (Topo.domain topo d).Domain.name in
  let inet, group = start_internet "demo" ~loss ~initiator:(dom "B") ~attempts:32 topo ctx in
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
  finish_internet ~loss ~quiescent:true inet ctx

(* ---------------- beacon ---------------------------------------------- *)

(* dbeacon-style active measurement: beacon fleets over real BGMP trees,
   N x N delivery matrix on stdout, optional JSONL export for the
   [report --matrix] view. *)
let run_beacon domains per_domain probes trials seed loss churn matrix_out ctx =
  if trials > 1 && ctx.sampling <> None then
    Format.eprintf "beacon: --sample needs a single trial; telemetry disabled@.";
  let p =
    {
      Beacon_campaign.domains;
      per_domain;
      probes;
      trials;
      seed;
      loss;
      churn;
      telemetry =
        (if trials > 1 then None
         else Option.map (fun (ts, every) -> (ts, Time.seconds every)) ctx.sampling);
    }
  in
  Format.printf
    "# beacon: %d domains, %d beacon(s)/domain + interdomain session, %d probes/source, %d \
     trial(s), loss %.2f%s@."
    domains per_domain probes trials loss
    (if churn then ", churn" else "");
  let r = Beacon_campaign.run ~jobs:ctx.jobs p in
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
  if not ctx.check then 0
  else begin
    let vs = Invariant.check (Beacon_campaign.invariants p r) in
    List.iter (fun v -> Format.eprintf "%a@." Invariant.pp_violation v) vs;
    List.length vs
  end

(* ---------------- explore -------------------------------------------- *)

let run_explore budget max_faults ledger repro_dir seed _ =
  let config =
    { Explore.default_config with Explore.budget; max_faults; seed; ledger; repro_dir }
  in
  Explore.pp_summary Format.std_formatter (Explore.run_campaign config);
  0

(* ---------------- trace and report ----------------------------------- *)

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
  (* The views, in print order: what the artifact is, its file (the
     profile and telemetry views always look for theirs), the loader,
     and what produces it. *)
  List.iter
    (fun (what, file, load, hint) ->
      Option.iter
        (fun file ->
          if Sys.file_exists file then load file
          else Format.fprintf ppf "%s %s: not found (produce it with %s)@." what file hint)
        file)
    [
      ("profile", Some profile, (fun f -> Report.report_profile ppf f fold), "--profile");
      ( "telemetry",
        Some timeseries,
        (fun f -> Report.report_timeseries ppf f series),
        "--sample EVERY" );
      ("metrics", metrics, Report.report_metrics ppf, "--metrics=FILE");
      ("matrix", matrix, Report.report_matrix ppf, "beacon --matrix-out");
    ]

(* ---------------- cmdliner wiring ------------------------------------ *)

open Cmdliner

(* [conv] narrowed to the values [ok] accepts; anything else is a
   command-line error (exit 124 with a one-line message), never an
   exception from deep inside a run. *)
let bounded conv ok expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive = bounded Arg.int (fun n -> n > 0) "an integer >= 1"
let non_negative = bounded Arg.int (fun n -> n >= 0) "an integer >= 0"

let opt ?docv c default name doc = Arg.(value & opt c default & info [ name ] ?docv ~doc)

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
  opt ~docv:"EVERY"
    (Arg.some (bounded Arg.float (fun every -> every > 0.0) "EVERY > 0"))
    None "sample"
    "Record sim-time telemetry series (pending events, per-protocol in-flight messages, G-RIB \
     size, outstanding claims, tree entries) as JSON lines to timeseries.jsonl, sampled every \
     $(docv) simulated seconds; inspect them with the $(b,report) subcommand.  fig2 samples at \
     its figure cadence, fig4 once per group-size point and fig4-modern once per checkpoint, \
     ignoring $(docv)."

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

let obs_term ~sample =
  Term.(
    const (fun m p s r fp ->
        { obs_metrics = m; obs_profile = p; obs_sample = s; obs_record = r; obs_fingerprint = fp })
    $ metrics_arg $ profile_arg
    $ (if sample then sample_arg else const None)
    $ record_arg $ fingerprint_arg)

(* Every output stream (stdout, --metrics, --profile, --sample) is
   byte-identical at any value: randomness is drawn before fan-out and
   Obs shards merge in task order. *)
let jobs_arg =
  opt ~docv:"N" non_negative 1 "jobs"
    "Run independent work (fig4 trials, ablation simulations, baseline sweeps) on $(docv) \
     runtime domains.  Output is byte-identical at any value; 0 picks the machine's \
     recommended domain count."

let check_arg =
  Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Evaluate the live invariants during the run (overlap-free MASC allocations, acyclic \
           and G-RIB-consistent BGMP trees, tree-ratio sanity).  Violations are reported on \
           standard error and make the command exit non-zero; standard output is unchanged.")

(* One row of the subcommand table: [run] is the experiment's own
   arguments applied, awaiting its [ctx].  The row declares whether the
   entry point fans out over the Par pool ([jobs]: takes --jobs), drives
   a telemetry sink ([sample]: takes --sample) and has live invariants
   ([check]: takes --check-invariants, whose verdict goes to stderr,
   exit 1 on violations).  A BGMP data loop stops any run with one
   stderr line and exit 3, after [with_obs] has closed its outputs; an
   output file that cannot be written (--metrics, --profile, --record,
   --ledger, --repro-dir, --matrix-out) ends it with one line and exit
   2, as an unreadable input does. *)
let experiment ?(jobs = false) ?(sample = false) ?(check = false) name ~doc run =
  let main obs jobs check run =
    Par.set_jobs jobs;
    try
      with_obs obs (fun sampling ->
          let violations = run { check; sampling; jobs } in
          if check then
            if violations > 0 then begin
              Format.eprintf "%s: %d invariant violation(s) detected@." name violations;
              exit 1
            end
            else Format.eprintf "%s: invariants clean@." name)
    with
    | Bgmp_fabric.Data_loop { payload; group; source; domain } ->
        Format.eprintf "%s: data loop: payload %d to %a from %a still circling at domain %d@."
          name payload Ipv4.pp group Host_ref.pp source domain;
        exit 3
    | Sys_error msg | Fun.Finally_raised (Sys_error msg) ->
        Format.eprintf "%s: %s@." name msg;
        exit 2
  in
  let flag on arg off = if on then arg else Term.const off in
  Cmd.v (Cmd.info name ~doc)
    Term.(const main $ obs_term ~sample $ flag jobs jobs_arg 1 $ flag check check_arg false $ run)

let seed_arg = opt Arg.int 1998 "seed" "Random seed."
let days_arg n = opt positive n "days" "Simulated days."
let nodes_arg n =
  opt (bounded Arg.int (fun n -> n >= 3) "an integer >= 3") n "nodes"
    "Topology size (the power-law generator needs at least 3 nodes)."

let loss_arg =
  opt ~docv:"P"
    (bounded Arg.float (fun p -> p >= 0.0 && p < 1.0) "0 <= P < 1")
    0.0 "loss"
    "Per-message drop probability on every inter-domain channel, applied to all three \
     protocols by the shared transport (deterministic: drawn from a seeded RNG).  At 0 (the \
     default) the run is bit-identical to a loss-free build."

let fig2_cmd =
  experiment "fig2" ~sample:true ~check:true
    ~doc:"Reproduce Figure 2: MASC address-space utilization and G-RIB size over time."
    Term.(
      const run_fig2 $ summary_flag $ days_arg 800
      $ opt non_negative 0 "hetero"
          "Heterogeneity: children per top-level domain vary by +/- this amount."
      $ seed_arg)

let fig4_cmd =
  experiment "fig4" ~jobs:true ~sample:true ~check:true
    ~doc:"Reproduce Figure 4: path-length overhead of shared trees vs shortest-path trees."
    Term.(
      const run_fig4 $ summary_flag $ nodes_arg 3326
      $ opt positive 20 "trials" "Groups per size."
      $ opt
          (Arg.enum [ ("power-law", `Power_law); ("transit-stub", `Transit_stub) ])
          `Power_law "topology" "Topology family: power-law or transit-stub."
      $ seed_arg)

let fig4_modern_cmd =
  experiment "fig4-modern" ~jobs:true ~sample:true ~check:true
    ~doc:
      "The state-vs-members study at modern scale: arena-backed per-router state under group \
       and link churn, with incrementally maintained routing."
    Term.(
      const run_fig4_modern $ summary_flag
      $ opt positive 2000 "domains" "Target domain count (transit-stub)."
      $ opt positive 200 "groups" "Group-id space per trial."
      $ opt positive 8 "roots" "Distinct tree-root domains."
      $ opt non_negative 4000 "events" "Membership events per trial."
      $ opt non_negative 500 "link-every"
          "One peer-link failure/restore per this many membership events (0 disables)."
      $ opt positive 2 "trials" "Independent trials (averaged)."
      $ Arg.(
          value & flag
          & info [ "scratch" ]
              ~doc:
                "Recompute every in-use tree from scratch on each link event (the retired \
                 baseline) instead of repairing the maintained trees in place.")
      $ seed_arg)

let beacon_cmd =
  experiment "beacon" ~jobs:true ~sample:true ~check:true
    ~doc:
      "Active measurement: beacon fleets probe per-domain groups and an interdomain session \
       over real BGMP trees, accumulating an NxN delivery/loss/latency matrix (dbeacon's view \
       of the multicast internet)."
    Term.(
      const run_beacon
      $ opt positive 20 "domains" "Target domain count (rounded to the transit-stub shape)."
      $ opt positive 2 "per-domain" "Beacons per domain."
      $ opt positive 3 "probes" "Probes per source."
      $ opt positive 1 "trials" "Independent trials."
      $ seed_arg $ loss_arg
      $ Arg.(
          value & flag
          & info [ "churn" ]
              ~doc:
                "Fail the last stub's uplink a third of the way through the measurement window \
                 and restore it at two thirds.")
      $ opt ~docv:"FILE" Arg.(some string) None "matrix-out"
          "Write the delivery matrix as JSON lines to $(docv); inspect it with $(b,report \
           --matrix).")

let explore_cmd =
  experiment "explore" ~jobs:true
    ~doc:
      "Fault-scenario explorer: search link-failure/partition/loss schedules against the \
       invariant oracle (plus non-convergence watermarks), shrink every failure to a minimal \
       counterexample, and append structured outcomes to a violation ledger (triage it with \
       $(b,report --triage))."
    Term.(
      const run_explore
      $ opt ~docv:"N" positive 50 "budget"
          "Fault schedules to run: every single-fault schedule over the arena's links is \
           enumerated first, then seeded random multi-fault episodes fill the rest of the \
           budget."
      $ opt ~docv:"K" positive 6 "max-faults" "Fault-step ceiling per sampled schedule."
      $ opt ~docv:"FILE" Arg.string "explore_ledger.jsonl" "ledger"
          "Violation ledger: one JSON outcome record per schedule, written in trial order \
           (byte-identical at any --jobs); triage it with $(b,report --triage)."
      $ opt ~docv:"DIR" Arg.(some string) None "repro-dir"
          "Re-run the smallest shrunk counterexamples sequentially with the flight recorder \
           on, writing a replayable recording per counterexample into $(docv) (compare two \
           with $(b,report --diff), read its narrative with $(b,trace))."
      $ seed_arg)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Inspect the protocol narrative of a flight recording: per-chain timelines, end-to-end \
          claim/join latency summaries, and causal chains for a given trace id.")
    Term.(
      const run_trace
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"RECORDING.jsonl" ~doc:"Flight recording (written by --record).")
      $ opt ~docv:"TRACE_ID" Arg.(some string) None "id"
          "Render the causal chain for one trace id (e.g. claim:1:224.0.0.0/24, \
           group:224.0.128.1, join:...) instead of the full timelines.")

let report_cmd =
  let file name ~docv doc = opt ~docv Arg.(some string) None name doc in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Summarize a run's observability artifacts: the per-phase wall-clock/allocation \
          breakdown from a --profile JSONL, sim-time telemetry series from a --sample JSONL, \
          a --metrics JSON snapshot, a beacon delivery matrix, an explorer violation ledger \
          (--triage) — or diff two flight recordings.")
    Term.(
      const run_report
      $ opt ~docv:"FILE" Arg.string "profile.jsonl" "profile"
          "Profile JSONL to read (written by --profile)."
      $ opt ~docv:"FILE" Arg.string "timeseries.jsonl" "timeseries"
          "Telemetry JSONL to read (written by --sample)."
      $ file "metrics" ~docv:"FILE" "Metrics JSON snapshot to re-tabulate (written by --metrics=FILE)."
      $ file "series" ~docv:"NAME"
          "Dump one telemetry series as (time, value) pairs instead of the summary table (e.g. \
           grib.routes, engine.pending, alloc.utilization)."
      $ file "fold" ~docv:"FILE"
          "Also write flamegraph folded stacks (one \"a;b;c self-microseconds\" line per span) \
           to $(docv)."
      $ file "matrix" ~docv:"FILE"
          "Delivery-matrix JSONL to summarize (written by $(b,beacon --matrix-out)): \
           measurement timeline, aggregate summary, worst pairs."
      $ file "triage" ~docv:"LEDGER"
          "Triage an explorer violation ledger (written by $(b,explore)): bucket outcomes by \
           verdict and by violated invariant, rank counterexamples by minimality, and print the \
           blamed causal chain out of each top counterexample's repro recording.  Exclusive \
           with the other report views."
      $ Arg.(
          value & flag
          & info [ "diff" ]
              ~doc:
                "Compare two flight recordings (written by --record), given as the two \
                 positional arguments: find the first semantically divergent record, print an \
                 aligned context window and both sides' causal chains.  Exits 0 when \
                 identical, 1 on divergence.")
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"RECORDING.jsonl" ~doc:"Recordings to compare (with $(b,--diff))."))

let main_cmd =
  let doc = "Experiments for the MASC/BGMP inter-domain multicast architecture (SIGCOMM 1998)." in
  Cmd.group
    (Cmd.info "masc-bgmp" ~version:"1.0.0" ~doc)
    [
      fig2_cmd;
      fig4_cmd;
      fig4_modern_cmd;
      experiment "ablate-placement" ~jobs:true ~check:true
        ~doc:"A2: first-sub-prefix vs random claim placement (aggregation impact)."
        Term.(const run_ablate_placement $ days_arg 400 $ seed_arg);
      experiment "ablate-threshold" ~jobs:true ~check:true
        ~doc:"A3: occupancy-threshold sweep (utilization/aggregation trade-off)."
        Term.(const run_ablate_threshold $ days_arg 400 $ seed_arg);
      experiment "ablate-root" ~check:true
        ~doc:"A4: root-domain placement sensitivity for tree quality."
        Term.(
          const run_ablate_root $ nodes_arg 1000 $ opt positive 20 "trials" "Trials." $ seed_arg);
      experiment "ablate-kampai"
        ~doc:"A5: contiguous CIDR claims vs Kampai non-contiguous masks."
        Term.(const run_ablate_kampai $ days_arg 400 $ seed_arg);
      experiment "ablate-claim" ~check:true
        ~doc:"A1: claim-collide vs query-response allocation under partition."
        Term.(const run_ablate_claim $ seed_arg);
      experiment "baselines" ~jobs:true
        ~doc:"Related-work baselines (HPIM, HDVMRP) vs BGMP trees."
        Term.(
          const run_baselines $ nodes_arg 1000
          $ opt positive 15 "trials" "Trials per group size."
          $ seed_arg);
      beacon_cmd;
      experiment "soak" ~sample:true ~check:true
        ~doc:"Randomized churn + failure soak of the integrated stack with invariant checking."
        Term.(
          const run_soak $ opt non_negative 300 "steps" "Randomized steps." $ seed_arg $ loss_arg);
      explore_cmd;
      experiment "dot" ~check:true
        ~doc:"Emit Graphviz DOT of the Figure-3 topology with its shared tree."
        Term.(const run_dot $ loss_arg);
      trace_cmd;
      report_cmd;
      experiment "demo" ~sample:true ~check:true
        ~doc:"End-to-end MASC+BGP+BGMP run on the Figure-1 topology."
        Term.(const run_demo $ loss_arg);
    ]

let () = exit (Cmd.eval main_cmd)
