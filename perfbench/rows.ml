(* The workload table: one row per headline workload.

   A row pins the parameters of one public entry point, derives their
   seed from the benchmark's --seed, and judges the result: a work
   count for the throughput metric, a digest of the result's canonical
   rendering, and the row's correctness checks.  At the row's pinned
   seed the digest must equal [pinned_digest]; at any other seed every
   repetition of a run must agree with the first.

   Every call runs at jobs 1, so no Par pool domain is ever spawned in
   a timed process. *)

type outcome = {
  work : int;  (** units of work completed, see [work_unit] *)
  digest : string;  (** hex MD5 of the result's canonical rendering *)
  problems : string list;  (** failed row checks; [] when correct *)
}

type row =
  | Row : {
      name : string;
      why : string;
      work_unit : string;
      params : string;  (** the pinned call, printed with the run's table *)
      pinned_seed : int;
      pinned_digest : string;
      setup : int -> 'p;  (** seed -> inputs of the call *)
      call : 'p -> 'r;  (** the timed entry-point call *)
      judge : 'p -> 'r -> outcome;  (** untimed *)
    }
      -> row

let name (Row r) = r.name

let checks l = List.filter_map (fun (ok, msg) -> if ok then None else Some msg) l

let digest_of_string s = Digest.to_hex (Digest.string s)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let beacon_soak =
  Row
    {
      name = "beacon-soak";
      why =
        "the only heavy data-plane run: BGMP data distribution, net delivery and beacon harvest \
         under loss and uplink churn; no MASC or BGP";
      work_unit = "probe events (inter-domain data messages + deliveries)";
      params =
        "Beacon_campaign.run ~jobs:1 {domains 200; per_domain 2; probes 25; trials 1; loss 0.05; \
         churn}";
      pinned_seed = 1998;
      pinned_digest = "255a4b1bb5bf806113cdebfee2be4e61";
      setup =
        (fun seed ->
          {
            Beacon_campaign.default_params with
            Beacon_campaign.domains = 200;
            per_domain = 2;
            probes = 25;
            trials = 1;
            loss = 0.05;
            churn = true;
            seed;
          });
      call = Beacon_campaign.run ~jobs:1;
      judge =
        (fun _ r ->
          let open Beacon_campaign in
          let trials = r.trials and agg = r.agg in
          {
            work = sum (fun t -> t.r_data_msgs + t.r_deliveries) trials;
            digest =
              digest_of_string
                (Format.asprintf "%a%a" Beacon_matrix.pp_cells r.cells Beacon_matrix.pp_summary
                   agg);
            problems =
              checks
                [
                  (sum (fun t -> t.r_duplicates) trials = 0, "duplicate deliveries");
                  ( sum (fun t -> t.r_deliveries) trials = agg.Beacon_matrix.s_got
                    && sum (fun t -> t.r_lost) trials = agg.Beacon_matrix.s_lost,
                    "fleet counters disagree with the matrix (delivered + lost <> sent)" );
                  (agg.Beacon_matrix.s_unreachable = 0, "unreachable pairs");
                ];
          });
    }

let fig2_alloc =
  Row
    {
      name = "fig2-alloc";
      why =
        "paper Fig. 2 at full scale: ~1M allocation requests through the claim policy, address \
         space and event engine; no net, BGMP or SPF";
      work_unit = "allocation requests";
      params = "Allocation_sim.run default_params (50x50 domains, 800 days)";
      pinned_seed = 1998;
      pinned_digest = "ecb7e6a24d1e1620ccf68a5c65a16d35";
      setup = (fun seed -> { Allocation_sim.default_params with Allocation_sim.seed });
      call = Allocation_sim.run;
      judge =
        (fun _ r ->
          let open Allocation_sim in
          let b = Buffer.create 65536 in
          Array.iter
            (fun s ->
              Printf.bprintf b "%h %h %h %d %d %d %d %d %d\n" s.day s.utilization s.grib_avg
                s.grib_max s.outstanding_blocks s.claimed_addresses s.demanded_addresses
                s.top_prefixes s.child_prefixes)
            r.samples;
          Printf.bprintf b "%d %d %d %h\n" r.failed_requests r.total_requests r.claims_made
            r.top_converged_day;
          {
            work = r.total_requests;
            digest = digest_of_string (Buffer.contents b);
            problems =
              checks
                [
                  (r.total_requests > 0, "no allocation requests");
                  ( r.failed_requests * 1000 <= r.total_requests,
                    Printf.sprintf "%d of %d requests failed" r.failed_requests r.total_requests );
                  ( Array.for_all (fun s -> s.utilization >= 0.0 && s.utilization <= 1.0) r.samples,
                    "utilization outside [0, 1]" );
                ];
          });
    }

let fig4_trees =
  Row
    {
      name = "fig4-trees";
      why =
        "paper Fig. 4, the read path: from-scratch BFS, shared-tree builds and path evaluation \
         on the 3326-node graph; no engine or net";
      work_unit = "group trials";
      params = "Tree_experiment.run {default_params with trials 800; jobs 1}";
      pinned_seed = 1998;
      pinned_digest = "2fd9a904641c2eb43b92485122eda89d";
      setup =
        (fun seed ->
          { Tree_experiment.default_params with Tree_experiment.trials = 800; jobs = 1; seed });
      call = Tree_experiment.run;
      judge =
        (fun p r ->
          let open Tree_experiment in
          let b = Buffer.create 4096 in
          List.iter
            (fun pt ->
              Printf.bprintf b "%d %h %h %h %h %h %h\n" pt.group_size pt.uni_avg pt.uni_max
                pt.bi_avg pt.bi_max pt.hy_avg pt.hy_max)
            r.points;
          Printf.bprintf b "%h %h %h\n" r.worst_uni r.worst_bi r.worst_hy;
          let ratios =
            List.concat_map
              (fun pt -> [ pt.uni_avg; pt.uni_max; pt.bi_avg; pt.bi_max; pt.hy_avg; pt.hy_max ])
              r.points
          in
          {
            work = List.length r.points * p.trials;
            digest = digest_of_string (Buffer.contents b);
            problems =
              checks
                [
                  (r.points <> [], "no group-size points");
                  (List.for_all (fun x -> x >= 1.0) ratios, "a path-length ratio below 1");
                ];
          });
    }

let fig4m_churn =
  Row
    {
      name = "fig4m-churn";
      why =
        "the write path at modern scale: tree and G-RIB arena installs plus incremental SPF \
         repairs on a 75k-domain graph; no engine or net";
      work_unit = "membership events";
      params =
        "Modern_experiment.run {domains 75000; groups 100000; roots 32; events 1000000; \
         link_every 2000; trials 2; Incremental; jobs 1}";
      pinned_seed = 1998;
      pinned_digest = "7ccab19578d569b17701d39b118f570e";
      setup =
        (fun seed ->
          {
            Modern_experiment.default_params with
            Modern_experiment.domains = 75000;
            groups = 100_000;
            roots = 32;
            events = 1_000_000;
            link_every = 2000;
            trials = 2;
            mode = Modern_experiment.Incremental;
            jobs = 1;
            seed;
          });
      call = Modern_experiment.run;
      judge =
        (fun p r ->
          let open Modern_experiment in
          let text =
            Format.asprintf "%a%d %d %d %d %d %d %d %d" pp_summary r r.r_domains r.r_links r.joins
              r.leaves r.skipped r.link_events r.repairs r.touched
          in
          {
            work = p.events * p.trials;
            digest = digest_of_string text;
            problems =
              checks
                [
                  (r.joins >= r.leaves, "more leaves than joins");
                  (r.skipped <= r.joins, "more skipped joins than joins");
                  (r.link_events > 0 && r.repairs > 0, "no link churn was repaired");
                ];
          });
    }

(* The campaign writes its ledger inside the working directory (the
   benchmark writes nowhere else), under a per-process name the root
   .gitignore covers; the judge removes it. *)
let explore_campaign =
  Row
    {
      name = "explore-campaign";
      why =
        "the control plane under faults: every schedule builds the MASC+BGP+BGMP stack with the \
         invariant monitor, so many small runs make per-run set-up cost show; no data plane";
      work_unit = "oracle runs (schedules + shrink runs)";
      params =
        "Explore.run_campaign {default_config with budget 2500; jobs 1; repro_dir None}";
      pinned_seed = 7;
      pinned_digest = "27ba44ea509d9970e0d6332c91ab119e";
      setup =
        (fun seed ->
          {
            Explore.default_config with
            Explore.budget = 2500;
            seed;
            jobs = Some 1;
            repro_dir = None;
            ledger = Printf.sprintf "perfbench-ledger-%d.jsonl" (Unix.getpid ());
          });
      call = Explore.run_campaign;
      judge =
        (fun c s ->
          (try Sys.remove c.Explore.ledger with Sys_error _ -> ());
          let canary (e : Ledger.entry) =
            List.mem "masc-sibling-overlap" e.Ledger.invariants && e.Ledger.min_faults = Some 1
          in
          {
            work = s.Explore.total + s.Explore.shrink_steps;
            digest =
              digest_of_string (String.concat "\n" (List.map Ledger.to_json s.Explore.entries));
            problems =
              checks
                [
                  ( s.Explore.total = c.Explore.budget,
                    "campaign ran fewer schedules than its budget" );
                  ( List.exists canary (Explore.counterexamples s.Explore.entries),
                    "partition canary not found or not shrunk to one fault" );
                ];
          });
    }

let all = [ beacon_soak; fig2_alloc; fig4_trees; fig4m_churn; explore_campaign ]

let find n = List.find_opt (fun r -> name r = n) all
