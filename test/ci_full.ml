(* The full-scale tier: the checks too slow for [dune runtest], one row
   each, built from the golden suite's helpers.  Run with

     dune build @ci-full --profile release

   Every row's output files (verdicts, metrics, profiles, fingerprints,
   ledgers, recordings, triage) are kept in _build/ci-full/, next to
   the Alcotest logs. *)

open Test_golden

(* Counter [num] at most [ratio] times counter [den] in the snapshot of
   [args] run with --metrics. *)
let check_metric_ratio ~args ~num ~den ~ratio () =
  with_files (fun file ->
      let metrics = metrics_of_run file args in
      let n = metric_value metrics num and d = metric_value metrics den in
      check Alcotest.bool
        (Printf.sprintf "%s: %s %.0f <= %g x %s %.0f" args num n ratio den d)
        true
        (n <= ratio *. d))

(* Seeds 1-12 of the 100-step soak: seed, expected exit code, expected
   stderr.  Seed 2 reaches the known BGMP data loop (ROADMAP item 1);
   the fix for the loop flips its row to [(2, 0, [])]. *)
let soak_seeds =
  List.init 12 (fun i ->
      match i + 1 with
      | 2 ->
          ( 2,
            3,
            [ "soak: data loop: payload 23 to 224.0.0.0 from h21.42 still circling at domain 18" ] )
      | seed -> (seed, 0, []))

(* The six experiments that call Obs.capture, each with its fingerprint. *)
let obs_experiments =
  [
    "fig4 --summary --nodes 1000 --trials 100 --fingerprint";
    "explore --budget 60 --seed 7 --fingerprint";
    "beacon --domains 32 --trials 4 --fingerprint";
    "ablate-threshold --days 100 --fingerprint";
    "fig4-modern --summary --domains 2000 --trials 4 --fingerprint";
    "baselines --nodes 300 --fingerprint";
  ]

(* The allocation gate: CI-sized runs of five public entry points at
   jobs 1, each with its budget in bytes (1.25x the bytes measured in
   the release profile; a dev build compiles the libraries -opaque and
   allocates more, beacon-smoke 38% more, so these rows fail there).
   Allocated bytes are a function of the input, so unlike a wall-clock
   budget the gate does not flake on a busy host, and it trips on what
   multiplies bytes: an arena reverting to per-entry boxing,
   per-delivery accounting turning quadratic, the flight recorder
   working while it is off.  Timing is the workload benchmark's job
   (perfbench/). *)
let allocation_budgets =
  [
    ( "fig2-smoke",
      2_296_212,
      fun () ->
        ignore
          (Allocation_sim.run
             {
               Allocation_sim.default_params with
               Allocation_sim.tops = 10;
               children_per_top = 10;
               horizon = Time.days 120.0;
             }) );
    ( "fig4-smoke",
      2_935_622,
      fun () ->
        ignore
          (Tree_experiment.run
             {
               Tree_experiment.default_params with
               Tree_experiment.nodes = 1000;
               trials = 5;
               jobs = 1;
             }) );
    ( "fig4-modern-smoke",
      3_475_262,
      fun () ->
        ignore
          (Modern_experiment.run
             { Modern_experiment.default_params with Modern_experiment.jobs = 1 }) );
    ( "beacon-smoke",
      4_497_332,
      fun () ->
        ignore
          (Beacon_campaign.run ~jobs:1
             {
               Beacon_campaign.default_params with
               Beacon_campaign.domains = 56;
               per_domain = 2;
               probes = 5;
               loss = 0.05;
               churn = true;
             }) );
    ( "explore-smoke",
      4_555_750,
      fun () ->
        let ledger = Filename.temp_file "explore-smoke" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove ledger)
          (fun () ->
            ignore
              (Explore.run_campaign
                 {
                   Explore.default_config with
                   Explore.budget = 25;
                   seed = 7;
                   jobs = Some 1;
                   ledger;
                 })) );
  ]

(* The bytes [run] allocates, counted over a second run after a
   warm-up run has built any lazily initialised state.  A minor
   collection on either side brings the GC's counters up to date, so
   the count is exact: the same in every process, whatever ran before.
   Then one more run under the profiler, in a smoke.<name> span, leaves
   <name>.profile.jsonl to say where the bytes went (read it with
   [main.exe report --profile]). *)
let check_allocation ~name ~budget run () =
  with_files (fun file ->
      run ();
      Gc.minor ();
      let b0 = Gc.allocated_bytes () in
      run ();
      Gc.minor ();
      let bytes = Gc.allocated_bytes () -. b0 in
      Printf.printf "%s: %.0f bytes, budget %d (%.2fx)\n" name bytes budget
        (bytes /. float_of_int budget);
      Prof.enable ();
      Fun.protect ~finally:Prof.disable (fun () ->
          Prof.span ("smoke." ^ name) run;
          Prof.write_jsonl (file (name ^ ".profile.jsonl")));
      if bytes > float_of_int budget then
        Alcotest.failf
          "%s: %.0f bytes, over the budget of %d; after a deliberate change, set the budget to \
           %.0f (1.25x the measured bytes)"
          name bytes budget (1.25 *. bytes))

let transit_stub = "fig4 --summary --topology transit-stub --nodes 2000 --trials 60"

let fig4_modern = "fig4-modern --summary --domains 5000 --groups 2000 --events 100000"

let rows =
  [
    (* Claims stay disjoint and inside their parents, and every listed
       claim is alive and registered, at every sample of 60 days. *)
    ("fig2 invariants", check_invariants_stdout_invariant ~args:"fig2 --summary --days 60");
    (* Event order over the runs the 60-day fingerprint goldens do not
       reach: Figure 2's whole horizon, both 400-day ablations, a
       200-domain lossy churned beacon campaign and Figure 4 at 800
       trials per size. *)
    ( "full-scale fingerprints",
      check_fingerprints
        ~runs:
          [
            "fig2 --summary";
            "ablate-threshold --jobs 1";
            "ablate-placement --jobs 1";
            "beacon --domains 200 --per-domain 2 --probes 25 --trials 1 --loss 0.05 --churn --jobs 1";
            "fig4 --summary --trials 800";
          ]
        ~golden:"full_scale_fingerprints.txt" );
    (* Every tree path at least the shortest path, every receiver
       evaluated; the trial schedule shares BFS trees between trials
       (2,065 runs for 1,800 trials), so two BFS per trial fails. *)
    ( "fig4 invariants",
      check_invariants_stdout_invariant ~args:"fig4 --summary --nodes 1000 --trials 200" );
    ( "fig4 BFS runs per trial",
      check_metric_ratio ~args:"fig4 --summary --nodes 1000 --trials 200 --check-invariants"
        ~num:"spf.bfs_runs" ~den:"trees.trials_run" ~ratio:1.25 );
    (* The deeper transit-stub family, whose BFS stops at other depths. *)
    ( "fig4 transit-stub invariants at --jobs 1",
      check_invariants_stdout_invariant ~args:(transit_stub ^ " --jobs 1") );
    ( "fig4 transit-stub invariants at --jobs 4",
      check_invariants_stdout_invariant ~args:(transit_stub ^ " --jobs 4") );
    ( "fig4 transit-stub identical at --jobs 1 and 4",
      check_stdout_jobs_invariant ~args:(transit_stub ^ " --check-invariants") ~jobs:[ 1; 4 ] );
  ]
  @ List.map
      (fun args ->
        ( "observability jobs-invariant: " ^ List.hd (String.split_on_char ' ' args),
          check_metrics_jobs_invariant ~args ~jobs:[ 1; 2 ] ))
      obs_experiments
  (* --sample telemetry is written on the main domain after the
     in-order reduce. *)
  @ List.map
      (fun args ->
        ( "telemetry jobs-invariant: " ^ List.hd (String.split_on_char ' ' args),
          check_timeseries ~args ~expect:(`Jobs [ 1; 4 ]) ))
      [
        "fig4 --summary --nodes 300 --trials 8 --sample 1";
        "fig4-modern --summary --domains 2000 --trials 4 --sample 1";
        "beacon --domains 56 --sample 0.5";
      ]
  @ [
      (* The churn loop's state accounting at every checkpoint; the
         second run keeps 3 trials on one worker, so trials 2 and 3 run
         on arenas and an SPF cache reset from the trial before. *)
      ( "fig4-modern invariants",
        check_invariants_stdout_invariant ~args:(fig4_modern ^ " --trials 2") );
      ( "fig4-modern invariants, arenas reused",
        check_invariants_stdout_invariant ~args:(fig4_modern ^ " --trials 3 --jobs 1") );
      (* Conservation, no duplicates and completeness after heal, then
         the 300-step stack soak under the live monitor. *)
      ("beacon invariants", check_invariants_stdout_invariant ~args:"beacon --domains 32");
      ("soak invariants", check_invariants_stdout_invariant ~args:"soak");
    ]
  @ List.map
      (fun (seed, code, stderr) ->
        ( Printf.sprintf "soak --steps 100 --seed %d exits %d" seed code,
          check_soak_exit ~timeout:120 ~steps:100 ~seed ~code ~stderr ))
      soak_seeds
  @ [ ("explore canary and triage", check_explore_cli ~budget:25 ~jobs:[ 4 ]) ]
  @ List.map
      (fun (name, budget, run) -> ("allocation: " ^ name, check_allocation ~name ~budget run))
      allocation_budgets

(* The artifact directory sits outside the build context, where a later
   dune build does not remove it. *)
let () =
  let dir = Filename.concat (Filename.dirname (Filename.dirname here)) "ci-full" in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  Sys.chdir dir;
  keep_files := true;
  Alcotest.run "ci-full" [ ("ci-full", List.map (fun (name, f) -> (name, `Quick, f)) rows) ]
