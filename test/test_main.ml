(* Aggregated test runner: one Alcotest suite per library. *)

let () =
  Alcotest.run "masc_bgmp"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("par", Test_par.suite);
      ("addr", Test_addr.suite);
      ("sim", Test_sim.suite);
      ("net", Test_net.suite);
      ("topo", Test_topo.suite);
      ("spf_equiv", Test_spf_equiv.suite);
      ("spf_inc", Test_spf_inc.suite);
      ("bgp", Test_bgp.suite);
      ("masc", Test_masc.suite);
      ("claim_equiv", Test_claim_equiv.suite);
      ("migp", Test_migp.suite);
      ("bgmp", Test_bgmp.suite);
      ("beacon", Test_beacon.suite);
      ("trees", Test_trees.suite);
      ("core", Test_core.suite);
      ("extensions", Test_extensions.suite);
      ("baselines", Test_baselines.suite);
      ("workload", Test_workload.suite);
      ("repair", Test_repair.suite);
      ("failures", Test_failures.suite);
      ("conformance", Test_conformance.suite);
      ("explore", Test_explore.suite);
      ("monitor", Test_monitor.suite);
      ("report", Test_report.suite);
      ("golden", Test_golden.suite);
      ("artifacts", Test_artifacts.suite);
    ]
