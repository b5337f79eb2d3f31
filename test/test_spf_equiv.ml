(* Differential tests: the CSR BFS kernel (Spf.bfs and its _csr/_into
   forms) against a list-based reference BFS, and the SPF cache /
   precomputed-paths plumbing against the uncached results, on seeded
   random topologies. *)

let check = Alcotest.check

let topologies seed =
  let pl = Gen.power_law ~rng:(Rng.create seed) ~n:220 ~m:2 in
  let ts =
    Gen.transit_stub ~rng:(Rng.create seed) ~backbones:3 ~regionals_per_backbone:4
      ~stubs_per_regional:5
  in
  [ ("power_law", pl); ("transit_stub", ts) ]

let sources rng n k = List.init k (fun _ -> Rng.int rng n)

let int_array = Alcotest.array Alcotest.int

(* List-based reference kernel: the original adjacency-list
   implementation, kept here as the differential oracle for the CSR
   kernel.  It visits edges in the same (link-insertion) order, so
   results — including tie-breaks — match exactly. *)

let bfs_list topo src =
  let adj = Topo_fixtures.adjacency topo in
  let n = Topo.domain_count topo in
  let dist = Array.make n max_int in
  let via = Array.make n (-1) in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun (v, _) ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          via.(v) <- u;
          Queue.add v queue
        end)
      adj.(u)
  done;
  { Spf.src; dist; via }

let test_bfs_matches_reference () =
  List.iter
    (fun seed ->
      List.iter
        (fun (name, topo) ->
          let rng = Rng.create (seed * 7 + 1) in
          let n = Topo.domain_count topo in
          List.iter
            (fun src ->
              let fast = Spf.bfs topo src in
              let slow = bfs_list topo src in
              check int_array (Printf.sprintf "%s/%d/%d dist" name seed src) slow.Spf.dist
                fast.Spf.dist;
              check int_array (Printf.sprintf "%s/%d/%d via" name seed src) slow.Spf.via
                fast.Spf.via)
            (sources rng n 5))
        (topologies seed))
    [ 11; 42; 1998 ]

let test_explicit_workspace_reuse () =
  let topo = Gen.power_law ~rng:(Rng.create 5) ~n:150 ~m:2 in
  let csr = Topo.freeze topo in
  let ws = Spf.make_workspace csr in
  (* Reusing one workspace across sources must not leak state between
     calls. *)
  List.iter
    (fun src ->
      let a = Spf.bfs_csr ~ws csr src in
      let b = Spf.bfs_csr csr src in
      check int_array "ws bfs dist" b.Spf.dist a.Spf.dist;
      check int_array "ws bfs via" b.Spf.via a.Spf.via)
    [ 0; 17; 49; 149 ]

let test_bfs_into_reused_arrays () =
  (* One dist/via pair reused across sources, masked and unmasked runs:
     every run must overwrite all of the previous one. *)
  let topo = Gen.power_law ~rng:(Rng.create 6) ~n:150 ~m:2 in
  let csr = Topo.freeze topo in
  let ws = Spf.make_workspace csr in
  let n = csr.Topo.csr_nodes in
  let dist = Array.make n 0 and via = Array.make n 0 in
  let alive = Array.init (Array.length csr.Topo.linkv) (fun i -> i mod 3 <> 0) in
  List.iter
    (fun src ->
      let p = Spf.bfs_into ~ws ~alive csr ~dist ~via src in
      let q = Spf.bfs_csr ~alive csr src in
      check int_array "masked dist" q.Spf.dist p.Spf.dist;
      check int_array "masked via" q.Spf.via p.Spf.via;
      let p = Spf.bfs_into ~ws csr ~dist ~via src in
      let q = bfs_list topo src in
      check Alcotest.bool "result is the caller's arrays" true
        (p.Spf.dist == dist && p.Spf.via == via);
      check int_array "dist" q.Spf.dist p.Spf.dist;
      check int_array "via" q.Spf.via p.Spf.via)
    [ 0; 17; 49; 149 ];
  Alcotest.check_raises "foreign-size arrays"
    (Invalid_argument "Spf.bfs_into: dist/via arrays sized for another topology") (fun () ->
      ignore (Spf.bfs_into ~ws csr ~dist:(Array.make (n + 1) 0) ~via 0))

let test_bfs_into_allocation () =
  (* The into-array kernel allocates its 4-word [paths] record and
     nothing else: the queue is the workspace's, the result arrays the
     caller's. *)
  let topo = Gen.power_law ~rng:(Rng.create 1998) ~n:3326 ~m:2 in
  let csr = Topo.freeze topo in
  let ws = Spf.make_workspace csr in
  let n = csr.Topo.csr_nodes in
  let dist = Array.make n 0 and via = Array.make n 0 in
  ignore (Spf.bfs_into ~ws csr ~dist ~via 0);
  let w0 = Gc.minor_words () in
  ignore (Spf.bfs_into ~ws csr ~dist ~via 1234);
  let w1 = Gc.minor_words () in
  check Alcotest.bool
    (Printf.sprintf "bfs_into allocated %.0f words (at most 4)" (w1 -. w0))
    true
    (w1 -. w0 <= 4.0)

let test_freeze_memoized_and_invalidated () =
  let topo = Topo_fixtures.line ~n:4 in
  let c1 = Topo.freeze topo in
  let c2 = Topo.freeze topo in
  check Alcotest.bool "freeze memoized" true (c1 == c2);
  let d = Topo.add_domain topo ~name:"X" ~kind:Domain.Stub in
  Topo.add_link topo 3 d Topo.Peer;
  let c3 = Topo.freeze topo in
  check Alcotest.bool "mutation invalidates memo" true (c1 != c3);
  check Alcotest.int "old snapshot unchanged" 4 c1.Topo.csr_nodes;
  check Alcotest.int "new snapshot sees the link" 5 c3.Topo.csr_nodes;
  let p = Spf.bfs topo 0 in
  check Alcotest.int "bfs over refrozen graph" 4 (Spf.dist p d)

(* The cache hits and misses that [f ()] counted. *)
let cache_counts f =
  let counts, _shard =
    Obs.capture (fun () ->
        f ();
        let count name = Metrics.count (Metrics.counter name) in
        (count "spf.cache_hits", count "spf.cache_misses"))
  in
  counts

let test_cache_transparent () =
  let topo = Gen.power_law ~rng:(Rng.create 21) ~n:180 ~m:2 in
  let cache = Spf.make_cache topo in
  let hits, misses = cache_counts @@ fun () ->
  List.iter
    (fun src ->
      let cached = Spf.bfs_cached cache src in
      let plain = Spf.bfs topo src in
      check int_array "cached dist" plain.Spf.dist cached.Spf.dist;
      check int_array "cached via" plain.Spf.via cached.Spf.via)
    [ 3; 3; 99; 3; 99; 0 ]
  in
  check Alcotest.int "misses = distinct sources" 3 misses;
  check Alcotest.int "hits = repeats" 3 hits;
  check Alcotest.bool "repeat is the same array" true
    (Spf.bfs_cached cache 3 == Spf.bfs_cached cache 3)

let test_precomputed_paths_do_not_change_results () =
  let topo = Gen.power_law ~rng:(Rng.create 77) ~n:200 ~m:2 in
  let cache = Spf.make_cache topo in
  let rng = Rng.create 78 in
  let n = Topo.domain_count topo in
  for _ = 1 to 10 do
    let source = Rng.int rng n in
    let receivers =
      Array.of_list
        (List.filter (fun d -> d <> source)
           (Array.to_list (Rng.sample_without_replacement rng 12 n)))
    in
    let root = receivers.(0) in
    let group = { Path_eval.source; root; receivers } in
    let plain = Path_eval.evaluate topo group in
    let cached =
      Path_eval.evaluate ~from_source:(Spf.bfs_cached cache source)
        ~from_root:(Spf.bfs_cached cache root) topo group
    in
    check int_array "spt" plain.Path_eval.spt cached.Path_eval.spt;
    check int_array "unidirectional" plain.Path_eval.unidirectional
      cached.Path_eval.unidirectional;
    check int_array "bidirectional" plain.Path_eval.bidirectional cached.Path_eval.bidirectional;
    check int_array "hybrid" plain.Path_eval.hybrid cached.Path_eval.hybrid;
    (* Same for a tree built from precomputed root paths. *)
    let members = Array.to_list receivers in
    let t1 = Shared_tree.build topo ~root ~members in
    let t2 = Shared_tree.build ~to_root:(Spf.bfs_cached cache root) topo ~root ~members in
    check Alcotest.int "tree node count" (Views.tree_nodes t1 ~n) (Views.tree_nodes t2 ~n);
    List.iter
      (fun m ->
        check Alcotest.int "member depth" (Shared_tree.depth t1 m) (Shared_tree.depth t2 m);
        check (Alcotest.option Alcotest.int) "member parent" (Shared_tree.parent t1 m)
          (Shared_tree.parent t2 m))
      members
  done

let test_mismatched_precomputed_paths_rejected () =
  let topo = Topo_fixtures.line ~n:5 in
  let wrong = Spf.bfs topo 2 in
  Alcotest.check_raises "shared tree rejects wrong root"
    (Invalid_argument "Shared_tree.build: to_root paths not rooted at root") (fun () ->
      ignore (Shared_tree.build ~to_root:wrong topo ~root:0 ~members:[ 4 ]));
  Alcotest.check_raises "path eval rejects wrong source"
    (Invalid_argument "Path_eval.evaluate: from_source paths have the wrong source") (fun () ->
      ignore
        (Path_eval.evaluate ~from_source:wrong topo
           { Path_eval.source = 0; root = 1; receivers = [| 4 |] }))

let test_experiment_unchanged_by_cache () =
  (* The experiment driver evaluates every trial in a reused per-worker
     workspace; its points must be exactly what fresh, uncached
     evaluation produces. *)
  let p =
    {
      Tree_experiment.default_params with
      Tree_experiment.nodes = 150;
      group_sizes = [ 1; 5; 20 ];
      trials = 5;
      seed = 3;
    }
  in
  let r = Tree_experiment.run p in
  (* Replay the driver's sampling with uncached Path_eval calls. *)
  let rng = Rng.create p.Tree_experiment.seed in
  let topo = Gen.power_law ~rng ~n:p.Tree_experiment.nodes ~m:2 in
  let n = Topo.domain_count topo in
  let expected =
    List.map
      (fun size ->
        let ua = Stats.create () in
        for _ = 1 to p.Tree_experiment.trials do
          let source = Rng.int rng n in
          let receivers =
            let draws = Rng.sample_without_replacement rng (size + 1) n in
            let filtered =
              Array.of_list (List.filter (fun d -> d <> source) (Array.to_list draws))
            in
            Array.sub filtered 0 size
          in
          let root = receivers.(0) in
          let paths = Path_eval.evaluate topo { Path_eval.source; root; receivers } in
          let s =
            Path_eval.ratios ~baseline:paths.Path_eval.spt ~receivers:size
              paths.Path_eval.unidirectional
          in
          if s.Path_eval.receivers_counted > 0 then Stats.add ua s.Path_eval.avg_ratio
        done;
        Stats.mean ua)
      p.Tree_experiment.group_sizes
  in
  List.iter2
    (fun (pt : Tree_experiment.point) expected_uni ->
      check (Alcotest.float 0.0) "uni_avg identical to uncached replay" expected_uni
        pt.Tree_experiment.uni_avg)
    r.Tree_experiment.points expected

let suite =
  [
    ("bfs matches reference", `Quick, test_bfs_matches_reference);
    ("explicit workspace reuse", `Quick, test_explicit_workspace_reuse);
    ("bfs into reused arrays", `Quick, test_bfs_into_reused_arrays);
    ("bfs into allocation", `Quick, test_bfs_into_allocation);
    ("freeze memoized and invalidated", `Quick, test_freeze_memoized_and_invalidated);
    ("cache transparent", `Quick, test_cache_transparent);
    ("precomputed paths change nothing", `Quick, test_precomputed_paths_do_not_change_results);
    ("mismatched precomputed paths rejected", `Quick, test_mismatched_precomputed_paths_rejected);
    ("experiment unchanged by cache", `Quick, test_experiment_unchanged_by_cache);
  ]
