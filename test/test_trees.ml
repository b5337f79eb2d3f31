(* Tests for mcast_trees: shared-tree construction, the four path
   models, and the Figure-4 experiment driver. *)

let check = Alcotest.check

(* --- Shared_tree ------------------------------------------------------- *)

let test_tree_root_always_on_tree () =
  let topo = Gen.line ~n:4 in
  let tree = Shared_tree.build topo ~root:0 ~members:[] in
  check Alcotest.bool "root on tree" true (Shared_tree.on_tree tree 0);
  check Alcotest.int "only the root" 1 (Shared_tree.node_count tree)

let test_tree_join_grafts_path () =
  let topo = Gen.line ~n:5 in
  let tree = Shared_tree.build topo ~root:0 ~members:[ 4 ] in
  for i = 0 to 4 do
    check Alcotest.bool (Printf.sprintf "node %d on tree" i) true (Shared_tree.on_tree tree i)
  done;
  check Alcotest.int "depth of member" 4 (Shared_tree.depth tree 4);
  check (Alcotest.option Alcotest.int) "parent pointers toward root" (Some 1)
    (Shared_tree.parent tree 2)

let test_tree_join_stops_at_tree () =
  (* Star: hub 0 with leaves.  The second leaf's join stops at the hub,
     not the root leaf. *)
  let topo = Gen.star ~n:5 in
  let tree = Shared_tree.build topo ~root:1 ~members:[ 2; 3 ] in
  check Alcotest.int "nodes: root, hub, two leaves" 4 (Shared_tree.node_count tree);
  check Alcotest.int "tree distance leaf-leaf" 2 (Shared_tree.tree_distance tree 2 3);
  check Alcotest.int "tree distance leaf-root" 2 (Shared_tree.tree_distance tree 2 1);
  check Alcotest.int "distance to self" 0 (Shared_tree.tree_distance tree 2 2)

let test_tree_duplicate_join_harmless () =
  let topo = Gen.line ~n:3 in
  let tree = Shared_tree.build topo ~root:0 ~members:[ 2; 2; 2 ] in
  check Alcotest.int "no duplicate nodes" 3 (Shared_tree.node_count tree);
  check Alcotest.int "members recorded" 3 (List.length (Shared_tree.members tree))

let test_tree_distance_off_tree_raises () =
  let topo = Gen.line ~n:4 in
  let tree = Shared_tree.build topo ~root:0 ~members:[ 1 ] in
  Alcotest.check_raises "off-tree endpoint"
    (Invalid_argument "Shared_tree.tree_distance: endpoint off tree") (fun () ->
      ignore (Shared_tree.tree_distance tree 1 3))

let test_tree_entry_point () =
  let topo = Gen.star ~n:6 in
  let tree = Shared_tree.build topo ~root:1 ~members:[ 2 ] in
  (* Leaf 5 is off-tree; its data walks to the hub, which is on-tree. *)
  check (Alcotest.option Alcotest.int) "entry at hub" (Some 0) (Shared_tree.entry_point tree 5);
  check (Alcotest.option Alcotest.int) "on-tree sender is its own entry" (Some 2)
    (Shared_tree.entry_point tree 2)

(* --- Path_eval ---------------------------------------------------------- *)

let test_path_eval_line_root_at_source () =
  (* Root co-located with the source: bidirectional = SPT exactly. *)
  let topo = Gen.line ~n:6 in
  let group = { Path_eval.source = 0; root = 0; receivers = [| 2; 4; 5 |] } in
  let paths = Path_eval.evaluate topo group in
  check (Alcotest.array Alcotest.int) "spt" [| 2; 4; 5 |] paths.Path_eval.spt;
  check (Alcotest.array Alcotest.int) "bidirectional equals spt" [| 2; 4; 5 |]
    paths.Path_eval.bidirectional;
  check (Alcotest.array Alcotest.int) "unidirectional equals spt here" [| 2; 4; 5 |]
    paths.Path_eval.unidirectional;
  check (Alcotest.array Alcotest.int) "hybrid equals spt" [| 2; 4; 5 |] paths.Path_eval.hybrid

let test_path_eval_unidirectional_detour () =
  (* Line 0-1-2-3-4: source at 4, root/RP at 0, receiver at 3.
     SPT: 1 hop.  Unidirectional: 4 (to RP) + 3 (down) = 7.
     Bidirectional: data meets the tree at 3 itself: 1 hop. *)
  let topo = Gen.line ~n:5 in
  let group = { Path_eval.source = 4; root = 0; receivers = [| 3 |] } in
  let paths = Path_eval.evaluate topo group in
  check (Alcotest.array Alcotest.int) "spt" [| 1 |] paths.Path_eval.spt;
  check (Alcotest.array Alcotest.int) "unidirectional via RP" [| 7 |]
    paths.Path_eval.unidirectional;
  check (Alcotest.array Alcotest.int) "bidirectional shortcuts" [| 1 |]
    paths.Path_eval.bidirectional;
  check (Alcotest.array Alcotest.int) "hybrid no worse" [| 1 |] paths.Path_eval.hybrid

let test_path_eval_hybrid_beats_bidirectional () =
  (* Figure-3-like: the receiver's shortest path to the source leaves
     the shared tree, so a branch helps.
         0 (root)
         |
         1 --- 2 (receiver)
         |     |
         3 --- 4 --- 5 (source)   with the tree path 2-1-0 and source
     feeding via ... build concretely: receiver 2's path to source 5 is
     2-4-5 (2 hops); its tree path from the source entry is longer. *)
  let topo = Topo.create () in
  let add name = Topo.add_domain topo ~name ~kind:Domain.Stub in
  let n0 = add "n0" and n1 = add "n1" and n2 = add "n2" in
  let n3 = add "n3" and n4 = add "n4" and n5 = add "n5" in
  Topo.add_link topo n0 n1 Topo.Peer;
  Topo.add_link topo n1 n2 Topo.Peer;
  Topo.add_link topo n1 n3 Topo.Peer;
  Topo.add_link topo n3 n4 Topo.Peer;
  Topo.add_link topo n2 n4 Topo.Peer;
  Topo.add_link topo n4 n5 Topo.Peer;
  let group = { Path_eval.source = n5; root = n0; receivers = [| n2 |] } in
  let paths = Path_eval.evaluate topo group in
  check (Alcotest.array Alcotest.int) "spt 2 hops" [| 2 |] paths.Path_eval.spt;
  check Alcotest.bool "hybrid no worse than bidirectional" true
    (paths.Path_eval.hybrid.(0) <= paths.Path_eval.bidirectional.(0));
  check (Alcotest.array Alcotest.int) "branch reaches the source domain" [| 2 |]
    paths.Path_eval.hybrid

let test_ratios () =
  let s = Path_eval.ratios ~baseline:[| 2; 4; 0 |] [| 4; 4; 7 |] in
  check Alcotest.int "zero-baseline receivers skipped" 2 s.Path_eval.receivers_counted;
  check (Alcotest.float 1e-9) "avg" 1.5 s.Path_eval.avg_ratio;
  check (Alcotest.float 1e-9) "max" 2.0 s.Path_eval.max_ratio

let test_ratios_length_mismatch () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Path_eval.ratios: length mismatch")
    (fun () -> ignore (Path_eval.ratios ~baseline:[| 1 |] [| 1; 2 |]))

(* Property: fundamental ordering between the tree families. *)
let prop_path_orderings =
  QCheck.Test.make ~name:"spt <= hybrid <= bidirectional; spt <= unidirectional" ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let topo = Gen.power_law ~rng ~n:80 ~m:2 in
      let n = Topo.domain_count topo in
      let source = Rng.int rng n in
      let receivers =
        Array.of_list
          (List.filter (fun d -> d <> source)
             (Array.to_list (Rng.sample_without_replacement rng 10 n)))
      in
      let root = receivers.(0) in
      let paths = Path_eval.evaluate topo { Path_eval.source; root; receivers } in
      let ok = ref true in
      Array.iteri
        (fun i spt ->
          let u = paths.Path_eval.unidirectional.(i)
          and b = paths.Path_eval.bidirectional.(i)
          and h = paths.Path_eval.hybrid.(i) in
          if not (spt <= u && spt <= b && spt <= h && h <= b) then ok := false)
        paths.Path_eval.spt;
      !ok)

(* Property: bidirectional path = tree walk, so it is symmetric in a
   specific sense: all receivers on the tree get data. Check the tree
   contains every receiver and path lengths are finite. *)
let prop_paths_finite =
  QCheck.Test.make ~name:"all tree paths finite on connected graphs" ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let topo = Gen.transit_stub ~rng ~backbones:2 ~regionals_per_backbone:2 ~stubs_per_regional:3 in
      let n = Topo.domain_count topo in
      let source = Rng.int rng n in
      let receivers = Rng.sample_without_replacement rng (min 8 (n - 1)) n in
      let receivers = Array.of_list (List.filter (fun d -> d <> source) (Array.to_list receivers)) in
      if Array.length receivers = 0 then true
      else begin
        let paths =
          Path_eval.evaluate topo { Path_eval.source; root = receivers.(0); receivers }
        in
        Array.for_all (fun x -> x >= 0 && x < 4 * n) paths.Path_eval.unidirectional
        && Array.for_all (fun x -> x >= 0 && x < 4 * n) paths.Path_eval.bidirectional
        && Array.for_all (fun x -> x >= 0 && x < 4 * n) paths.Path_eval.hybrid
      end)

(* --- Paths from a topology of another size ------------------------------- *)

let foreign_paths () = Spf.bfs (Gen.line ~n:7) 0

let test_tree_build_rejects_foreign_paths () =
  Alcotest.check_raises "build"
    (Invalid_argument "Shared_tree.build: to_root paths sized for another topology") (fun () ->
      ignore (Shared_tree.build ~to_root:(foreign_paths ()) (Gen.line ~n:4) ~root:0 ~members:[ 3 ]))

let test_tree_reset_rejects_foreign_paths () =
  let tree = Shared_tree.create (Gen.line ~n:4) in
  Alcotest.check_raises "reset"
    (Invalid_argument "Shared_tree.reset: to_root paths sized for another topology") (fun () ->
      Shared_tree.reset tree ~to_root:(foreign_paths ()) ~root:0)

let test_path_eval_rejects_foreign_paths () =
  let topo = Gen.line ~n:4 in
  let group = { Path_eval.source = 0; root = 0; receivers = [| 3 |] } in
  Alcotest.check_raises "from_source"
    (Invalid_argument "Path_eval.evaluate: from_source paths sized for another topology")
    (fun () -> ignore (Path_eval.evaluate ~from_source:(foreign_paths ()) topo group));
  Alcotest.check_raises "from_root"
    (Invalid_argument "Path_eval.evaluate: from_root paths sized for another topology")
    (fun () -> ignore (Path_eval.evaluate ~from_root:(foreign_paths ()) topo group))

let test_path_eval_workspace_rejects_other_topology () =
  let ws = Path_eval.make_workspace (Gen.line ~n:4) in
  let group = { Path_eval.source = 0; root = 0; receivers = [| 3 |] } in
  List.iter
    (fun other ->
      Alcotest.check_raises "evaluate_with"
        (Invalid_argument "Path_eval.evaluate_with: workspace built for another topology")
        (fun () -> ignore (Path_eval.evaluate_with ws other group)))
    [ Gen.line ~n:7; Gen.line ~n:4 ]

(* --- Reused workspace against fresh evaluation --------------------------- *)

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* Power-law, transit-stub, or a disconnected graph: a power-law core
   plus an island pair and isolated domains, so some receivers cannot
   reach some roots. *)
let random_graph rng =
  match Rng.int rng 3 with
  | 0 -> Gen.power_law ~rng ~n:(10 + Rng.int rng 60) ~m:(1 + Rng.int rng 2)
  | 1 ->
      Gen.transit_stub ~rng ~backbones:2 ~regionals_per_backbone:(1 + Rng.int rng 2)
        ~stubs_per_regional:(1 + Rng.int rng 3)
  | _ ->
      let topo = Gen.power_law ~rng ~n:(10 + Rng.int rng 40) ~m:2 in
      let add name = Topo.add_domain topo ~name ~kind:Domain.Stub in
      let a = add "island-a" and b = add "island-b" in
      Topo.add_link topo a b Topo.Peer;
      for i = 1 to 1 + Rng.int rng 3 do
        ignore (add (Printf.sprintf "isolated-%d" i))
      done;
      topo

(* Size 1, a handful, or at least n/2; receivers drawn with replacement
   (duplicates join twice); the root is the source, the first receiver,
   or any domain. *)
let random_group rng n =
  let source = Rng.int rng n in
  let size =
    match Rng.int rng 4 with
    | 0 -> 1
    | 1 -> (n / 2) + Rng.int rng (n - (n / 2))
    | _ -> 1 + Rng.int rng 8
  in
  let receivers = Array.init size (fun _ -> Rng.int rng n) in
  let root =
    match Rng.int rng 3 with 0 -> source | 1 -> receivers.(0) | _ -> Rng.int rng n
  in
  { Path_eval.source; root; receivers }

let same_tree n reused fresh =
  let anchors = [ Shared_tree.root fresh ] @ Shared_tree.members fresh in
  Shared_tree.node_count reused = Shared_tree.node_count fresh
  && Shared_tree.members reused = Shared_tree.members fresh
  && List.for_all
       (fun v ->
         Shared_tree.on_tree reused v = Shared_tree.on_tree fresh v
         && Shared_tree.parent reused v = Shared_tree.parent fresh v
         && (not (Shared_tree.on_tree fresh v)
            || Shared_tree.depth reused v = Shared_tree.depth fresh v
               && List.for_all
                    (fun a ->
                      outcome (fun () -> Shared_tree.tree_distance reused v a)
                      = outcome (fun () -> Shared_tree.tree_distance fresh v a))
                    anchors))
       (List.init n Fun.id)

let prop_workspace_matches_fresh =
  QCheck.Test.make ~name:"reused workspace = fresh evaluate and build" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let topo = random_graph rng in
      let n = Topo.domain_count topo in
      let ws = Path_eval.make_workspace topo in
      List.for_all
        (fun _ ->
          let group = random_group rng n in
          let reused = outcome (fun () -> Path_eval.evaluate_with ws topo group) in
          let fresh = outcome (fun () -> Path_eval.evaluate topo group) in
          let tree =
            Shared_tree.build topo ~root:group.Path_eval.root
              ~members:(Array.to_list group.Path_eval.receivers)
          in
          reused = fresh && same_tree n (Path_eval.workspace_tree ws) tree)
        (List.init (1 + Rng.int rng 6) Fun.id))

(* --- Allocation of a Figure 4 trial -------------------------------------- *)

(* A size-100 trial in a warmed workspace on the Figure 4 graph: no
   array sized by the graph, so nothing goes straight to the major heap
   ([major_words - promoted_words] counts only direct major allocation),
   and the minor bytes are the group-sized results: four 100-entry path
   arrays, three ratio summaries and the records around them.  Measured
   at 3704 bytes on 64-bit (with the two [Gc.counters] results); the
   bound is 1.25x that. *)
let trial_minor_bytes_bound = 4_630.0

let test_trial_allocation () =
  let topo = Gen.power_law ~rng:(Rng.create 1998) ~n:3326 ~m:2 in
  let n = Topo.domain_count topo in
  let rng = Rng.create 4 in
  let source = Rng.int rng n in
  let receivers = Path_eval.draw_receivers rng ~n ~source 100 in
  let group = { Path_eval.source; root = receivers.(0); receivers } in
  let ws = Path_eval.make_workspace topo in
  let trial () =
    let paths = Path_eval.evaluate_with ws topo group in
    let baseline = paths.Path_eval.spt in
    ignore (Path_eval.ratios ~baseline paths.Path_eval.unidirectional);
    ignore (Path_eval.ratios ~baseline paths.Path_eval.bidirectional);
    ignore (Path_eval.ratios ~baseline paths.Path_eval.hybrid)
  in
  trial ();
  (* [Gc.counters] reports major and promoted words exactly but lags on
     the minor heap, so minor words come from [Gc.minor_words]. *)
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  trial ();
  let _, promoted1, major1 = Gc.counters () in
  let minor1 = Gc.minor_words () in
  let direct_major = major1 -. major0 -. (promoted1 -. promoted0) in
  let minor_bytes = (minor1 -. minor0) *. float_of_int (Sys.word_size / 8) in
  check (Alcotest.float 0.0) "direct major-heap words" 0.0 direct_major;
  check Alcotest.bool
    (Printf.sprintf "minor bytes %.0f within %.0f" minor_bytes trial_minor_bytes_bound)
    true
    (minor_bytes <= trial_minor_bytes_bound)

(* --- Tree_experiment ----------------------------------------------------- *)

let tiny_params =
  {
    Tree_experiment.default_params with
    Tree_experiment.nodes = 150;
    group_sizes = [ 1; 5; 20 ];
    trials = 5;
    seed = 3;
  }

let test_experiment_shape () =
  let r = Tree_experiment.run tiny_params in
  check Alcotest.int "one point per size" 3 (List.length r.Tree_experiment.points);
  List.iter
    (fun (pt : Tree_experiment.point) ->
      check Alcotest.bool "ratios at least 1" true
        (pt.Tree_experiment.uni_avg >= 1.0 && pt.Tree_experiment.bi_avg >= 1.0
        && pt.Tree_experiment.hy_avg >= 1.0);
      check Alcotest.bool "max >= avg" true
        (pt.Tree_experiment.uni_max >= pt.Tree_experiment.uni_avg
        && pt.Tree_experiment.bi_max >= pt.Tree_experiment.bi_avg
        && pt.Tree_experiment.hy_max >= pt.Tree_experiment.hy_avg);
      check Alcotest.bool "hybrid no worse than bidirectional on average" true
        (pt.Tree_experiment.hy_avg <= pt.Tree_experiment.bi_avg +. 1e-9))
    r.Tree_experiment.points

let test_experiment_deterministic () =
  let a = Tree_experiment.run tiny_params and b = Tree_experiment.run tiny_params in
  List.iter2
    (fun (x : Tree_experiment.point) (y : Tree_experiment.point) ->
      check (Alcotest.float 1e-12) "same uni_avg" x.Tree_experiment.uni_avg y.Tree_experiment.uni_avg;
      check (Alcotest.float 1e-12) "same hy_max" x.Tree_experiment.hy_max y.Tree_experiment.hy_max)
    a.Tree_experiment.points b.Tree_experiment.points

let test_experiment_paper_shape_medium () =
  (* A medium instance must already show the paper's ordering at larger
     group sizes: unidirectional clearly worse than bidirectional, which
     is a little worse than hybrid. *)
  let r =
    Tree_experiment.run
      {
        Tree_experiment.default_params with
        Tree_experiment.nodes = 600;
        group_sizes = [ 100 ];
        trials = 10;
        seed = 42;
      }
  in
  match r.Tree_experiment.points with
  | [ pt ] ->
      check Alcotest.bool "unidirectional about 2x SPT" true
        (pt.Tree_experiment.uni_avg > 1.5);
      check Alcotest.bool "bidirectional much better than unidirectional" true
        (pt.Tree_experiment.bi_avg < pt.Tree_experiment.uni_avg);
      check Alcotest.bool "hybrid best of the shared trees" true
        (pt.Tree_experiment.hy_avg <= pt.Tree_experiment.bi_avg)
  | _ -> Alcotest.fail "expected one point"

let test_experiment_root_placement_ablation () =
  (* Root at the source's own domain: the bidirectional tree becomes a
     reverse SPT, so its overhead must drop vs third-party rooting. *)
  let run placement =
    let r =
      Tree_experiment.run
        {
          tiny_params with
          Tree_experiment.nodes = 400;
          group_sizes = [ 50 ];
          trials = 10;
          root_placement = placement;
        }
    in
    (List.hd r.Tree_experiment.points).Tree_experiment.bi_avg
  in
  let at_source = run Tree_experiment.Root_at_source in
  let random = run Tree_experiment.Root_random in
  check Alcotest.bool "source-rooted trees shorter than random-rooted" true
    (at_source <= random +. 1e-9)

let test_series_output () =
  let r = Tree_experiment.run tiny_params in
  let series = Tree_experiment.series_of_result r in
  check Alcotest.int "six series" 6 (List.length series);
  List.iter
    (fun (s : Stats.series) ->
      check Alcotest.int "one point per size" 3 (Array.length s.Stats.points))
    series

let suite =
  [
    ("tree root always on tree", `Quick, test_tree_root_always_on_tree);
    ("tree join grafts path", `Quick, test_tree_join_grafts_path);
    ("tree join stops at tree", `Quick, test_tree_join_stops_at_tree);
    ("tree duplicate join harmless", `Quick, test_tree_duplicate_join_harmless);
    ("tree distance off tree raises", `Quick, test_tree_distance_off_tree_raises);
    ("tree entry point", `Quick, test_tree_entry_point);
    ("path eval line, root at source", `Quick, test_path_eval_line_root_at_source);
    ("path eval unidirectional detour", `Quick, test_path_eval_unidirectional_detour);
    ("path eval hybrid beats bidirectional", `Quick, test_path_eval_hybrid_beats_bidirectional);
    ("ratios", `Quick, test_ratios);
    ("ratios length mismatch", `Quick, test_ratios_length_mismatch);
    QCheck_alcotest.to_alcotest prop_path_orderings;
    QCheck_alcotest.to_alcotest prop_paths_finite;
    ("tree build rejects foreign-size paths", `Quick, test_tree_build_rejects_foreign_paths);
    ("tree reset rejects foreign-size paths", `Quick, test_tree_reset_rejects_foreign_paths);
    ("path eval rejects foreign-size paths", `Quick, test_path_eval_rejects_foreign_paths);
    ( "path eval workspace rejects another topology",
      `Quick,
      test_path_eval_workspace_rejects_other_topology );
    QCheck_alcotest.to_alcotest prop_workspace_matches_fresh;
    ("trial allocation", `Quick, test_trial_allocation);
    ("experiment shape", `Quick, test_experiment_shape);
    ("experiment deterministic", `Quick, test_experiment_deterministic);
    ("experiment paper shape (medium)", `Slow, test_experiment_paper_shape_medium);
    ("experiment root placement ablation", `Slow, test_experiment_root_placement_ablation);
    ("series output", `Quick, test_series_output);
  ]
