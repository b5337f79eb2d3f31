(* Tests for mcast_trees: shared-tree construction, the four path
   models, and the Figure-4 experiment driver. *)

let check = Alcotest.check

(* --- Shared_tree ------------------------------------------------------- *)

let test_tree_root_always_on_tree () =
  let topo = Topo_fixtures.line ~n:4 in
  let tree = Shared_tree.build topo ~root:0 ~members:[] in
  check Alcotest.bool "root on tree" true (Shared_tree.on_tree tree 0);
  check Alcotest.int "only the root" 1 (Views.tree_nodes tree ~n:4)

let test_tree_join_grafts_path () =
  let topo = Topo_fixtures.line ~n:5 in
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
  let topo = Topo_fixtures.star ~n:5 in
  let tree = Shared_tree.build topo ~root:1 ~members:[ 2; 3 ] in
  check Alcotest.int "nodes: root, hub, two leaves" 4 (Views.tree_nodes tree ~n:5);
  check Alcotest.int "tree distance leaf-leaf" 2 (Shared_tree.tree_distance tree 2 3);
  check Alcotest.int "tree distance leaf-root" 2 (Shared_tree.tree_distance tree 2 1);
  check Alcotest.int "distance to self" 0 (Shared_tree.tree_distance tree 2 2)

let test_tree_duplicate_join_harmless () =
  let topo = Topo_fixtures.line ~n:3 in
  let tree = Shared_tree.build topo ~root:0 ~members:[ 2; 2; 2 ] in
  check Alcotest.int "no duplicate nodes" 3 (Views.tree_nodes tree ~n:3);
  check Alcotest.int "members recorded" 3 (List.length (Shared_tree.members tree))

let test_tree_distance_off_tree_raises () =
  let topo = Topo_fixtures.line ~n:4 in
  let tree = Shared_tree.build topo ~root:0 ~members:[ 1 ] in
  Alcotest.check_raises "off-tree endpoint"
    (Invalid_argument "Shared_tree.tree_distance: endpoint off tree") (fun () ->
      ignore (Shared_tree.tree_distance tree 1 3))

let test_tree_entry_point () =
  let topo = Topo_fixtures.star ~n:6 in
  let tree = Shared_tree.build topo ~root:1 ~members:[ 2 ] in
  (* Leaf 5 is off-tree; its data walks to the hub, which is on-tree. *)
  check (Alcotest.option Alcotest.int) "entry at hub" (Some 0) (Shared_tree.entry_point tree 5);
  check (Alcotest.option Alcotest.int) "on-tree sender is its own entry" (Some 2)
    (Shared_tree.entry_point tree 2)

(* --- Path_eval ---------------------------------------------------------- *)

let test_path_eval_line_root_at_source () =
  (* Root co-located with the source: bidirectional = SPT exactly. *)
  let topo = Topo_fixtures.line ~n:6 in
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
  let topo = Topo_fixtures.line ~n:5 in
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
  let s = Path_eval.ratios ~baseline:[| 2; 4; 0 |] ~receivers:3 [| 4; 4; 7 |] in
  check Alcotest.int "zero-baseline receivers skipped" 2 s.Path_eval.receivers_counted;
  check (Alcotest.float 1e-9) "avg" 1.5 s.Path_eval.avg_ratio;
  check (Alcotest.float 1e-9) "max" 2.0 s.Path_eval.max_ratio

let test_ratios_length_mismatch () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Path_eval.ratios: length mismatch")
    (fun () -> ignore (Path_eval.ratios ~baseline:[| 1 |] ~receivers:2 [| 1; 2 |]))

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

let foreign_paths () = Spf.bfs (Topo_fixtures.line ~n:7) 0

let test_tree_build_rejects_foreign_paths () =
  Alcotest.check_raises "build"
    (Invalid_argument "Shared_tree.build: to_root paths sized for another topology") (fun () ->
      ignore (Shared_tree.build ~to_root:(foreign_paths ()) (Topo_fixtures.line ~n:4) ~root:0 ~members:[ 3 ]))

let test_tree_reset_rejects_foreign_paths () =
  let tree = Shared_tree.create (Topo_fixtures.line ~n:4) in
  Alcotest.check_raises "reset"
    (Invalid_argument "Shared_tree.reset: to_root paths sized for another topology") (fun () ->
      Shared_tree.reset tree ~to_root:(foreign_paths ()) ~root:0)

let test_path_eval_rejects_foreign_paths () =
  let topo = Topo_fixtures.line ~n:4 in
  let group = { Path_eval.source = 0; root = 0; receivers = [| 3 |] } in
  Alcotest.check_raises "from_source"
    (Invalid_argument "Path_eval.evaluate: from_source paths sized for another topology")
    (fun () -> ignore (Path_eval.evaluate ~from_source:(foreign_paths ()) topo group));
  Alcotest.check_raises "from_root"
    (Invalid_argument "Path_eval.evaluate: from_root paths sized for another topology")
    (fun () -> ignore (Path_eval.evaluate ~from_root:(foreign_paths ()) topo group))

let test_path_eval_workspace_rejects_other_topology () =
  let ws = Path_eval.make_workspace (Topo_fixtures.line ~n:4) in
  let group = { Path_eval.source = 0; root = 0; receivers = [| 3 |] } in
  List.iter
    (fun other ->
      Alcotest.check_raises "evaluate_with"
        (Invalid_argument "Path_eval.evaluate_with: workspace built for another topology")
        (fun () -> ignore (Path_eval.evaluate_with ws other group)))
    [ Topo_fixtures.line ~n:7; Topo_fixtures.line ~n:4 ]

(* An empty BFS slot must not pass for a negative node's tree: unknown
   endpoints reach [Spf.start], which rejects them. *)
let test_path_eval_workspace_rejects_unknown_endpoints () =
  let topo = Topo_fixtures.line ~n:4 in
  let ws = Path_eval.make_workspace topo in
  List.iter
    (fun (source, root) ->
      let group = { Path_eval.source; root; receivers = [| 3 |] } in
      Alcotest.check_raises
        (Printf.sprintf "source %d root %d" source root)
        (Invalid_argument "Spf.start: unknown source id")
        (fun () -> ignore (Path_eval.evaluate_with ws topo group)))
    [ (-1, 0); (0, -1); (-1, -1); (4, 0); (0, 4) ]

(* --- Reused workspace against fresh evaluation --------------------------- *)

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* The first [k] entries of each path array: a workspace result holds
   the group's [k] receivers at the front of longer buffers. *)
let prefix k (p : Path_eval.paths) =
  let cut a = Array.sub a 0 k in
  {
    Path_eval.spt = cut p.Path_eval.spt;
    unidirectional = cut p.Path_eval.unidirectional;
    bidirectional = cut p.Path_eval.bidirectional;
    hybrid = cut p.Path_eval.hybrid;
  }

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
  Views.tree_nodes reused ~n = Views.tree_nodes fresh ~n
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

(* A BFS-run counter in a capture's registry, for the test's span. *)
let with_bfs_counter f =
  fst (Obs.capture (fun () -> f (fun () -> Metrics.count (Metrics.counter "spf.bfs_runs"))))

(* --- Resumable search ------------------------------------------------------ *)

(* The full BFS discovery order from [src]: the FIFO loop spelled out
   over the snapshot's rows. *)
let bfs_order (csr : Topo.csr) src =
  let n = csr.Topo.csr_nodes in
  let seen = Array.make n false and order = Array.make n 0 in
  seen.(src) <- true;
  let head = ref 0 and tail = ref 1 in
  order.(0) <- src;
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    for k = csr.Topo.row.(u) to csr.Topo.row.(u + 1) - 1 do
      let v = csr.Topo.nbr.(k) in
      if not seen.(v) then begin
        seen.(v) <- true;
        order.(!tail) <- v;
        incr tail
      end
    done
  done;
  Array.sub order 0 !tail

(* A partial search against the full BFS: the discovered nodes are the
   first [d] of the BFS order, each with the full BFS's dist and via,
   and everything else still reads max_int / -1. *)
let partial_ok (full : Spf.paths) order (p : Spf.paths) =
  let n = Array.length full.Spf.dist in
  let d = Array.fold_left (fun c x -> if x <> max_int then c + 1 else c) 0 p.Spf.dist in
  d <= Array.length order
  && Array.for_all (fun v -> p.Spf.dist.(v) <> max_int) (Array.sub order 0 d)
  && List.for_all
       (fun v ->
         if p.Spf.dist.(v) <> max_int then
           p.Spf.dist.(v) = full.Spf.dist.(v) && p.Spf.via.(v) = full.Spf.via.(v)
         else p.Spf.via.(v) = -1)
       (List.init n Fun.id)

let same_paths (a : Spf.paths) (b : Spf.paths) =
  a.Spf.src = b.Spf.src && a.Spf.dist = b.Spf.dist && a.Spf.via = b.Spf.via

(* One search reused for several sources, each reached toward random
   targets and then completed, against a fresh search per source and
   [Spf.bfs]: partial states are prefixes of the BFS order, a reached
   target is discovered unless the search ran dry, the completed arrays
   equal [Spf.bfs]'s (unreachable nodes at max_int), and each start is
   one [spf.bfs_runs]. *)
let prop_search_matches_bfs =
  QCheck.Test.make ~name:"resumable search = full bfs" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let topo = random_graph rng in
      let csr = Topo.freeze topo in
      let n = csr.Topo.csr_nodes in
      let reused = Spf.make_search csr in
      with_bfs_counter @@ fun bfs_runs ->
      List.for_all
        (fun _ ->
          let src = Rng.int rng n in
          let full = Spf.bfs topo src and order = bfs_order csr src in
          let fresh = Spf.make_search csr in
          let before = bfs_runs () in
          Spf.start reused src;
          Spf.start fresh src;
          let started = bfs_runs () - before = 2 && Spf.search_source reused = src in
          let reached =
            List.for_all
              (fun _ ->
                let target = Rng.int rng n in
                Spf.reach reused target;
                Spf.reach fresh target;
                let p = Spf.search_paths reused in
                partial_ok full order p
                && same_paths p (Spf.search_paths fresh)
                && (p.Spf.dist.(target) <> max_int
                   || full.Spf.dist.(target) = max_int
                      && Array.for_all (fun v -> p.Spf.dist.(v) <> max_int) order))
              (List.init (Rng.int rng 6) Fun.id)
          in
          Spf.complete reused;
          Spf.complete fresh;
          started && reached
          && same_paths (Spf.search_paths reused) full
          && same_paths (Spf.search_paths fresh) full)
        (List.init (1 + Rng.int rng 4) Fun.id))

(* How a group follows the previous one in a sequence, and the BFS runs
   the slot cache may spend on it: [Exactly k] or [At_most k]. *)
type bound = Exactly of int | At_most of int

(* The next group of a sequence: a fresh one, or one chained to the
   previous group through a shared endpoint, the same group again, a
   source-rooted group, or a fresh group after [forget] (which then
   pays for each distinct endpoint). *)
let next_group rng n ws prev =
  let g = random_group rng n in
  let endpoints g = if g.Path_eval.source = g.Path_eval.root then 1 else 2 in
  match prev with
  | None -> (g, At_most 2)
  | Some prev -> (
      match Rng.int rng 6 with
      | 0 -> (g, At_most 2)
      | 1 -> ({ g with Path_eval.source = prev.Path_eval.root }, At_most 1)
      | 2 -> ({ g with Path_eval.root = prev.Path_eval.source }, At_most 1)
      | 3 -> ({ g with Path_eval.root = g.Path_eval.source }, At_most 1)
      | 4 -> (prev, Exactly 0)
      | _ ->
          Path_eval.forget ws;
          (g, Exactly (endpoints g)))

let prop_workspace_matches_fresh =
  QCheck.Test.make ~name:"reused workspace = fresh evaluate and build" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let topo = random_graph rng in
      let n = Topo.domain_count topo in
      let ws = Path_eval.make_workspace topo in
      with_bfs_counter @@ fun bfs_runs ->
      let prev = ref None in
      List.for_all
        (fun _ ->
          let group, bound = next_group rng n ws !prev in
          prev := Some group;
          let before = bfs_runs () in
          let k = Array.length group.Path_eval.receivers in
          let reused =
            Result.map (prefix k) (outcome (fun () -> Path_eval.evaluate_with ws topo group))
          in
          let ran = bfs_runs () - before in
          let fresh = outcome (fun () -> Path_eval.evaluate topo group) in
          let tree =
            Shared_tree.build topo ~root:group.Path_eval.root
              ~members:(Array.to_list group.Path_eval.receivers)
          in
          let within = match bound with Exactly k -> ran = k | At_most k -> ran <= k in
          within && reused = fresh && same_tree n (Path_eval.workspace_tree ws) tree)
        (List.init (1 + Rng.int rng 12) Fun.id))

(* The tree [workspace_tree] hands out takes later joins like a fresh
   build: its root paths are complete, not the partial search an
   evaluation stopped.  After each evaluation every domain joins, in id
   order, and the tree must equal one built from the group's receivers
   followed by every domain. *)
let prop_workspace_tree_complete =
  QCheck.Test.make ~name:"workspace tree takes later joins" ~count:150
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let topo = random_graph rng in
      let n = Topo.domain_count topo in
      let ws = Path_eval.make_workspace topo in
      List.for_all
        (fun _ ->
          let group = random_group rng n in
          match Path_eval.evaluate_with ws topo group with
          | exception Invalid_argument _ -> true
          | _ ->
              let tree = Path_eval.workspace_tree ws in
              let everyone = List.init n Fun.id in
              List.iter (Shared_tree.join tree) everyone;
              let fresh =
                Shared_tree.build topo ~root:group.Path_eval.root
                  ~members:(Array.to_list group.Path_eval.receivers @ everyone)
              in
              same_tree n tree fresh)
        (List.init (1 + Rng.int rng 6) Fun.id))

(* A chain of k groups along a trail of k + 1 distinct nodes: group i
   joins nodes i and i + 1, rooted at i + 1 when [i mod 4 < 2] and at i
   otherwise, so the shared node passes from root to source, root to
   root, source to root and source to source in turn.  After [forget]
   the chain costs exactly k + 1 BFS. *)
let test_workspace_chain_bfs_count () =
  let topo = Gen.power_law ~rng:(Rng.create 11) ~n:200 ~m:2 in
  let ws = Path_eval.make_workspace topo in
  let rng = Rng.create 12 in
  let k = 12 in
  let trail = Rng.sample_without_replacement rng (k + 1) 200 in
  with_bfs_counter @@ fun bfs_runs ->
  (* Leave the slots holding other nodes first, so [forget] matters. *)
  ignore
    (Path_eval.evaluate_with ws topo
       { Path_eval.source = trail.(0); root = trail.(1); receivers = [| 5 |] });
  Path_eval.forget ws;
  let ran = ref 0 in
  for i = 0 to k - 1 do
    let a = trail.(i) and b = trail.(i + 1) in
    let source, root = if i mod 4 < 2 then (a, b) else (b, a) in
    let receivers = Path_eval.draw_receivers rng ~n:200 ~source 8 in
    let group = { Path_eval.source; root; receivers } in
    let before = bfs_runs () in
    let reused = prefix 8 (Path_eval.evaluate_with ws topo group) in
    ran := !ran + (bfs_runs () - before);
    check Alcotest.bool (Printf.sprintf "group %d matches evaluate" i) true
      (reused = Path_eval.evaluate topo group)
  done;
  check Alcotest.int "k groups along a trail cost k + 1 BFS" (k + 1) !ran

(* A seeded run of groups whose sizes grow and shrink through one
   workspace: each drawn receiver set equals [draw_receivers] from the
   same generator state, and each result and its ratios equal those of
   [evaluate], so no tail of an earlier, larger group leaks into a
   later, smaller one. *)
let test_workspace_sizes_grow_and_shrink () =
  let topo = Gen.power_law ~rng:(Rng.create 21) ~n:300 ~m:2 in
  let n = Topo.domain_count topo in
  let ws = Path_eval.make_workspace topo in
  let rng = Rng.create 22 in
  let sizes = List.init 30 (fun _ -> 1 + Rng.int rng 250) in
  List.iteri
    (fun i size ->
      let label what = Printf.sprintf "group %d (size %d): %s" i size what in
      let source = Rng.int rng n in
      let snapshot = Rng.copy rng in
      let receivers = Path_eval.draw_receivers rng ~n ~source size in
      let root = if i mod 2 = 0 then receivers.(0) else Rng.int rng n in
      let drawn = Path_eval.draw_with ws snapshot ~source size in
      check (Alcotest.array Alcotest.int) (label "receivers") receivers (Array.sub drawn 0 size);
      let paths = Path_eval.evaluate_drawn ws topo ~source ~root in
      let fresh = Path_eval.evaluate topo { Path_eval.source; root; receivers } in
      check Alcotest.bool (label "paths match evaluate") true (prefix size paths = fresh);
      List.iter
        (fun (tree, of_paths) ->
          check Alcotest.bool (label (tree ^ " ratios match")) true
            (Path_eval.ratios ~baseline:paths.Path_eval.spt ~receivers:size (of_paths paths)
            = Path_eval.ratios ~baseline:fresh.Path_eval.spt ~receivers:size (of_paths fresh)))
        [
          ("unidirectional", fun p -> p.Path_eval.unidirectional);
          ("bidirectional", fun p -> p.Path_eval.bidirectional);
          ("hybrid", fun p -> p.Path_eval.hybrid);
        ])
    sizes

(* --- Allocation of a Figure 4 trial -------------------------------------- *)

(* A steady-state size-100 trial in a warmed workspace on the Figure 4
   graph, as [Tree_experiment.run] evaluates one: the receivers re-drawn
   from a generator snapshot into the workspace, the four path models
   into its result buffers, three ratio summaries.  Nothing is sized by
   the graph or the group, so nothing goes straight to the major heap
   ([major_words - promoted_words] counts only direct major allocation).
   The minor bytes are the snapshot copy, the entry-point option, the
   two [paths] views the two new searches return, and the three
   summaries with their boxed floats: 296 B on 64-bit, in release and
   in a dev build alike; the bound is 1.1x that. *)
let test_trial_allocation () =
  let topo = Gen.power_law ~rng:(Rng.create 1998) ~n:3326 ~m:2 in
  let n = Topo.domain_count topo in
  let rng = Rng.create 4 in
  let source = Rng.int rng n in
  let snapshot = Rng.copy rng in
  let root = (Path_eval.draw_receivers rng ~n ~source 100).(0) in
  let ws = Path_eval.make_workspace topo in
  (* Emptying the BFS slots makes each measured trial run both BFS, as
     the first trial of a schedule chunk does. *)
  let trial () =
    Path_eval.forget ws;
    ignore (Path_eval.draw_with ws (Rng.copy snapshot) ~source 100 : Domain.id array);
    let paths = Path_eval.evaluate_drawn ws topo ~source ~root in
    let baseline = paths.Path_eval.spt in
    ignore (Path_eval.ratios ~baseline ~receivers:100 paths.Path_eval.unidirectional);
    ignore (Path_eval.ratios ~baseline ~receivers:100 paths.Path_eval.bidirectional);
    ignore (Path_eval.ratios ~baseline ~receivers:100 paths.Path_eval.hybrid)
  in
  trial ();
  let _, promoted0, major0 = Gc.counters () in
  let bytes =
    Test_sim.minor_bytes_per ~n:20 (fun n ->
        for _ = 1 to n do
          trial ()
        done)
  in
  let _, promoted1, major1 = Gc.counters () in
  Printf.printf "fig4 size-100 trial: %.1f B\n" bytes;
  check (Alcotest.float 0.0) "direct major-heap words" 0.0
    (major1 -. major0 -. (promoted1 -. promoted0));
  let budget = 330.0 in
  check Alcotest.bool
    (Printf.sprintf "a size-100 trial allocates %.1f B <= %.0f B" bytes budget)
    true (bytes <= budget)

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

(* --- Trail schedule -------------------------------------------------- *)

let shares_endpoint (a, b) (c, d) = a = c || a = d || b = c || b = d

(* Random trial multigraphs: few or many nodes (some with no trials),
   repeated pairs and self-loops, up to several hundred trials so long
   trails are cut into chunks. *)
let prop_schedule_covers_trials =
  QCheck.Test.make ~name:"schedule lists every trial once, in short trails" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nodes = 1 + Rng.int rng 40 in
      let m = Rng.int rng 400 in
      let ends = Array.make m (0, 0) in
      for i = 0 to m - 1 do
        let s = Rng.int rng nodes in
        ends.(i) <-
          (match Rng.int rng 4 with
          | 0 -> (s, s)
          | 1 when i > 0 -> ends.(Rng.int rng i)
          | _ -> (s, Rng.int rng nodes))
      done;
      let chunks = Tree_experiment.schedule ~nodes ends in
      let seen = Array.make m 0 in
      List.iter (Array.iter (fun i -> seen.(i) <- seen.(i) + 1)) chunks;
      Array.for_all (( = ) 1) seen
      && List.for_all
           (fun chunk ->
             let len = Array.length chunk in
             len >= 1 && len <= 64
             && List.for_all
                  (fun j -> shares_endpoint ends.(chunk.(j)) ends.(chunk.(j + 1)))
                  (List.init (len - 1) Fun.id))
           chunks)

(* A simple path through 40 nodes in random id order, its trials in
   random order and orientation: starting at an odd (end) node, the
   greedy walks it as one trail, so one chunk.  A walk started at an
   inner node would stop at one end and leave the other side over. *)
let test_schedule_walks_a_path_whole () =
  let rng = Rng.create 5 in
  let nodes = 40 in
  let route = Rng.sample_without_replacement rng nodes nodes in
  let ends =
    Array.map
      (fun i ->
        let a = route.(i) and b = route.(i + 1) in
        if Test_util.coin rng then (a, b) else (b, a))
      (Rng.sample_without_replacement rng (nodes - 1) (nodes - 1))
  in
  check Alcotest.int "one chunk" 1 (List.length (Tree_experiment.schedule ~nodes ends))

(* A Figure 4 run's BFS runs and trials at the given job count, counted
   in a capture that is then merged, so the run's records reach this
   domain's recorder. *)
let bfs_and_trials params ~jobs =
  let counts, shard =
    Obs.capture (fun () ->
        ignore (Tree_experiment.run { params with Tree_experiment.jobs });
        let count name = Metrics.count (Metrics.counter name) in
        (count "spf.bfs_runs", count "trees.trials_run"))
  in
  Obs.merge shard;
  counts

(* 1,800 trials (sizes 1..500) on 1,000 nodes cut into 266 chunks: 2,065
   BFS runs, 1.15 per trial, against 2 per trial without the schedule.
   The greedy is within one trail of the minimum here (one per pair of
   odd-degree nodes in each component); at 100 trials per size that
   minimum alone is 1.27 runs per trial, so the bound needs 200. *)
let test_experiment_bfs_count () =
  let params =
    { Tree_experiment.default_params with Tree_experiment.nodes = 1000; trials = 200 }
  in
  let bfs, trials = bfs_and_trials params ~jobs:1 in
  check Alcotest.bool
    (Printf.sprintf "%d BFS runs within 1.25 x %d trials" bfs trials)
    true
    (float_of_int bfs <= 1.25 *. float_of_int trials);
  check (Alcotest.pair Alcotest.int Alcotest.int) "same counts at 4 jobs" (bfs, trials)
    (bfs_and_trials params ~jobs:4)

(* Root at the source: every trial is a self-loop, so a chunk runs one
   BFS per distinct source in it.  The trials' (source, root) pairs are
   read back from their flight-recorder records. *)
let test_experiment_bfs_count_root_at_source () =
  let params =
    {
      tiny_params with
      Tree_experiment.nodes = 300;
      group_sizes = [ 1; 5; 20; 50 ];
      trials = 60;
      root_placement = Tree_experiment.Root_at_source;
    }
  in
  Recorder.enable ~retain:Recorder.Keep_all ();
  let bfs, trials =
    Fun.protect ~finally:Recorder.disable (fun () -> bfs_and_trials params ~jobs:1)
  in
  let ends =
    Recorder.recent ()
    |> List.filter (fun r -> r.Recorder.r_label = "fig4.trial")
    |> List.map (fun r ->
           Scanf.sscanf r.Recorder.r_subject "src=%d root=%d size=%d" (fun s r _ -> (s, r)))
    |> Array.of_list
  in
  check Alcotest.int "one record per trial" trials (Array.length ends);
  Array.iter (fun (s, r) -> check Alcotest.int "root is the source" s r) ends;
  let distinct_sources chunk =
    List.length (List.sort_uniq compare (List.map (fun i -> fst ends.(i)) (Array.to_list chunk)))
  in
  let expected =
    List.fold_left
      (fun acc chunk -> acc + distinct_sources chunk)
      0
      (Tree_experiment.schedule ~nodes:params.Tree_experiment.nodes ends)
  in
  check Alcotest.int "one BFS per distinct source per chunk" expected bfs;
  check Alcotest.int "same BFS count at 4 jobs" bfs (fst (bfs_and_trials params ~jobs:4))

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
    ( "path eval workspace rejects unknown endpoints",
      `Quick,
      test_path_eval_workspace_rejects_unknown_endpoints );
    QCheck_alcotest.to_alcotest prop_workspace_matches_fresh;
    QCheck_alcotest.to_alcotest prop_search_matches_bfs;
    QCheck_alcotest.to_alcotest prop_workspace_tree_complete;
    ("path eval workspace chain BFS count", `Quick, test_workspace_chain_bfs_count);
    ( "path eval workspace sizes grow and shrink",
      `Quick,
      test_workspace_sizes_grow_and_shrink );
    ("trial allocation", `Quick, test_trial_allocation);
    ("experiment shape", `Quick, test_experiment_shape);
    ("experiment deterministic", `Quick, test_experiment_deterministic);
    ("experiment paper shape (medium)", `Slow, test_experiment_paper_shape_medium);
    ("experiment root placement ablation", `Slow, test_experiment_root_placement_ablation);
    ("series output", `Quick, test_series_output);
    QCheck_alcotest.to_alcotest prop_schedule_covers_trials;
    ("schedule walks a path whole", `Quick, test_schedule_walks_a_path_whole);
    ("experiment BFS count", `Quick, test_experiment_bfs_count);
    ("experiment BFS count, root at source", `Quick, test_experiment_bfs_count_root_at_source);
  ]
