type group = { source : Domain.id; root : Domain.id; receivers : Domain.id array }

type paths = {
  spt : int array;
  unidirectional : int array;
  bidirectional : int array;
  hybrid : int array;
}

let draw_receivers rng ~n ~source size =
  let draws = Rng.sample_without_replacement rng (size + 1) n in
  (* Drop the source (drawn at most once) by shifting the later draws
     down over it; the first [size] survivors are the receivers. *)
  let kept = ref 0 in
  for i = 0 to size do
    let d = draws.(i) in
    if d <> source then begin
      if !kept < size then draws.(!kept) <- d;
      incr kept
    end
  done;
  Array.sub draws 0 size

(* All four path models over one group, given BFS trees from the source
   and the root.  [tree] is reset and rebuilt here, and the walks are
   loops over the [via] arrays, so nothing sized by the graph is
   allocated. *)
let evaluate_over tree ~(from_source : Spf.paths) ~(from_root : Spf.paths) group =
  let { source; root; receivers } = group in
  Shared_tree.reset tree ~to_root:from_root ~root;
  for i = 0 to Array.length receivers - 1 do
    Shared_tree.join tree receivers.(i)
  done;
  let dist_s = from_source.Spf.dist and via_s = from_source.Spf.via in
  (* Where the sender's data meets the tree (§5.2); the walk leads to
     the root, which is on the tree, so only an unreachable source
     misses it, and then the root stands in. *)
  let entry = match Shared_tree.entry_point tree source with Some e -> e | None -> root in
  (* Sender hops to the entry point: along its shortest path to the root. *)
  let source_to_entry = Spf.dist from_root source - Spf.dist from_root entry in
  let k = Array.length receivers in
  let spt = Array.make k 0 and unidirectional = Array.make k 0 in
  let bidirectional = Array.make k 0 and hybrid = Array.make k 0 in
  for i = 0 to k - 1 do
    let r = receivers.(i) in
    spt.(i) <- dist_s.(r);
    (* Register/encapsulate to the RP, then down the shared tree. *)
    unidirectional.(i) <- dist_s.(root) + Shared_tree.depth tree r;
    let bidir = source_to_entry + Shared_tree.tree_distance tree entry r in
    bidirectional.(i) <- bidir;
    (* The receiver grafts a source-specific branch along its shortest
       path toward the source; the branch stops at the first on-tree
       node, or reaches the source domain itself. *)
    let node = ref r and hops = ref 0 in
    while
      !node <> source
      && (not (Shared_tree.on_tree tree !node && !hops > 0))
      && dist_s.(!node) <> max_int
    do
      node := via_s.(!node);
      incr hops
    done;
    let branch =
      if !node = source then dist_s.(r)
      else source_to_entry + Shared_tree.tree_distance tree entry !node + !hops
    in
    hybrid.(i) <- min bidir branch
  done;
  { spt; unidirectional; bidirectional; hybrid }

let checked_paths what topo ~src = function
  | Some (p : Spf.paths) ->
      if Array.length p.Spf.dist <> Topo.domain_count topo then
        invalid_arg
          (Printf.sprintf "Path_eval.evaluate: %s paths sized for another topology" what);
      if p.Spf.src <> src then
        invalid_arg (Printf.sprintf "Path_eval.evaluate: %s paths have the wrong source" what);
      Some p
  | None -> None

let evaluate ?from_source ?from_root topo group =
  let { source; root; _ } = group in
  let from_source =
    match checked_paths "from_source" topo ~src:source from_source with
    | Some p -> p
    | None -> Spf.bfs topo source
  in
  let from_root =
    match checked_paths "from_root" topo ~src:root from_root with
    | Some p -> p
    | None -> if root = source then from_source else Spf.bfs topo root
  in
  evaluate_over (Shared_tree.create topo) ~from_source ~from_root group

type workspace = {
  csr : Topo.csr;
  bfs : Spf.workspace;
  source_dist : int array;
  source_via : int array;
  root_dist : int array;
  root_via : int array;
  tree : Shared_tree.t;
}

let make_workspace topo =
  let csr = Topo.freeze topo in
  let n = csr.Topo.csr_nodes in
  {
    csr;
    bfs = Spf.make_workspace csr;
    source_dist = Array.make n max_int;
    source_via = Array.make n (-1);
    root_dist = Array.make n max_int;
    root_via = Array.make n (-1);
    tree = Shared_tree.create topo;
  }

let evaluate_with ws topo group =
  if Topo.freeze topo != ws.csr then
    invalid_arg "Path_eval.evaluate_with: workspace built for another topology";
  let { source; root; _ } = group in
  let from_source =
    Spf.bfs_into ~ws:ws.bfs ws.csr ~dist:ws.source_dist ~via:ws.source_via source
  in
  let from_root =
    if root = source then from_source
    else Spf.bfs_into ~ws:ws.bfs ws.csr ~dist:ws.root_dist ~via:ws.root_via root
  in
  evaluate_over ws.tree ~from_source ~from_root group

let workspace_tree ws = ws.tree

type ratio_summary = { avg_ratio : float; max_ratio : float; receivers_counted : int }

let ratios ~baseline tree_paths =
  if Array.length baseline <> Array.length tree_paths then
    invalid_arg "Path_eval.ratios: length mismatch";
  let sum = ref 0.0 and maxr = ref 0.0 and counted = ref 0 in
  for i = 0 to Array.length baseline - 1 do
    let base = baseline.(i) in
    if base > 0 then begin
      let r = float_of_int tree_paths.(i) /. float_of_int base in
      sum := !sum +. r;
      if r > !maxr then maxr := r;
      incr counted
    end
  done;
  {
    avg_ratio = (if !counted = 0 then 0.0 else !sum /. float_of_int !counted);
    max_ratio = !maxr;
    receivers_counted = !counted;
  }
