type group = { source : Domain.id; root : Domain.id; receivers : Domain.id array }

type paths = {
  spt : int array;
  unidirectional : int array;
  bidirectional : int array;
  hybrid : int array;
}

(* [size + 1] draws into [dst], then the source (drawn at most once) is
   dropped by shifting the later draws down over it; the first [size]
   survivors are the receivers. *)
let draw_receivers_into rng ~n ~source size dst =
  Rng.sample_into rng (size + 1) n dst;
  let kept = ref 0 in
  for i = 0 to size do
    let d = dst.(i) in
    if d <> source then begin
      if !kept < size then dst.(!kept) <- d;
      incr kept
    end
  done

let draw_receivers rng ~n ~source size =
  let draws = Array.make (size + 1) 0 in
  draw_receivers_into rng ~n ~source size draws;
  Array.sub draws 0 size

(* All four path models over the first [k] receivers, given BFS trees
   from the source and the root, written into [out.(0 .. k - 1)].
   [tree] is reset and rebuilt here, and the walks are loops over the
   [via] arrays, so nothing is allocated. *)
let evaluate_over tree out ~(from_source : Spf.paths) ~(from_root : Spf.paths) ~source ~root
    receivers k =
  Shared_tree.reset tree ~to_root:from_root ~root;
  for i = 0 to k - 1 do
    Shared_tree.join tree receivers.(i)
  done;
  let dist_s = from_source.Spf.dist and via_s = from_source.Spf.via in
  (* Where the sender's data meets the tree (§5.2); the walk leads to
     the root, which is on the tree, so only an unreachable source
     misses it, and then the root stands in. *)
  let entry = match Shared_tree.entry_point tree source with Some e -> e | None -> root in
  (* Sender hops to the entry point: along its shortest path to the root. *)
  let source_to_entry = Spf.dist from_root source - Spf.dist from_root entry in
  let { spt; unidirectional; bidirectional; hybrid } = out in
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
  done

let make_paths k =
  {
    spt = Array.make k 0;
    unidirectional = Array.make k 0;
    bidirectional = Array.make k 0;
    hybrid = Array.make k 0;
  }

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
  let k = Array.length group.receivers in
  let out = make_paths k in
  evaluate_over (Shared_tree.create topo) out ~from_source ~from_root ~source ~root
    group.receivers k;
  out

(* The two dist/via pairs are a two-slot BFS cache keyed by source
   node: a slot's [paths.src] names the node its arrays were computed
   from, [-1] when the slot is empty.  The arrays never move; a BFS
   overwrites them and the slot takes the fresh [paths] view.  [out]
   and [receivers] grow to the largest group seen; [drawn] counts the
   receivers in [receivers]. *)
type workspace = {
  csr : Topo.csr;
  bfs : Spf.workspace;
  mutable slot_a : Spf.paths;
  mutable slot_b : Spf.paths;
  tree : Shared_tree.t;
  mutable out : paths;
  mutable receivers : Domain.id array;
  mutable drawn : int;
}

let empty_slot n = { Spf.src = -1; dist = Array.make n max_int; via = Array.make n (-1) }

let make_workspace topo =
  let csr = Topo.freeze topo in
  let n = csr.Topo.csr_nodes in
  {
    csr;
    bfs = Spf.make_workspace csr;
    slot_a = empty_slot n;
    slot_b = empty_slot n;
    tree = Shared_tree.create topo;
    out = make_paths 0;
    receivers = [||];
    drawn = 0;
  }

let forget ws =
  ws.slot_a <- { ws.slot_a with Spf.src = -1 };
  ws.slot_b <- { ws.slot_b with Spf.src = -1 }

(* [v]'s BFS tree: a slot that holds it, else a fresh BFS into the slot
   that does not hold [keep], the group's other endpoint.  A negative
   [v] never hits an empty slot: it reaches the BFS, which rejects it. *)
let slot_for ws v ~keep =
  if v >= 0 && ws.slot_a.Spf.src = v then ws.slot_a
  else if v >= 0 && ws.slot_b.Spf.src = v then ws.slot_b
  else if ws.slot_a.Spf.src = keep then begin
    let { Spf.dist; via; _ } = ws.slot_b in
    ws.slot_b <- Spf.bfs_into ~ws:ws.bfs ws.csr ~dist ~via v;
    ws.slot_b
  end
  else begin
    let { Spf.dist; via; _ } = ws.slot_a in
    ws.slot_a <- Spf.bfs_into ~ws:ws.bfs ws.csr ~dist ~via v;
    ws.slot_a
  end

(* The receiver buffer, with room for [len] ids. *)
let receiver_room ws len =
  if Array.length ws.receivers < len then ws.receivers <- Array.make len 0;
  ws.receivers

let draw_with ws rng ~source size =
  let dst = receiver_room ws (size + 1) in
  draw_receivers_into rng ~n:ws.csr.Topo.csr_nodes ~source size dst;
  ws.drawn <- size;
  dst

let check_topology fn ws topo =
  if Topo.freeze topo != ws.csr then invalid_arg (fn ^ ": workspace built for another topology")

(* The group of the first [ws.drawn] buffered receivers, into [ws.out]. *)
let evaluate_buffered ws ~source ~root =
  let k = ws.drawn in
  if Array.length ws.out.spt < k then ws.out <- make_paths k;
  let from_source = slot_for ws source ~keep:root in
  let from_root = slot_for ws root ~keep:source in
  evaluate_over ws.tree ws.out ~from_source ~from_root ~source ~root ws.receivers k;
  ws.out

let evaluate_drawn ws topo ~source ~root =
  check_topology "Path_eval.evaluate_drawn" ws topo;
  evaluate_buffered ws ~source ~root

let evaluate_with ws topo { source; root; receivers } =
  check_topology "Path_eval.evaluate_with" ws topo;
  let k = Array.length receivers in
  Array.blit receivers 0 (receiver_room ws k) 0 k;
  ws.drawn <- k;
  evaluate_buffered ws ~source ~root

let workspace_tree ws = ws.tree

type ratio_summary = { avg_ratio : float; max_ratio : float; receivers_counted : int }

let ratios ~baseline ~receivers tree_paths =
  if receivers < 0 || Array.length baseline < receivers || Array.length tree_paths < receivers
  then invalid_arg "Path_eval.ratios: length mismatch";
  let sum = ref 0.0 and maxr = ref 0.0 and counted = ref 0 in
  for i = 0 to receivers - 1 do
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
