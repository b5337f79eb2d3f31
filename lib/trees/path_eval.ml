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

(* The two searches are a two-slot BFS cache keyed by source node:
   [key_a] names the node [slot_a] searches from, [-1] when the slot is
   empty (likewise [b]).  A slot's search runs only as far as the
   evaluations so far have needed and resumes when the next one needs
   more.  [rooted] is the search behind [tree]'s root paths.  [out] and
   [receivers] grow to the largest group seen; [drawn] counts the
   receivers in [receivers]. *)
type workspace = {
  csr : Topo.csr;
  slot_a : Spf.search;
  slot_b : Spf.search;
  mutable key_a : Domain.id;
  mutable key_b : Domain.id;
  mutable rooted : Spf.search;
  tree : Shared_tree.t;
  mutable out : paths;
  mutable receivers : Domain.id array;
  mutable drawn : int;
}

let make_workspace topo =
  let csr = Topo.freeze topo in
  let slot_a = Spf.make_search csr in
  {
    csr;
    slot_a;
    slot_b = Spf.make_search csr;
    key_a = -1;
    key_b = -1;
    rooted = slot_a;
    tree = Shared_tree.create topo;
    out = make_paths 0;
    receivers = [||];
    drawn = 0;
  }

let forget ws =
  ws.key_a <- -1;
  ws.key_b <- -1

(* [v]'s search: a slot that holds it, else a new search in the slot
   that does not hold [keep], the group's other endpoint.  A negative
   [v] never hits an empty slot: it reaches [Spf.start], which rejects
   it. *)
let slot_for ws v ~keep =
  if v >= 0 && ws.key_a = v then ws.slot_a
  else if v >= 0 && ws.key_b = v then ws.slot_b
  else if ws.key_a = keep then begin
    Spf.start ws.slot_b v;
    ws.key_b <- v;
    ws.slot_b
  end
  else begin
    Spf.start ws.slot_a v;
    ws.key_a <- v;
    ws.slot_a
  end

(* [evaluate_over] reads, in each endpoint's tree, the group's other
   endpoint, the receivers and the via chains behind them; a chain is
   discovered before its end, so reaching the ends is enough. *)
let reach_group s ~other receivers k =
  Spf.reach s other;
  for i = 0 to k - 1 do
    Spf.reach s receivers.(i)
  done

(* Both endpoints' searches, started where needed (source first, as the
   BFS-count contract orders them) and advanced until the group's nodes
   are discovered. *)
let ready ws ~source ~root =
  let from_source = slot_for ws source ~keep:root in
  let from_root = slot_for ws root ~keep:source in
  reach_group from_source ~other:root ws.receivers ws.drawn;
  if from_root != from_source then reach_group from_root ~other:source ws.receivers ws.drawn

let holding ws v = if ws.key_a = v then ws.slot_a else ws.slot_b

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
  if Prof.is_enabled () then Prof.span "spf.bfs" (fun () -> ready ws ~source ~root)
  else ready ws ~source ~root;
  ws.rooted <- holding ws root;
  let from_source = Spf.search_paths (holding ws source) in
  let from_root = Spf.search_paths ws.rooted in
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

(* The tree reads its root's paths on later joins, so the root search
   runs to exhaustion before the tree leaves the workspace.  (After an
   evaluation that raised, [rooted] may have restarted elsewhere.) *)
let workspace_tree ws =
  let root = Shared_tree.root ws.tree in
  if root >= 0 && Spf.search_source ws.rooted = root then Spf.complete ws.rooted;
  ws.tree

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
