type t = {
  mutable tree_root : Domain.id;
  mutable to_root : Spf.paths;  (** shortest paths toward the root, for join walks *)
  tree_parent : int array;  (** next hop toward root on the tree; -1 = none *)
  marked : bool array;
  tree_depth : int array;
  on_tree_ids : int array;  (** the [count] marked nodes, so [reset] is O(tree) *)
  mutable count : int;
  mutable members_buf : Domain.id array;  (** join order; grown on demand *)
  mutable member_count : int;
}

let unrooted = { Spf.src = -1; dist = [||]; via = [||] }

let create topo =
  let n = Topo.domain_count topo in
  {
    tree_root = -1;
    to_root = unrooted;
    tree_parent = Array.make n (-1);
    marked = Array.make n false;
    tree_depth = Array.make n 0;
    on_tree_ids = Array.make n 0;
    count = 0;
    members_buf = [||];
    member_count = 0;
  }

let mark t node ~parent ~depth =
  t.marked.(node) <- true;
  t.tree_parent.(node) <- parent;
  t.tree_depth.(node) <- depth;
  t.on_tree_ids.(t.count) <- node;
  t.count <- t.count + 1

let check_to_root fn t (p : Spf.paths) ~root =
  if Array.length p.Spf.dist <> Array.length t.marked then
    invalid_arg (fn ^ ": to_root paths sized for another topology");
  if p.Spf.src <> root then invalid_arg (fn ^ ": to_root paths not rooted at root")

let reset_unchecked t ~to_root ~root =
  for i = 0 to t.count - 1 do
    let node = t.on_tree_ids.(i) in
    t.marked.(node) <- false;
    t.tree_parent.(node) <- -1;
    t.tree_depth.(node) <- 0
  done;
  t.count <- 0;
  t.member_count <- 0;
  t.tree_root <- root;
  t.to_root <- to_root;
  (* The root domain is on the tree by definition (§5.2). *)
  mark t root ~parent:(-1) ~depth:0

let reset t ~to_root ~root =
  check_to_root "Shared_tree.reset" t to_root ~root;
  reset_unchecked t ~to_root ~root

let add_member t member =
  if t.member_count = Array.length t.members_buf then begin
    let grown = Array.make (max 16 (2 * t.member_count)) 0 in
    Array.blit t.members_buf 0 grown 0 t.member_count;
    t.members_buf <- grown
  end;
  t.members_buf.(t.member_count) <- member;
  t.member_count <- t.member_count + 1

(* The first on-tree node on the shortest path from [node] toward the
   root, or where that path dead-ends: at [node] itself when it cannot
   reach the root. *)
let walk_to_tree t node =
  let dist = t.to_root.Spf.dist and via = t.to_root.Spf.via in
  let node = ref node in
  while (not t.marked.(!node)) && dist.(!node) <> max_int do
    node := via.(!node)
  done;
  !node

let join t member =
  if t.tree_root < 0 then invalid_arg "Shared_tree.join: tree has no root yet (call reset)";
  if not t.marked.(member) then begin
    let attach = walk_to_tree t member in
    (* An unreachable member stands alone at depth 0. *)
    if not t.marked.(attach) then mark t attach ~parent:(-1) ~depth:0;
    (* Graft the walked nodes, member first: each shortest-path hop
       lowers the distance to the root by one, so the member sits
       [hops] below [attach]. *)
    let via = t.to_root.Spf.via and dist = t.to_root.Spf.dist in
    let node = ref member and depth = ref (t.tree_depth.(attach) + dist.(member) - dist.(attach)) in
    while !node <> attach do
      let next = via.(!node) in
      mark t !node ~parent:next ~depth:!depth;
      node := next;
      decr depth
    done
  end;
  add_member t member

let build ?to_root topo ~root ~members =
  let t = create topo in
  let to_root =
    match to_root with
    | Some p ->
        check_to_root "Shared_tree.build" t p ~root;
        p
    | None -> Spf.bfs topo root
  in
  reset_unchecked t ~to_root ~root;
  List.iter (join t) members;
  t

let root t = t.tree_root

let on_tree t id = t.marked.(id)

let parent t id =
  if t.marked.(id) && t.tree_parent.(id) >= 0 then Some t.tree_parent.(id) else None

let depth t id =
  if not t.marked.(id) then invalid_arg "Shared_tree.depth: node off tree";
  t.tree_depth.(id)

let tree_distance t a b =
  if not (t.marked.(a) && t.marked.(b)) then
    invalid_arg "Shared_tree.tree_distance: endpoint off tree";
  (* Walk the deeper endpoint up until the two meet (LCA).  Climbing past
     a depth-0 node means the endpoints hang off different tree roots
     (an unreachable member stands alone). *)
  let x = ref a and y = ref b and steps = ref 0 in
  while !x <> !y do
    if !x < 0 || !y < 0 then invalid_arg "Shared_tree.tree_distance: endpoints not connected";
    if t.tree_depth.(!x) >= t.tree_depth.(!y) then x := t.tree_parent.(!x)
    else y := t.tree_parent.(!y);
    incr steps
  done;
  !steps

let entry_point t sender =
  let entry = walk_to_tree t sender in
  if t.marked.(entry) then Some entry else None

let members t = List.init t.member_count (fun i -> t.members_buf.(i))
