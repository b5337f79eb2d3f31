(* A path-explicit binary trie: each node sits at a (base, depth) position;
   children split on the next address bit.  Nodes carry an optional value;
   internal nodes without values are kept while they have descendants.

   Depth d corresponds to prefix length d, so lookups walk at most 32
   levels.  This is the textbook structure behind real routing tables
   (PATRICIA without path compression — fine at simulation scale and much
   simpler to verify).

   The nodes are flat: a node is an index, node 0 is the root.  Node
   [n]'s children sit side by side in one [int] array, the zero child
   at [child.(2n)] and the one child at [child.(2n+1)] (-1 for none),
   so a descent indexes with the address bit instead of branching on
   it; its binding is [value.(n)].  Slots below [used] have been
   handed out; slots from [used] on are blank (-1, -1, None).  A pruned
   node goes on a free list chained through its zero slot, so a
   remove/add cycle reuses it.  [reset] blanks only the slots below
   [used] and keeps the capacity, so a trie rewound and refilled with
   the same bindings allocates only their [Some] boxes.  The arrays
   start at one node and double when full. *)

type 'a t = {
  mutable child : int array;  (** [2 * capacity] entries *)
  mutable value : 'a option array;  (** [capacity] entries *)
  mutable used : int;
  mutable free : int;  (** head of the free list, -1 when empty *)
  mutable count : int;
}

let create () = { child = [| -1; -1 |]; value = [| None |]; used = 1; free = -1; count = 0 }

let reset t =
  Array.fill t.child 0 (2 * t.used) (-1);
  Array.fill t.value 0 t.used None;
  t.used <- 1;
  t.free <- -1;
  t.count <- 0

let cardinal t = t.count

let grow t =
  let n = Array.length t.value in
  let child = Array.make (4 * n) (-1) and value = Array.make (2 * n) None in
  Array.blit t.child 0 child 0 (2 * n);
  Array.blit t.value 0 value 0 n;
  t.child <- child;
  t.value <- value

(* A blank node: from the free list, else the next unused slot. *)
let alloc t =
  let n = t.free in
  if n >= 0 then begin
    t.free <- t.child.(2 * n);
    t.child.(2 * n) <- -1;
    n
  end
  else begin
    if t.used = Array.length t.value then grow t;
    let n = t.used in
    t.used <- n + 1;
    n
  end

(* [n] has neither value nor children. *)
let release t n =
  t.child.(2 * n) <- t.free;
  t.free <- n

let is_empty t n =
  t.child.(2 * n) < 0
  && t.child.((2 * n) + 1) < 0
  && match t.value.(n) with None -> true | Some _ -> false

(* Bit [d] of the address, counting from the most significant (bit 0 is
   the 2^31 position): the branch taken at depth [d]. *)
let bit_at addr d = (addr lsr (31 - d)) land 1

(* The slot of [n]'s child on [addr]'s branch at depth [d]. *)
let slot n addr d = (2 * n) + bit_at addr d

let child t n addr d = t.child.(slot n addr d)

let rec add_from t base len n d v =
  if d = len then begin
    (match t.value.(n) with None -> t.count <- t.count + 1 | Some _ -> ());
    t.value.(n) <- Some v
  end
  else begin
    let c = child t n base d in
    if c >= 0 then add_from t base len c (d + 1) v
    else begin
      let c = alloc t in
      t.child.(slot n base d) <- c;
      add_from t base len c (d + 1) v
    end
  end

let add t prefix v = add_from t (Prefix.base prefix) (Prefix.len prefix) 0 0 v

(* Returns true when [n] became empty and its parent link can be
   pruned. *)
let rec remove_from t base len n d =
  if d = len then begin
    (match t.value.(n) with
    | Some _ ->
        t.value.(n) <- None;
        t.count <- t.count - 1
    | None -> ());
    is_empty t n
  end
  else begin
    let c = child t n base d in
    if c < 0 then false
    else begin
      if remove_from t base len c (d + 1) then begin
        t.child.(slot n base d) <- -1;
        release t c
      end;
      is_empty t n
    end
  end

let remove t prefix = ignore (remove_from t (Prefix.base prefix) (Prefix.len prefix) 0 0)

let rec find_exact_from t base len n d =
  if d = len then t.value.(n)
  else
    let c = child t n base d in
    if c < 0 then None else find_exact_from t base len c (d + 1)

let find_exact t prefix = find_exact_from t (Prefix.base prefix) (Prefix.len prefix) 0 0

(* Depth of the deepest bound prefix on [addr]'s path, or [best] when
   there is none below [n]. *)
let rec deepest_depth t addr n d best =
  let best = match t.value.(n) with Some _ -> d | None -> best in
  if d = 32 then best
  else
    let c = child t n addr d in
    if c < 0 then best else deepest_depth t addr c (d + 1) best

(* The deepest stored value on [addr]'s path: the slot's own binding is
   returned, so nothing is allocated. *)
let rec deepest_value t addr n d best =
  let v = t.value.(n) in
  let best = match v with Some _ -> v | None -> best in
  if d = 32 then best
  else
    let c = child t n addr d in
    if c < 0 then best else deepest_value t addr c (d + 1) best

let find_longest t addr = deepest_value t addr 0 0 None

let longest_match t addr =
  let d = deepest_depth t addr 0 0 (-1) in
  if d < 0 then None
  else
    let p = Prefix.make addr d in
    Option.map (fun v -> (p, v)) (find_exact t p)

(* In-order walk (zero before one) of the subtree at [n], which sits at
   ([base], [d]): increasing prefix order, shorter prefixes before their
   sub-prefixes. *)
let rec fold_below t n base d acc ~f =
  let acc = match t.value.(n) with Some v -> f (Prefix.make base d) v acc | None -> acc in
  let z = t.child.(2 * n) in
  let acc = if z >= 0 then fold_below t z base (d + 1) acc ~f else acc in
  let o = t.child.((2 * n) + 1) in
  if o >= 0 then fold_below t o (base lor (1 lsl (31 - d))) (d + 1) acc ~f else acc

let fold t ~init ~f = fold_below t 0 0 0 init ~f

let rec iter_values_below t n f =
  (match t.value.(n) with Some v -> f v | None -> ());
  let z = t.child.(2 * n) in
  if z >= 0 then iter_values_below t z f;
  let o = t.child.((2 * n) + 1) in
  if o >= 0 then iter_values_below t o f

let iter_values t f = iter_values_below t 0 f

let to_list t = List.rev (fold t ~init:[] ~f:(fun p v acc -> (p, v) :: acc))

(* The bindings overlapping a prefix are the ones on the path down to
   its node (shorter prefixes covering it) followed by that node's
   subtree (the prefix itself and its sub-prefixes): in in-order
   position every ancestor precedes its subtree, so visiting the path
   top-down and then the subtree keeps increasing prefix order.  Only
   that path and subtree are visited. *)
let rec fold_overlapping_from t n prefix d acc ~path ~f =
  if d = Prefix.len prefix then fold_below t n (Prefix.base prefix) d acc ~f
  else
    let acc =
      match t.value.(n) with
      | Some v when path -> f (Prefix.make (Prefix.base prefix) d) v acc
      | Some _ | None -> acc
    in
    let c = child t n (Prefix.base prefix) d in
    if c < 0 then acc else fold_overlapping_from t c prefix (d + 1) acc ~path ~f

let overlapping t prefix =
  List.rev (fold_overlapping_from t 0 prefix 0 [] ~path:true ~f:(fun p v acc -> (p, v) :: acc))

let fold_covered_by t prefix ~init ~f = fold_overlapping_from t 0 prefix 0 init ~path:false ~f

let rec exists_below t n f arg =
  (match t.value.(n) with Some v -> f v arg | None -> false)
  || (let z = t.child.(2 * n) in
      z >= 0 && exists_below t z f arg)
  ||
  let o = t.child.((2 * n) + 1) in
  o >= 0 && exists_below t o f arg

let rec exists_overlapping_from t n prefix d f arg =
  if d = Prefix.len prefix then exists_below t n f arg
  else
    (match t.value.(n) with Some v -> f v arg | None -> false)
    ||
    let c = child t n (Prefix.base prefix) d in
    c >= 0 && exists_overlapping_from t c prefix (d + 1) f arg

let exists_overlapping t prefix f arg = exists_overlapping_from t 0 prefix 0 f arg

(* The free space below an unbound node at ([base], [d]) whose subtree
   holds a binding: each half is either absent (a whole free block), or
   bound (taken), or split again.  A node with no children only occurs
   as the root of an empty trie, where the whole block is free.  Halves
   are visited zero first, so blocks come in increasing order. *)
let rec fold_free_below t n base d acc ~f =
  let z = t.child.(2 * n) and o = t.child.((2 * n) + 1) in
  if z < 0 && o < 0 then f base d acc
  else
    let acc = fold_free_half t z base (d + 1) acc ~f in
    fold_free_half t o (base lor (1 lsl (31 - d))) (d + 1) acc ~f

and fold_free_half t c base d acc ~f =
  if c < 0 then f base d acc
  else match t.value.(c) with Some _ -> acc | None -> fold_free_below t c base d acc ~f

(* Down the path to the cover at ([base], [len]): a binding on it covers
   the whole cover, a missing child leaves all of it free. *)
let rec fold_free_from t n base len d acc ~f =
  match t.value.(n) with
  | Some _ -> acc
  | None ->
      if d = len then fold_free_below t n base d acc ~f
      else
        let c = child t n base d in
        if c < 0 then f base len acc else fold_free_from t c base len (d + 1) acc ~f

let fold_free t cover ~init ~f = fold_free_from t 0 (Prefix.base cover) (Prefix.len cover) 0 init ~f
