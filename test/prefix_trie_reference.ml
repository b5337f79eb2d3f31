(* [Prefix_trie] in its boxed form, kept as the differential oracle for
   the flat one: every node is a record with an optional value and two
   optional children, [reset] drops the whole tree, and a remove prunes
   each node left with neither value nor children.  Same queries, same
   visiting orders, so every answer must agree exactly. *)

type 'a node = {
  mutable value : 'a option;
  mutable zero : 'a node option;
  mutable one : 'a node option;
}

type 'a t = { root : 'a node; mutable count : int }

let fresh_node () = { value = None; zero = None; one = None }

let reset t =
  t.root.value <- None;
  t.root.zero <- None;
  t.root.one <- None;
  t.count <- 0

let create () =
  let t = { root = fresh_node (); count = 0 } in
  reset t;
  t

let cardinal t = t.count

(* Bit [d] of the address, counting from the most significant (bit 0 is
   the 2^31 position): the branch taken at depth [d]. *)
let bit_at addr d = (addr lsr (31 - d)) land 1

let add t prefix v =
  let rec descend node d =
    if d = Prefix.len prefix then begin
      if node.value = None then t.count <- t.count + 1;
      node.value <- Some v
    end
    else begin
      let b = bit_at (Prefix.base prefix) d in
      let child =
        match if b = 0 then node.zero else node.one with
        | Some c -> c
        | None ->
            let c = fresh_node () in
            if b = 0 then node.zero <- Some c else node.one <- Some c;
            c
      in
      descend child (d + 1)
    end
  in
  descend t.root 0

let remove t prefix =
  (* Returns true when the subtree below became empty and the child link
     can be pruned. *)
  let rec descend node d =
    if d = Prefix.len prefix then begin
      if node.value <> None then begin
        node.value <- None;
        t.count <- t.count - 1
      end;
      node.value = None && node.zero = None && node.one = None
    end
    else begin
      let b = bit_at (Prefix.base prefix) d in
      match if b = 0 then node.zero else node.one with
      | None -> false
      | Some child ->
          let prune = descend child (d + 1) in
          if prune then if b = 0 then node.zero <- None else node.one <- None;
          node.value = None && node.zero = None && node.one = None
    end
  in
  ignore (descend t.root 0)

let find_exact t prefix =
  let rec descend node d =
    if d = Prefix.len prefix then node.value
    else
      let b = bit_at (Prefix.base prefix) d in
      match if b = 0 then node.zero else node.one with
      | None -> None
      | Some child -> descend child (d + 1)
  in
  descend t.root 0

(* Depth of the deepest bound prefix on [addr]'s path, or [best] when
   there is none below [node].  Top-level so a lookup builds no
   closure. *)
let rec deepest_depth node addr d best =
  let best = match node.value with Some _ -> d | None -> best in
  if d = 32 then best
  else
    match if bit_at addr d = 0 then node.zero else node.one with
    | None -> best
    | Some child -> deepest_depth child addr (d + 1) best

(* The deepest stored value on [addr]'s path: the node's own [value]
   field is returned, so nothing is allocated. *)
let rec deepest_value node addr d best =
  let best = match node.value with Some _ -> node.value | None -> best in
  if d = 32 then best
  else
    match if bit_at addr d = 0 then node.zero else node.one with
    | None -> best
    | Some child -> deepest_value child addr (d + 1) best

let find_longest t addr = deepest_value t.root addr 0 None

let longest_match t addr =
  let d = deepest_depth t.root addr 0 (-1) in
  if d < 0 then None
  else
    let p = Prefix.make addr d in
    Option.map (fun v -> (p, v)) (find_exact t p)

(* In-order walk (zero before one) of the subtree at [node], which sits
   at ([base], [d]): increasing prefix order, shorter prefixes before
   their sub-prefixes. *)
let rec fold_below node base d acc ~f =
  let acc =
    match node.value with
    | Some v -> f (Prefix.make base d) v acc
    | None -> acc
  in
  let acc =
    match node.zero with
    | Some child -> fold_below child base (d + 1) acc ~f
    | None -> acc
  in
  match node.one with
  | Some child -> fold_below child (base lor (1 lsl (31 - d))) (d + 1) acc ~f
  | None -> acc

let fold t ~init ~f = fold_below t.root 0 0 init ~f

let rec iter_values_below node f =
  (match node.value with Some v -> f v | None -> ());
  (match node.zero with Some child -> iter_values_below child f | None -> ());
  match node.one with Some child -> iter_values_below child f | None -> ()

let iter_values t f = iter_values_below t.root f

let to_list t = List.rev (fold t ~init:[] ~f:(fun p v acc -> (p, v) :: acc))

(* The bindings overlapping a prefix are the ones on the path down to
   its node (shorter prefixes covering it) followed by that node's
   subtree (the prefix itself and its sub-prefixes): in in-order
   position every ancestor precedes its subtree, so visiting the path
   top-down and then the subtree keeps increasing prefix order.  Only
   that path and subtree are visited. *)
let rec fold_overlapping_from node prefix d acc ~path ~f =
  if d = Prefix.len prefix then fold_below node (Prefix.base prefix) d acc ~f
  else
    let acc =
      match node.value with
      | Some v when path -> f (Prefix.make (Prefix.base prefix) d) v acc
      | Some _ | None -> acc
    in
    match if bit_at (Prefix.base prefix) d = 0 then node.zero else node.one with
    | None -> acc
    | Some child -> fold_overlapping_from child prefix (d + 1) acc ~path ~f

let overlapping t prefix =
  List.rev (fold_overlapping_from t.root prefix 0 [] ~path:true ~f:(fun p v acc -> (p, v) :: acc))

let fold_covered_by t prefix ~init ~f = fold_overlapping_from t.root prefix 0 init ~path:false ~f

let rec exists_below node f arg =
  (match node.value with Some v -> f v arg | None -> false)
  || (match node.zero with Some child -> exists_below child f arg | None -> false)
  || match node.one with Some child -> exists_below child f arg | None -> false

let rec exists_overlapping_from node prefix d f arg =
  if d = Prefix.len prefix then exists_below node f arg
  else
    (match node.value with Some v -> f v arg | None -> false)
    ||
    match if bit_at (Prefix.base prefix) d = 0 then node.zero else node.one with
    | None -> false
    | Some child -> exists_overlapping_from child prefix (d + 1) f arg

let exists_overlapping t prefix f arg = exists_overlapping_from t.root prefix 0 f arg

(* The free space below an unbound node at ([base], [d]) whose subtree
   holds a binding: each half is either absent (a whole free block), or
   bound (taken), or split again.  A node with no children only occurs
   as the root of an empty trie, where the whole block is free.  Halves
   are visited zero first, so blocks come in increasing order. *)
let rec fold_free_below node base d acc ~f =
  match (node.zero, node.one) with
  | None, None -> f base d acc
  | zero, one ->
      let hi = base lor (1 lsl (31 - d)) in
      let acc = fold_free_half zero base (d + 1) acc ~f in
      fold_free_half one hi (d + 1) acc ~f

and fold_free_half child base d acc ~f =
  match child with
  | None -> f base d acc
  | Some { value = Some _; _ } -> acc
  | Some node -> fold_free_below node base d acc ~f

(* Down the path to the cover at ([base], [len]): a binding on it covers
   the whole cover, a missing child leaves all of it free. *)
let rec fold_free_from node base len d acc ~f =
  match node.value with
  | Some _ -> acc
  | None -> (
      if d = len then fold_free_below node base d acc ~f
      else
        match if bit_at base d = 0 then node.zero else node.one with
        | None -> f base len acc
        | Some child -> fold_free_from child base len (d + 1) acc ~f)

let fold_free t cover ~init ~f =
  fold_free_from t.root (Prefix.base cover) (Prefix.len cover) 0 init ~f
