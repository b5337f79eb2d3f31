(* The free-space analysis of an address block over a plain claim list:
   the differential oracle for [Prefix_trie.fold_free], which the claim
   algorithm in [Address_space] uses instead.

   Recursive buddy decomposition: the free space of a block is either the
   whole block (no overlap), nothing (covered by a claim), or the union of
   the free spaces of its two halves.  Claims are pre-filtered at each
   level, so the cost is O(claims * depth) per path. *)

let halves p =
  let l = Prefix.len p + 1 in
  (Prefix.nth_subprefix p l 0, Prefix.nth_subprefix p l 1)

let free_blocks ~parent ~allocated =
  let rec walk block claims acc =
    match claims with
    | [] -> block :: acc
    | _ :: _ ->
        if List.exists (fun c -> Prefix.subsumes c block) claims then acc
        else begin
          let lo, hi = halves block in
          let lo_claims = List.filter (Prefix.overlaps lo) claims in
          let hi_claims = List.filter (Prefix.overlaps hi) claims in
          walk lo lo_claims (walk hi hi_claims acc)
        end
  in
  let relevant = List.filter (Prefix.overlaps parent) allocated in
  List.sort Prefix.compare (walk parent relevant [])

let shortest_mask_blocks ~parent ~allocated =
  let blocks = free_blocks ~parent ~allocated in
  match blocks with
  | [] -> []
  | _ :: _ ->
      let best = List.fold_left (fun acc b -> min acc (Prefix.len b)) 33 blocks in
      List.filter (fun b -> Prefix.len b = best) blocks

let is_free ~parent ~allocated candidate =
  Prefix.subsumes parent candidate
  && not (List.exists (fun c -> Prefix.overlaps c candidate) allocated)

let candidates ~parent ~allocated ~want_len =
  let blocks = shortest_mask_blocks ~parent ~allocated in
  let usable = List.filter (fun b -> Prefix.len b <= want_len) blocks in
  List.map (fun b -> Prefix.first_subprefix b want_len) usable

let free_count ~parent ~allocated =
  List.fold_left (fun acc b -> acc + Prefix.size b) 0 (free_blocks ~parent ~allocated)
