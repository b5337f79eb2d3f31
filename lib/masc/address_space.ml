type t = {
  mutable cover_list : Prefix.t list;  (** kept aggregated & sorted *)
  claim_trie : int Prefix_trie.t;  (** prefix -> owner *)
}

let create () = { cover_list = []; claim_trie = Prefix_trie.create () }

let add_cover t p = t.cover_list <- Prefix.aggregate (p :: t.cover_list)

let remove_cover t p = t.cover_list <- List.filter (fun q -> not (Prefix.equal p q)) t.cover_list

let covers t = t.cover_list

let register t ~owner p =
  match Prefix_trie.find_exact t.claim_trie p with
  | Some _ -> invalid_arg "Address_space.register: prefix already claimed"
  | None -> Prefix_trie.add t.claim_trie p owner

let unregister t p = Prefix_trie.remove t.claim_trie p

let owner_of t p = Prefix_trie.find_exact t.claim_trie p

let claims t = Prefix_trie.to_list t.claim_trie

let claims_of t ~owner =
  List.filter_map (fun (p, o) -> if o = owner then Some p else None) (claims t)

let claim_count t = Prefix_trie.cardinal t.claim_trie

let claim_prefixes t = List.map fst (claims t)

let conflicting t candidate = Prefix_trie.overlapping t.claim_trie candidate

let foreign_conflict t ~owner candidate =
  Prefix_trie.exists_overlapping t.claim_trie candidate (fun o owner -> o <> owner) owner

let in_some_cover t candidate = List.exists (fun c -> Prefix.subsumes c candidate) t.cover_list

let is_free t candidate = in_some_cover t candidate && conflicting t candidate = []

let choose_claim_placed t ~rng ~want_len ~placement =
  let allocated = claim_prefixes t in
  let all_blocks =
    List.concat_map (fun cover -> Free_space.free_blocks ~parent:cover ~allocated) t.cover_list
  in
  let usable = List.filter (fun b -> Prefix.len b <= want_len) all_blocks in
  match usable with
  | [] -> None
  | _ :: _ ->
      let best = List.fold_left (fun acc b -> min acc (Prefix.len b)) 33 usable in
      let shortest = List.filter (fun b -> Prefix.len b = best) usable in
      let block = List.nth shortest (Rng.int rng (List.length shortest)) in
      (match placement with
      | `First -> Some (Prefix.first_subprefix block want_len)
      | `Random ->
          let slots = Prefix.subprefix_count block want_len in
          Some (Prefix.nth_subprefix block want_len (Rng.int rng slots)))

let choose_claim t ~rng ~want_len = choose_claim_placed t ~rng ~want_len ~placement:`First

let can_double t p =
  if Prefix.len p = 0 then false
  else begin
    let buddy = Prefix.buddy p in
    let doubled = Prefix.double p in
    in_some_cover t doubled
    && not (List.exists (fun (q, _) -> (not (Prefix.equal q p)) && Prefix.overlaps q buddy) (claims t))
  end

let total_addresses t = List.fold_left (fun acc c -> acc + Prefix.size c) 0 t.cover_list

let free_addresses t =
  let allocated = claim_prefixes t in
  List.fold_left (fun acc c -> acc + Free_space.free_count ~parent:c ~allocated) 0 t.cover_list
