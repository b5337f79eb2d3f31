(* The MASC claim algorithm in its list-based form, kept as the
   differential oracle for [Address_space] and [Claim_policy], which
   read the same answers straight off the claim trie:

   - the free blocks of a cover are [Free_space.free_blocks] over the
     whole claim list;
   - the claim draw concatenates every cover's blocks, keeps the usable
     ones, then the shortest, and picks one with [List.nth];
   - doubling scans every claim but [p] for an overlap with the buddy;
   - the best-fit assignment filters the active fitting claims and
     takes the head of a stable sort by slack.

   Everything here goes through public accessors only. *)

let claim_prefixes space = List.map fst (Address_space.claims space)

let in_some_cover space candidate =
  List.exists (fun c -> Prefix.subsumes c candidate) (Address_space.covers space)

let choose_claim_placed space ~rng ~want_len ~placement =
  let allocated = claim_prefixes space in
  let all_blocks =
    List.concat_map
      (fun cover -> Free_space.free_blocks ~parent:cover ~allocated)
      (Address_space.covers space)
  in
  let usable = List.filter (fun b -> Prefix.len b <= want_len) all_blocks in
  match usable with
  | [] -> None
  | _ :: _ -> (
      let best = List.fold_left (fun acc b -> min acc (Prefix.len b)) 33 usable in
      let shortest = List.filter (fun b -> Prefix.len b = best) usable in
      let block = List.nth shortest (Rng.int rng (List.length shortest)) in
      match placement with
      | `First -> Some (Prefix.first_subprefix block want_len)
      | `Random ->
          let slots = Prefix.subprefix_count block want_len in
          Some (Prefix.nth_subprefix block want_len (Rng.int rng slots)))

let can_double space p =
  if Prefix.len p = 0 then false
  else begin
    let buddy = Prefix.buddy p in
    let doubled = Prefix.double p in
    in_some_cover space doubled
    && not
         (List.exists
            (fun (q, _) -> (not (Prefix.equal q p)) && Prefix.overlaps q buddy)
            (Address_space.claims space))
  end

let free_addresses space =
  let allocated = claim_prefixes space in
  List.fold_left
    (fun acc c -> acc + Free_space.free_count ~parent:c ~allocated)
    0 (Address_space.covers space)

let claimed_addresses space =
  List.fold_left (fun acc (p, _) -> acc + Prefix.size p) 0 (Address_space.claims space)

let claimed_within space prefix =
  List.fold_left
    (fun acc (p, _) -> if Prefix.subsumes prefix p then acc + Prefix.size p else acc)
    0 (Address_space.claims space)

let decide ~params ~space ~claims ~need =
  let open Claim_policy in
  if need <= 0 then invalid_arg "Claim_policy.decide: non-positive need";
  let active = List.filter (fun c -> c.active) claims in
  let fitting =
    List.filter (fun c -> Prefix.size c.prefix - c.used >= need) active
    |> List.sort (fun a b ->
           compare (Prefix.size a.prefix - a.used) (Prefix.size b.prefix - b.used))
  in
  match fitting with
  | c :: _ -> Assign c.prefix
  | [] -> (
      let total_size = List.fold_left (fun acc c -> acc + Prefix.size c.prefix) 0 claims in
      let total_used = need + List.fold_left (fun acc c -> acc + c.used) 0 claims in
      let doubling_candidates =
        List.filter (fun c -> need <= Prefix.size c.prefix && can_double space c.prefix) active
        |> List.sort (fun a b -> compare (Prefix.size a.prefix) (Prefix.size b.prefix))
      in
      let meets_threshold c =
        float_of_int total_used
        >= params.threshold *. float_of_int (total_size + Prefix.size c.prefix)
      in
      match List.filter meets_threshold doubling_candidates with
      | c :: _ -> Double c.prefix
      | [] -> (
          if List.length active < params.max_prefixes then Claim_new (Prefix.mask_for_count need)
          else
            match doubling_candidates with
            | c :: _ -> Double c.prefix
            | [] ->
                let want = Prefix.mask_for_count total_used in
                if List.exists (fun cover -> Prefix.len cover <= want) (Address_space.covers space)
                then Consolidate want
                else Blocked))
