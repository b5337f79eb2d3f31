type t = {
  mutable cover_list : Prefix.t list;  (** kept aggregated & sorted *)
  claim_trie : int Prefix_trie.t;  (** prefix -> owner *)
  mutable version : int;  (** bumped when a claim binding comes or goes *)
}

let reset t =
  t.cover_list <- [];
  Prefix_trie.reset t.claim_trie;
  t.version <- 0

let create () =
  let t = { cover_list = []; claim_trie = Prefix_trie.create (); version = 0 } in
  reset t;
  t

let version t = t.version

let add_cover t p = t.cover_list <- Prefix.aggregate (p :: t.cover_list)

(* [c] minus its sub-prefix [p]: the buddy of every block on the way
   down from [c] to [p], in increasing order. *)
let carve c p =
  let rec down q acc =
    if Prefix.len q = Prefix.len c then acc else down (Prefix.parent q) (Prefix.buddy q :: acc)
  in
  List.sort Prefix.compare (down p [])

let remove_cover t p =
  t.cover_list <-
    List.concat_map
      (fun c ->
        if Prefix.subsumes p c then []
        else if Prefix.subsumes c p then carve c p
        else [ c ])
      t.cover_list

let covers t = t.cover_list

let register t ~owner p =
  match Prefix_trie.find_exact t.claim_trie p with
  | Some _ -> invalid_arg "Address_space.register: prefix already claimed"
  | None ->
      Prefix_trie.add t.claim_trie p owner;
      t.version <- t.version + 1

let unregister t p =
  let before = Prefix_trie.cardinal t.claim_trie in
  Prefix_trie.remove t.claim_trie p;
  if Prefix_trie.cardinal t.claim_trie <> before then t.version <- t.version + 1

let owner_of t p = Prefix_trie.find_exact t.claim_trie p

let claims t = Prefix_trie.to_list t.claim_trie

let conflicting t candidate = Prefix_trie.overlapping t.claim_trie candidate

let foreign_conflict t ~owner candidate =
  Prefix_trie.exists_overlapping t.claim_trie candidate (fun o owner -> o <> owner) owner

let any_claim _ () = true

let claimed_overlapping t candidate =
  Prefix_trie.exists_overlapping t.claim_trie candidate any_claim ()

let in_some_cover t candidate = List.exists (fun c -> Prefix.subsumes c candidate) t.cover_list

let is_free t candidate = in_some_cover t candidate && not (claimed_overlapping t candidate)

let add_size p _ acc = acc + Prefix.size p

let claimed_addresses t = Prefix_trie.fold t.claim_trie ~init:0 ~f:add_size

let claimed_within t p = Prefix_trie.fold_covered_by t.claim_trie p ~init:0 ~f:add_size

(* The claim draw, in two passes over the free blocks of the covers
   that build no list.  Pass 1 finds the shortest usable length [best]
   (a block of length <= [want_len]) and how many blocks have it; one
   [Rng.int] picks an index among those, and pass 2 finds that block.
   Both passes visit blocks in the claim algorithm's list order (cover
   order, then address order), so the draw picks the block that
   indexing that list would, from the same Rng stream. *)
let choose_claim_placed t ~rng ~want_len ~placement =
  let best = ref 33 and count = ref 0 in
  let tally _ len () =
    if len <= want_len then
      if len < !best then begin
        best := len;
        count := 1
      end
      else if len = !best then incr count
  in
  List.iter (fun cover -> Prefix_trie.fold_free t.claim_trie cover ~init:() ~f:tally) t.cover_list;
  if !count = 0 then None
  else begin
    let best = !best in
    let chosen = ref 0 in
    let find base len i =
      if len = best then begin
        if i = 0 then chosen := base;
        i - 1
      end
      else i
    in
    ignore
      (List.fold_left
         (fun i cover -> Prefix_trie.fold_free t.claim_trie cover ~init:i ~f:find)
         (Rng.int rng !count) t.cover_list);
    let block = Prefix.make_exact !chosen best in
    match placement with
    | `First -> Some (Prefix.first_subprefix block want_len)
    | `Random ->
        let slots = Prefix.subprefix_count block want_len in
        Some (Prefix.nth_subprefix block want_len (Rng.int rng slots))
  end

let choose_claim t ~rng ~want_len = choose_claim_placed t ~rng ~want_len ~placement:`First

(* [p] never overlaps its own buddy, so "no claim but [p] overlaps the
   buddy" is "no claim overlaps the buddy". *)
let can_double t p =
  Prefix.len p > 0
  && in_some_cover t (Prefix.double p)
  && not (claimed_overlapping t (Prefix.buddy p))

let total_addresses t = List.fold_left (fun acc c -> acc + Prefix.size c) 0 t.cover_list

let add_block_size _ len acc = acc + (1 lsl (32 - len))

let free_addresses t =
  List.fold_left
    (fun acc cover -> Prefix_trie.fold_free t.claim_trie cover ~init:acc ~f:add_block_size)
    0 t.cover_list
