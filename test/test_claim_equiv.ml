(* Differential tests: the trie-backed claim algorithm
   ([Prefix_trie.fold_free], [Address_space], [Claim_policy.decide])
   against the list-based references in [Free_space] and
   [Claim_reference], over random claim sets.  The sets mix ancestor
   and descendant claims, /32s, claims outside every cover, covers that
   are claimed whole, and the empty set. *)

let check = Alcotest.check

let p = Prefix.of_string

let prefix_testable = Alcotest.testable Prefix.pp Prefix.equal

(* A random sub-prefix of [region], between [lo] and [hi] bits longer
   than it (capped at /32). *)
let sub_prefix region ~lo ~hi =
  let open QCheck.Gen in
  let* extra = lo -- hi in
  let len = min 32 (Prefix.len region + extra) in
  let+ offset = int_bound (Prefix.size region - 1) in
  Prefix.make (Prefix.base region + offset) len

type scenario = {
  covers : Prefix.t list;
  claims : (Prefix.t * int) list;  (** distinct prefixes *)
  want_len : int;
  seed : int;
}

let gen_scenario =
  let open QCheck.Gen in
  (* Small regions put /32s and deep nesting in reach; 224/4 gives the
     scale of the top-level arena. *)
  let* region = oneofl [ p "224.0.0.0/24"; p "224.0.0.0/16"; p "224.0.0.0/4"; p "239.1.2.0/28" ] in
  let* covers = list_size (1 -- 3) (sub_prefix region ~lo:0 ~hi:4) in
  let claim =
    frequency
      [
        (6, sub_prefix region ~lo:0 ~hi:10);
        (2, sub_prefix region ~lo:28 ~hi:28);
        (1, oneofl covers);
        (1, map Prefix.parent (oneofl (List.filter (fun c -> Prefix.len c > 0) covers)));
      ]
  in
  let* raw = list_size (0 -- 24) (pair claim (int_bound 4)) in
  let claims =
    List.fold_left
      (fun acc (c, o) -> if List.mem_assoc c acc then acc else (c, o) :: acc)
      [] raw
    |> List.rev
  in
  let* want_len = Prefix.len region -- 32 in
  let+ seed = int_bound 1_000_000 in
  { covers; claims; want_len; seed }

let print_scenario s =
  Printf.sprintf "covers=[%s] claims=[%s] want_len=%d seed=%d"
    (String.concat " " (List.map Prefix.to_string s.covers))
    (String.concat " "
       (List.map (fun (c, o) -> Printf.sprintf "%s:%d" (Prefix.to_string c) o) s.claims))
    s.want_len s.seed

let arb_scenario = QCheck.make ~print:print_scenario gen_scenario

let space_of s =
  let space = Address_space.create () in
  List.iter (Address_space.add_cover space) s.covers;
  List.iter (fun (c, o) -> Address_space.register space ~owner:o c) s.claims;
  space

let trie_of s =
  let t = Prefix_trie.create () in
  List.iter (fun (c, o) -> Prefix_trie.add t c o) s.claims;
  t

let fold_free_list t cover =
  List.rev
    (Prefix_trie.fold_free t cover ~init:[] ~f:(fun base len acc -> Prefix.make base len :: acc))

(* Every prefix a query might be asked about: the covers, the claims,
   their halves, buddies and parents. *)
let probes s =
  let around q =
    q
    :: (if Prefix.len q < 32 then
          let lo, hi = Free_space.halves q in
          [ lo; hi ]
        else [])
    @ if Prefix.len q > 0 then [ Prefix.buddy q; Prefix.parent q ] else []
  in
  List.concat_map around (s.covers @ List.map fst s.claims)

let prop_fold_free =
  QCheck.Test.make ~name:"fold_free = Free_space.free_blocks" ~count:500 arb_scenario (fun s ->
      let t = trie_of s in
      let allocated = List.map fst s.claims in
      List.for_all
        (fun cover -> fold_free_list t cover = Free_space.free_blocks ~parent:cover ~allocated)
        (Prefix.class_d :: probes s))

let prop_choose_claim =
  QCheck.Test.make ~name:"choose_claim_placed = list reference, same Rng stream" ~count:500
    arb_scenario (fun s ->
      let space = space_of s in
      List.for_all
        (fun placement ->
          let r1 = Rng.create s.seed and r2 = Rng.create s.seed in
          let got =
            Address_space.choose_claim_placed space ~rng:r1 ~want_len:s.want_len ~placement
          in
          let want =
            Claim_reference.choose_claim_placed space ~rng:r2 ~want_len:s.want_len ~placement
          in
          Option.equal Prefix.equal got want && Rng.int r1 (1 lsl 30) = Rng.int r2 (1 lsl 30))
        [ `First; `Random ])

let prop_space_queries =
  QCheck.Test.make ~name:"can_double, free/claimed addresses = list reference" ~count:500
    arb_scenario (fun s ->
      let space = space_of s in
      Address_space.free_addresses space = Claim_reference.free_addresses space
      && Address_space.claimed_addresses space = Claim_reference.claimed_addresses space
      && List.for_all
           (fun q ->
             Address_space.can_double space q = Claim_reference.can_double space q
             && Address_space.claimed_within space q = Claim_reference.claimed_within space q)
           (probes s))

(* A caller's own claim record, as the simulators keep them: the
   policy must read it in place and hand back the very record. *)
type own = { o_prefix : Prefix.t; o_active : bool; o_used : int }

module Own_policy = Claim_policy.Make (struct
  type t = own

  let prefix c = c.o_prefix
  let active c = c.o_active
  let used c = c.o_used
end)

(* Half the cases hold every claim of the scenario, half a short list
   of 0-4 — the size of a domain's live list — and about half the
   claims are draining (inactive). *)
let gen_decide =
  let open QCheck.Gen in
  let* s = gen_scenario in
  let* keep = oneof [ return max_int; 0 -- 4 ] in
  let claim (o_prefix, _) =
    let* o_active = bool in
    let+ o_used = int_bound (Prefix.size o_prefix + 2) in
    { o_prefix; o_active; o_used }
  in
  let* own = flatten_l (List.map claim (List.filteri (fun i _ -> i < keep) s.claims)) in
  let* need = oneof [ 1 -- 8; map (fun k -> 1 lsl k) (0 -- 12) ] in
  let+ threshold = oneofl [ 0.0; 0.5; 0.75; 1.0 ] and+ max_prefixes = 1 -- 3 in
  (s, own, need, { Claim_policy.threshold; max_prefixes })

(* The in-place decision names a claim; the reference names a prefix.
   They agree when the prefixes match and the claim named is the
   caller's own record with that prefix. *)
let same_decision ~prefix ~claims got (want : Prefix.t Claim_policy.decision) =
  let own_with p c = List.exists (fun x -> x == c && Prefix.equal (prefix x) p) claims in
  match (got, want) with
  | Claim_policy.Assign c, Claim_policy.Assign p | Claim_policy.Double c, Claim_policy.Double p ->
      own_with p c
  | Claim_policy.Claim_new a, Claim_policy.Claim_new b
  | Claim_policy.Consolidate a, Claim_policy.Consolidate b ->
      a = b
  | Claim_policy.Blocked, Claim_policy.Blocked -> true
  | _ -> false

let prop_decide =
  QCheck.Test.make ~name:"decide = list reference" ~count:2000
    (QCheck.make
       ~print:(fun (s, own, need, _) ->
         Printf.sprintf "%s own=%d need=%d" (print_scenario s) (List.length own) need)
       gen_decide)
    (fun (s, own, need, params) ->
      let space = space_of s in
      let plain =
        List.map
          (fun c -> { Claim_policy.prefix = c.o_prefix; active = c.o_active; used = c.o_used })
          own
      in
      let want = Claim_reference.decide ~params ~space ~claims:plain ~need in
      same_decision ~prefix:(fun c -> c.o_prefix) ~claims:own
        (Own_policy.decide ~params ~space ~claims:own ~need)
        want
      && same_decision
           ~prefix:(fun (c : Claim_policy.claim) -> c.prefix)
           ~claims:plain
           (Claim_policy.decide ~params ~space ~claims:plain ~need)
           want)

(* Removing a prefix takes away exactly its addresses. *)
let prop_remove_cover =
  QCheck.Test.make ~name:"remove_cover takes away exactly the prefix" ~count:300 arb_scenario
    (fun s ->
      List.for_all
        (fun r ->
          let space = space_of s in
          let before = Address_space.covers space in
          Address_space.remove_cover space r;
          let after = Address_space.covers space in
          let removed =
            List.fold_left
              (fun acc c ->
                if Prefix.subsumes r c then acc + Prefix.size c
                else if Prefix.subsumes c r then acc + Prefix.size r
                else acc)
              0 before
          in
          List.for_all (fun c -> not (Prefix.overlaps c r)) after
          && List.for_all (fun c -> List.exists (fun b -> Prefix.subsumes b c) before) after
          && Address_space.total_addresses space
             = List.fold_left (fun acc c -> acc + Prefix.size c) 0 before - removed
          && after = List.sort Prefix.compare after)
        (probes s))

let test_remove_merged_cover () =
  let space = Address_space.create () in
  let a = p "224.1.0.0/16" in
  Address_space.add_cover space a;
  Address_space.add_cover space (Prefix.buddy a);
  check (Alcotest.list prefix_testable) "buddies merged" [ Prefix.parent a ]
    (Address_space.covers space);
  Address_space.remove_cover space a;
  check Alcotest.bool "removed range no longer covered" false (List.exists (fun c -> Prefix.subsumes c a) (Address_space.covers space));
  check (Alcotest.list prefix_testable) "the buddy stays" [ Prefix.buddy a ]
    (Address_space.covers space);
  Address_space.remove_cover space (p "224.1.2.0/24");
  check (Alcotest.list prefix_testable) "removing outside every cover is a no-op"
    [ Prefix.buddy a ] (Address_space.covers space)

let test_fold_free_paper_example () =
  (* §4.3.3: with 224.0.1/24 and 239/8 allocated out of 224/4, the
     largest free blocks are 228/6 and 232/6. *)
  let t = Prefix_trie.create () in
  Prefix_trie.add t (p "224.0.1.0/24") 0;
  Prefix_trie.add t (p "239.0.0.0/8") 1;
  let blocks = fold_free_list t Prefix.class_d in
  let shortest = List.filter (fun b -> Prefix.len b = 6) blocks in
  check (Alcotest.list prefix_testable) "228/6 and 232/6" [ p "228.0.0.0/6"; p "232.0.0.0/6" ]
    shortest;
  check (Alcotest.list prefix_testable) "empty trie: the whole cover" [ Prefix.class_d ]
    (fold_free_list (Prefix_trie.create ()) Prefix.class_d);
  check (Alcotest.list prefix_testable) "claimed cover: nothing" []
    (fold_free_list t (p "239.0.0.0/8"));
  check (Alcotest.list prefix_testable) "covered by a claim: nothing" []
    (fold_free_list t (p "239.4.0.0/16"))

let suite =
  [
    ("remove_cover splits a merged cover", `Quick, test_remove_merged_cover);
    ("fold_free paper example", `Quick, test_fold_free_paper_example);
    QCheck_alcotest.to_alcotest prop_fold_free;
    QCheck_alcotest.to_alcotest prop_choose_claim;
    QCheck_alcotest.to_alcotest prop_space_queries;
    QCheck_alcotest.to_alcotest prop_decide;
    QCheck_alcotest.to_alcotest prop_remove_cover;
  ]
