(* Tests for mcast_addr: addresses, prefixes, the trie, and the
   free-space decomposition the MASC claim algorithm searches. *)

let check = Alcotest.check

let prefix_testable = Alcotest.testable Prefix.pp Prefix.equal

let p = Prefix.of_string

(* --- Ipv4 ----------------------------------------------------------- *)

let test_ipv4_roundtrip () =
  List.iter
    (fun s -> check Alcotest.string "roundtrip" s (Ipv4.to_string (Ipv4.of_string s)))
    [ "0.0.0.0"; "224.0.0.1"; "255.255.255.255"; "10.1.2.3" ]

let test_ipv4_of_octets () =
  check Alcotest.int "224.0.0.0" 0xE0000000 (Ipv4.of_octets 224 0 0 0);
  Alcotest.check_raises "octet range" (Invalid_argument "Ipv4.of_octets: octet out of range")
    (fun () -> ignore (Ipv4.of_octets 256 0 0 0))

let test_ipv4_parse_errors () =
  List.iter
    (fun s ->
      check (Alcotest.option Alcotest.int) (Printf.sprintf "reject %S" s) None
        (Ipv4.of_string_opt s))
    [ ""; "1.2.3"; "1.2.3.4.5"; "a.b.c.d"; "1.2.3.256"; "1.2.3.-1"; "1..2.3" ]

(* The multicast addresses are class D, the space every MASC claim
   descends from. *)
let test_ipv4_is_multicast () =
  let multicast a = Prefix.mem (Ipv4.of_string a) Prefix.class_d in
  check Alcotest.bool "224.0.0.0 multicast" true (multicast "224.0.0.0");
  check Alcotest.bool "239.255.0.1 multicast" true (multicast "239.255.0.1");
  check Alcotest.bool "223.x not" false (multicast "223.255.255.255");
  check Alcotest.bool "240.x not" false (multicast "240.0.0.0")

(* --- Prefix --------------------------------------------------------- *)

let test_prefix_parse () =
  check prefix_testable "parse /24" (Prefix.make (Ipv4.of_string "224.0.1.0") 24) (p "224.0.1.0/24");
  check prefix_testable "bare address is /32" (Prefix.make (Ipv4.of_string "10.0.0.1") 32)
    (p "10.0.0.1");
  check prefix_testable "masking applied" (p "224.0.1.0/24") (p "224.0.1.99/24");
  Alcotest.check_raises "bad length" (Invalid_argument "Prefix.of_string: \"1.2.3.4/33\"")
    (fun () -> ignore (Prefix.of_string "1.2.3.4/33"))

let test_prefix_make_exact () =
  Alcotest.check_raises "host bits rejected" (Invalid_argument "Prefix.make_exact: host bits set")
    (fun () -> ignore (Prefix.make_exact (Ipv4.of_string "224.0.1.1") 24))

let test_prefix_size_last () =
  check Alcotest.int "/24 size" 256 (Prefix.size (p "224.0.1.0/24"));
  check Alcotest.int "/32 size" 1 (Prefix.size (p "1.2.3.4/32"));
  check Alcotest.string "last of /24" "224.0.1.255" (Ipv4.to_string (Prefix.last (p "224.0.1.0/24")))

let test_prefix_mem () =
  check Alcotest.bool "member" true (Prefix.mem (Ipv4.of_string "224.0.1.77") (p "224.0.1.0/24"));
  check Alcotest.bool "non member" false (Prefix.mem (Ipv4.of_string "224.0.2.0") (p "224.0.1.0/24"))

let test_prefix_subsumes_overlaps () =
  check Alcotest.bool "subsumes" true (Prefix.subsumes (p "224.0.0.0/16") (p "224.0.128.0/24"));
  check Alcotest.bool "not subsumed" false (Prefix.subsumes (p "224.0.128.0/24") (p "224.0.0.0/16"));
  check Alcotest.bool "reflexive" true (Prefix.subsumes (p "224.0.0.0/16") (p "224.0.0.0/16"));
  check Alcotest.bool "overlaps symmetric" true
    (Prefix.overlaps (p "224.0.128.0/24") (p "224.0.0.0/16"));
  check Alcotest.bool "disjoint" false (Prefix.overlaps (p "224.0.0.0/24") (p "224.0.1.0/24"))

let test_prefix_split_buddy_parent () =
  let lo, hi = Free_space.halves (p "224.0.0.0/23") in
  check prefix_testable "lower half" (p "224.0.0.0/24") lo;
  check prefix_testable "upper half" (p "224.0.1.0/24") hi;
  check prefix_testable "buddy of lower" hi (Prefix.buddy lo);
  check prefix_testable "buddy of upper" lo (Prefix.buddy hi);
  check prefix_testable "parent" (p "224.0.0.0/23") (Prefix.parent lo);
  check prefix_testable "double = parent" (Prefix.parent hi) (Prefix.double hi)

let test_prefix_subprefixes () =
  check prefix_testable "first /24 of /22" (p "224.0.0.0/24")
    (Prefix.first_subprefix (p "224.0.0.0/22") 24);
  check Alcotest.int "four /24 in /22" 4 (Prefix.subprefix_count (p "224.0.0.0/22") 24);
  check prefix_testable "third /24" (p "224.0.2.0/24") (Prefix.nth_subprefix (p "224.0.0.0/22") 24 2);
  Alcotest.check_raises "nth out of range"
    (Invalid_argument "Prefix.nth_subprefix: index out of range") (fun () ->
      ignore (Prefix.nth_subprefix (p "224.0.0.0/22") 24 4))

let test_prefix_mask_for_count () =
  check Alcotest.int "1024 -> /22" 22 (Prefix.mask_for_count 1024);
  check Alcotest.int "1025 -> /21" 21 (Prefix.mask_for_count 1025);
  check Alcotest.int "1 -> /32" 32 (Prefix.mask_for_count 1);
  check Alcotest.int "256 -> /24" 24 (Prefix.mask_for_count 256)

let test_prefix_aggregate_buddies () =
  check (Alcotest.list prefix_testable) "buddy merge" [ p "224.0.0.0/23" ]
    (Prefix.aggregate [ p "224.0.0.0/24"; p "224.0.1.0/24" ]);
  check (Alcotest.list prefix_testable) "cascade merge" [ p "224.0.0.0/22" ]
    (Prefix.aggregate [ p "224.0.0.0/24"; p "224.0.1.0/24"; p "224.0.2.0/24"; p "224.0.3.0/24" ]);
  check (Alcotest.list prefix_testable) "subsumed dropped" [ p "224.0.0.0/16" ]
    (Prefix.aggregate [ p "224.0.0.0/16"; p "224.0.128.0/24" ]);
  check (Alcotest.list prefix_testable) "non-buddies kept"
    [ p "224.0.1.0/24"; p "224.0.2.0/24" ]
    (Prefix.aggregate [ p "224.0.2.0/24"; p "224.0.1.0/24" ])

let prop_split_partitions =
  QCheck.Test.make ~name:"split halves partition the prefix" ~count:300
    QCheck.(pair (int_bound 0xFFFFFF) (int_range 4 31))
    (fun (base, len) ->
      let pre = Prefix.make (base lsl 8) len in
      let lo, hi = Free_space.halves pre in
      Prefix.size lo + Prefix.size hi = Prefix.size pre
      && Prefix.subsumes pre lo && Prefix.subsumes pre hi
      && not (Prefix.overlaps lo hi))

let prop_aggregate_preserves_coverage =
  (* The minimal cover covers exactly the same addresses. *)
  let gen =
    QCheck.make
      ~print:(fun l -> String.concat " " (List.map Prefix.to_string l))
      QCheck.Gen.(
        list_size (1 -- 8)
          (map2
             (fun base len ->
               let len = 20 + (len mod 8) in
               Prefix.make (0xE0000000 lor (base land 0x00FFFF00)) len)
             (int_bound 0xFFFFFF) (int_bound 7)))
  in
  QCheck.Test.make ~name:"aggregate preserves address coverage" ~count:200 gen (fun prefixes ->
      let aggregated = Prefix.aggregate prefixes in
      let covered_by set addr = List.exists (Prefix.mem addr) set in
      (* Check boundary addresses of every input and output prefix. *)
      let probes =
        List.concat_map (fun q -> [ Prefix.base q; Prefix.last q ]) (prefixes @ aggregated)
      in
      List.for_all (fun a -> covered_by prefixes a = covered_by aggregated a) probes)

let prop_aggregate_minimal =
  QCheck.Test.make ~name:"aggregate output has no mergeable pair" ~count:200
    QCheck.(list_of_size Gen.(1 -- 8) (int_bound 255))
    (fun bases ->
      let prefixes = List.map (fun b -> Prefix.make (0xE0000000 lor (b lsl 8)) 24) bases in
      let out = Prefix.aggregate prefixes in
      let rec no_merge = function
        | a :: b :: rest -> Prefix.aggregate [ a; b ] = [ a; b ] && no_merge (b :: rest)
        | [ _ ] | [] -> true
      in
      no_merge out)

(* --- Prefix_trie ---------------------------------------------------- *)

let test_trie_exact () =
  let t = Prefix_trie.create () in
  Prefix_trie.add t (p "224.0.0.0/16") "a";
  Prefix_trie.add t (p "224.0.128.0/24") "b";
  check (Alcotest.option Alcotest.string) "find /16" (Some "a")
    (Prefix_trie.find_exact t (p "224.0.0.0/16"));
  check (Alcotest.option Alcotest.string) "find /24" (Some "b")
    (Prefix_trie.find_exact t (p "224.0.128.0/24"));
  check (Alcotest.option Alcotest.string) "missing" None
    (Prefix_trie.find_exact t (p "224.0.0.0/24"));
  check Alcotest.int "cardinal" 2 (Prefix_trie.cardinal t)

let test_trie_replace () =
  let t = Prefix_trie.create () in
  Prefix_trie.add t (p "224.0.0.0/16") 1;
  Prefix_trie.add t (p "224.0.0.0/16") 2;
  check Alcotest.int "replaced, not duplicated" 1 (Prefix_trie.cardinal t);
  check (Alcotest.option Alcotest.int) "new value" (Some 2)
    (Prefix_trie.find_exact t (p "224.0.0.0/16"))

let test_trie_longest_match () =
  let t = Prefix_trie.create () in
  Prefix_trie.add t (p "224.0.0.0/16") "aggregate";
  Prefix_trie.add t (p "224.0.128.0/24") "specific";
  (match Prefix_trie.longest_match t (Ipv4.of_string "224.0.128.7") with
  | Some (pre, v) ->
      check prefix_testable "matched /24" (p "224.0.128.0/24") pre;
      check Alcotest.string "specific wins" "specific" v
  | None -> Alcotest.fail "expected match");
  (match Prefix_trie.longest_match t (Ipv4.of_string "224.0.5.1") with
  | Some (pre, _) -> check prefix_testable "fell back to /16" (p "224.0.0.0/16") pre
  | None -> Alcotest.fail "expected aggregate match");
  check Alcotest.bool "no match outside" true
    (Prefix_trie.longest_match t (Ipv4.of_string "225.0.0.1") = None)

let test_trie_remove_prunes () =
  let t = Prefix_trie.create () in
  Prefix_trie.add t (p "224.0.128.0/24") 1;
  Prefix_trie.remove t (p "224.0.128.0/24");
  check Alcotest.int "empty" 0 (Prefix_trie.cardinal t);
  (* removing a missing prefix is a no-op *)
  Prefix_trie.remove t (p "224.0.128.0/24");
  check Alcotest.int "still empty" 0 (Prefix_trie.cardinal t)

let test_trie_remove_keeps_others () =
  let t = Prefix_trie.create () in
  Prefix_trie.add t (p "224.0.0.0/16") 1;
  Prefix_trie.add t (p "224.0.128.0/24") 2;
  Prefix_trie.remove t (p "224.0.0.0/16");
  check (Alcotest.option Alcotest.int) "sibling survives" (Some 2)
    (Prefix_trie.find_exact t (p "224.0.128.0/24"));
  check (Alcotest.option Alcotest.int) "removed" None (Prefix_trie.find_exact t (p "224.0.0.0/16"))

let test_trie_to_list_order () =
  let t = Prefix_trie.create () in
  List.iter
    (fun (s, v) -> Prefix_trie.add t (p s) v)
    [ ("224.0.128.0/24", 3); ("224.0.0.0/16", 1); ("224.0.64.0/24", 2) ]
  ;
  let keys = List.map fst (Prefix_trie.to_list t) in
  check (Alcotest.list prefix_testable) "prefix order"
    [ p "224.0.0.0/16"; p "224.0.64.0/24"; p "224.0.128.0/24" ]
    keys

let covered_by t q =
  List.rev (Prefix_trie.fold_covered_by t q ~init:[] ~f:(fun p v acc -> (p, v) :: acc))

let test_trie_covered_by () =
  let t = Prefix_trie.create () in
  List.iter (fun s -> Prefix_trie.add t (p s) ()) [ "224.0.0.0/24"; "224.0.1.0/24"; "225.0.0.0/24" ];
  let covered = List.map fst (covered_by t (p "224.0.0.0/16")) in
  check (Alcotest.list prefix_testable) "covered set" [ p "224.0.0.0/24"; p "224.0.1.0/24" ] covered

let prop_trie_matches_naive_longest_match =
  let gen =
    QCheck.make
      ~print:(fun (l, a) ->
        Printf.sprintf "[%s] %s"
          (String.concat " " (List.map Prefix.to_string l))
          (Ipv4.to_string a))
      QCheck.Gen.(
        pair
          (list_size (1 -- 12)
             (map2
                (fun base len -> Prefix.make (0xE0000000 lor (base land 0xFFFFFF)) (8 + (len mod 25)))
                (int_bound 0xFFFFFF) (int_bound 24)))
          (map (fun a -> 0xE0000000 lor (a land 0xFFFFFF)) (int_bound 0xFFFFFF)))
  in
  QCheck.Test.make ~name:"trie longest match equals naive scan" ~count:300 gen (fun (l, addr) ->
      let t = Prefix_trie.create () in
      List.iter (fun pre -> Prefix_trie.add t pre ()) l;
      let naive =
        List.fold_left
          (fun acc pre ->
            if Prefix.mem addr pre then
              match acc with
              | Some best when Prefix.len best >= Prefix.len pre -> acc
              | Some _ | None -> Some pre
            else acc)
          None l
      in
      Option.map fst (Prefix_trie.longest_match t addr) = naive)

(* The path-and-subtree queries against a filter over [to_list]: same
   bindings, same order.  Prefixes are drawn from a /16's worth of bases
   with lengths 8-24, so overlaps are common. *)
let prop_trie_queries_match_naive_filter =
  let prefix =
    QCheck.Gen.(
      map2
        (fun base len -> Prefix.make (0xE0000000 lor ((base land 0xFFFF) lsl 8)) (8 + (len mod 17)))
        (int_bound 0xFFFF) (int_bound 16))
  in
  let gen =
    QCheck.make
      ~print:(fun (l, q, a) ->
        Printf.sprintf "[%s] %s %s"
          (String.concat " " (List.map Prefix.to_string l))
          (Prefix.to_string q) (Ipv4.to_string a))
      QCheck.Gen.(
        triple (list_size (0 -- 16) prefix) prefix
          (map
             (fun a -> 0xE0000000 lor ((a land 0xFFFF) lsl 8) lor (a land 0xFF))
             (int_bound 0xFFFFFF)))
  in
  QCheck.Test.make ~name:"trie overlap and longest-match queries equal naive filters" ~count:500 gen
    (fun (l, q, addr) ->
      let t = Prefix_trie.create () in
      List.iteri (fun i pre -> Prefix_trie.add t pre i) l;
      let all = Prefix_trie.to_list t in
      let naive_longest =
        List.fold_left
          (fun acc (pre, v) ->
            if Prefix.mem addr pre then
              match acc with
              | Some (best, _) when Prefix.len best >= Prefix.len pre -> acc
              | Some _ | None -> Some (pre, v)
            else acc)
          None all
      in
      let odd v () = v mod 2 = 1 in
      Prefix_trie.overlapping t q = List.filter (fun (p, _) -> Prefix.overlaps p q) all
      && covered_by t q = List.filter (fun (p, _) -> Prefix.subsumes q p) all
      && Prefix_trie.exists_overlapping t q odd ()
         = List.exists (fun (p, v) -> Prefix.overlaps p q && odd v ()) all
      && Prefix_trie.longest_match t addr = naive_longest
      && Prefix_trie.find_longest t addr = Option.map snd naive_longest)

(* The flat trie against [Prefix_trie_reference], the boxed one it
   replaced, over seeded add/remove/reset sequences.  Each seed draws a
   pool of prefixes in 224/4 with lengths 4-32 around two anchor
   addresses one bit apart, half of them one more bit off an anchor, so
   paths share nodes; every operation picks from the pool, so removes
   hit bindings and prune.  After every step every query must agree,
   and [find_longest] must hand back the stored binding itself. *)

type trie_op = Add of Prefix.t * int | Remove of Prefix.t | Reset

let trie_op_to_string = function
  | Add (q, v) -> Printf.sprintf "add %s %d" (Prefix.to_string q) v
  | Remove q -> "remove " ^ Prefix.to_string q
  | Reset -> "reset"

let trie_pool rng =
  let a0 = 0xE0000000 lor Rng.int rng 0x10000000 in
  let a1 = a0 lxor (1 lsl Rng.int rng 28) in
  Array.init 10 (fun _ ->
      let a = if Rng.int rng 2 = 0 then a0 else a1 in
      let a = if Rng.int rng 2 = 0 then a else a lxor (1 lsl Rng.int rng 28) in
      Prefix.make a (Rng.int_in rng 4 32))

let trie_queries_agree flat reference pool =
  let module R = Prefix_trie_reference in
  let cons_pv q v acc = (q, v) :: acc in
  let cons_block base len acc = (base, len) :: acc in
  let covers = Array.append pool [| p "224.0.0.0/4"; p "0.0.0.0/0" |] in
  let addrs =
    Array.concat
      [ Array.map Prefix.base pool; Array.map Prefix.last pool; [| 0xE0000000; 0xEFFFFFFF |] ]
  in
  let third v r = v mod 3 = r in
  let values_of iter t =
    let l = ref [] in
    iter t (fun v -> l := v :: !l);
    !l
  in
  Prefix_trie.cardinal flat = R.cardinal reference
  && Prefix_trie.to_list flat = R.to_list reference
  && Prefix_trie.fold flat ~init:[] ~f:cons_pv = R.fold reference ~init:[] ~f:cons_pv
  && values_of Prefix_trie.iter_values flat = values_of R.iter_values reference
  && Array.for_all
       (fun q ->
         Prefix_trie.find_exact flat q = R.find_exact reference q
         && Prefix_trie.overlapping flat q = R.overlapping reference q
         && Prefix_trie.fold_covered_by flat q ~init:[] ~f:cons_pv
            = R.fold_covered_by reference q ~init:[] ~f:cons_pv
         && Prefix_trie.fold_free flat q ~init:[] ~f:cons_block
            = R.fold_free reference q ~init:[] ~f:cons_block
         && List.for_all
              (fun r ->
                Prefix_trie.exists_overlapping flat q third r
                = R.exists_overlapping reference q third r)
              [ 0; 1; 2 ])
       covers
  && Array.for_all
       (fun a ->
         let found = Prefix_trie.find_longest flat a in
         Prefix_trie.longest_match flat a = R.longest_match reference a
         && found = R.find_longest reference a
         &&
         match Prefix_trie.longest_match flat a with
         | Some (q, _) -> found == Prefix_trie.find_exact flat q
         | None -> found = None)
       addrs

let test_trie_matches_reference () =
  for seed = 1 to 200 do
    let rng = Rng.create seed in
    let pool = trie_pool rng in
    let flat = Prefix_trie.create () and reference = Prefix_trie_reference.create () in
    for step = 1 to 60 do
      let q = Rng.pick rng pool in
      let op =
        match Rng.int rng 20 with
        | 0 -> Reset
        | k when k < 11 -> Add (q, step)
        | _ -> Remove q
      in
      (match op with
      | Add (q, v) ->
          Prefix_trie.add flat q v;
          Prefix_trie_reference.add reference q v
      | Remove q ->
          Prefix_trie.remove flat q;
          Prefix_trie_reference.remove reference q
      | Reset ->
          Prefix_trie.reset flat;
          Prefix_trie_reference.reset reference);
      if not (trie_queries_agree flat reference pool) then
        Alcotest.failf "seed %d, step %d (%s): the flat trie disagrees with the reference" seed
          step (trie_op_to_string op)
    done
  done

(* The flat trie's allocation contract.  A trie rewound by [reset]
   keeps its capacity, so refilling it with the same bindings allocates
   only each binding's [Some] box (2 words); removes, exact and longest
   lookups, and a free-block fold with a constant closure allocate
   nothing.  The bindings share paths, so removes prune and the next
   adds take nodes off the free list. *)
let trie_alloc_prefixes =
  Array.init 256 (fun i ->
      Prefix.make (0xE0000000 lor ((i * 0x9E3779) land 0x0FFFFFFF)) (12 + (i mod 21)))

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let count_len _ len acc = acc + len

let test_trie_allocation () =
  let t = Prefix_trie.create () in
  let prefixes = trie_alloc_prefixes in
  let n = Array.length prefixes in
  let fill () =
    for i = 0 to n - 1 do
      Prefix_trie.add t prefixes.(i) i
    done
  in
  fill ();
  Prefix_trie.reset t;
  let refill = minor_words_of fill in
  check Alcotest.bool
    (Printf.sprintf "re-adding %d bindings after reset allocates %.0f words <= %d" n refill
       (2 * n))
    true
    (refill <= float_of_int (2 * n));
  let lookups =
    minor_words_of (fun () ->
        for i = 0 to n - 1 do
          let q = prefixes.(i) in
          ignore (Prefix_trie.find_exact t q);
          ignore (Prefix_trie.find_longest t (Prefix.last q));
          ignore (Prefix_trie.fold_free t q ~init:0 ~f:count_len)
        done)
  in
  check (Alcotest.float 0.0) "find_exact, find_longest and fold_free allocate nothing" 0.0 lookups;
  let removes =
    minor_words_of (fun () ->
        for i = 0 to n - 1 do
          Prefix_trie.remove t prefixes.(i)
        done)
  in
  check (Alcotest.float 0.0) "remove allocates nothing" 0.0 removes;
  check Alcotest.int "all removed" 0 (Prefix_trie.cardinal t);
  let readd = minor_words_of fill in
  check Alcotest.bool
    (Printf.sprintf "re-adding over the free list allocates %.0f words <= %d" readd (2 * n))
    true
    (readd <= float_of_int (2 * n))

(* --- Free_space ------------------------------------------------------ *)

let test_free_blocks_paper_example () =
  (* The example in §4.3.3: with 224.0.1/24 and 239/8 allocated out of
     224/4, the shortest-mask free blocks are 228/6 and 232/6. *)
  let blocks =
    Free_space.shortest_mask_blocks ~parent:Prefix.class_d
      ~allocated:[ p "224.0.1.0/24"; p "239.0.0.0/8" ]
  in
  check (Alcotest.list prefix_testable) "228/6 and 232/6" [ p "228.0.0.0/6"; p "232.0.0.0/6" ]
    blocks

let test_free_blocks_empty_and_full () =
  check (Alcotest.list prefix_testable) "nothing allocated -> whole parent" [ p "224.0.0.0/16" ]
    (Free_space.free_blocks ~parent:(p "224.0.0.0/16") ~allocated:[]);
  check (Alcotest.list prefix_testable) "fully allocated -> nothing" []
    (Free_space.free_blocks ~parent:(p "224.0.0.0/16") ~allocated:[ p "224.0.0.0/16" ]);
  check (Alcotest.list prefix_testable) "covering claim -> nothing" []
    (Free_space.free_blocks ~parent:(p "224.0.0.0/16") ~allocated:[ p "224.0.0.0/8" ])

let test_free_blocks_ignores_outside () =
  check (Alcotest.list prefix_testable) "outside claims ignored" [ p "224.0.0.0/16" ]
    (Free_space.free_blocks ~parent:(p "224.0.0.0/16") ~allocated:[ p "225.0.0.0/16" ])

let test_is_free () =
  let allocated = [ p "224.0.0.0/24" ] in
  check Alcotest.bool "free block" true
    (Free_space.is_free ~parent:(p "224.0.0.0/16") ~allocated (p "224.0.1.0/24"));
  check Alcotest.bool "allocated block" false
    (Free_space.is_free ~parent:(p "224.0.0.0/16") ~allocated (p "224.0.0.0/24"));
  check Alcotest.bool "overlapping block" false
    (Free_space.is_free ~parent:(p "224.0.0.0/16") ~allocated (p "224.0.0.0/23"));
  check Alcotest.bool "outside parent" false
    (Free_space.is_free ~parent:(p "224.0.0.0/16") ~allocated (p "225.0.0.0/24"))

let test_candidates () =
  let cands =
    Free_space.candidates ~parent:(p "224.0.0.0/16") ~allocated:[ p "224.0.0.0/17" ] ~want_len:24
  in
  check (Alcotest.list prefix_testable) "first /24 of the free half" [ p "224.0.128.0/24" ] cands;
  check (Alcotest.list prefix_testable) "no room for /15" []
    (Free_space.candidates ~parent:(p "224.0.0.0/16") ~allocated:[] ~want_len:15)

let test_free_count () =
  check Alcotest.int "half free" 32768
    (Free_space.free_count ~parent:(p "224.0.0.0/16") ~allocated:[ p "224.0.0.0/17" ]);
  check Alcotest.int "all free" 65536 (Free_space.free_count ~parent:(p "224.0.0.0/16") ~allocated:[])

let prop_free_blocks_disjoint_and_complete =
  let gen =
    QCheck.make
      ~print:(fun l -> String.concat " " (List.map Prefix.to_string l))
      QCheck.Gen.(
        list_size (0 -- 10)
          (map2
             (fun base len -> Prefix.make (0xE0000000 lor (base land 0x00FFFF00)) (18 + (len mod 10)))
             (int_bound 0xFFFFFF) (int_bound 9)))
  in
  QCheck.Test.make ~name:"free blocks are disjoint from claims and cover the rest" ~count:200 gen
    (fun allocated ->
      let parent = p "224.0.0.0/12" in
      let blocks = Free_space.free_blocks ~parent ~allocated in
      let disjoint_from_claims =
        List.for_all
          (fun b -> not (List.exists (fun c -> Prefix.overlaps b c) allocated))
          blocks
      in
      let blocks_disjoint =
        let rec pairwise = function
          | [] -> true
          | b :: rest -> (not (List.exists (Prefix.overlaps b) rest)) && pairwise rest
        in
        pairwise blocks
      in
      let count_ok =
        let inside =
          List.fold_left
            (fun acc c ->
              if Prefix.overlaps parent c then
                acc + Prefix.size (if Prefix.subsumes parent c then c else parent)
              else acc)
            0
            (Prefix.aggregate allocated)
        in
        Free_space.free_count ~parent ~allocated = Prefix.size parent - inside
      in
      disjoint_from_claims && blocks_disjoint && count_ok)

let suite =
  [
    ("ipv4 roundtrip", `Quick, test_ipv4_roundtrip);
    ("ipv4 of_octets", `Quick, test_ipv4_of_octets);
    ("ipv4 parse errors", `Quick, test_ipv4_parse_errors);
    ("ipv4 is_multicast", `Quick, test_ipv4_is_multicast);
    ("prefix parse", `Quick, test_prefix_parse);
    ("prefix make_exact", `Quick, test_prefix_make_exact);
    ("prefix size/last", `Quick, test_prefix_size_last);
    ("prefix mem", `Quick, test_prefix_mem);
    ("prefix subsumes/overlaps", `Quick, test_prefix_subsumes_overlaps);
    ("prefix split/buddy/parent", `Quick, test_prefix_split_buddy_parent);
    ("prefix subprefixes", `Quick, test_prefix_subprefixes);
    ("prefix mask_for_count", `Quick, test_prefix_mask_for_count);
    ("prefix aggregate buddies", `Quick, test_prefix_aggregate_buddies);
    QCheck_alcotest.to_alcotest prop_split_partitions;
    QCheck_alcotest.to_alcotest prop_aggregate_preserves_coverage;
    QCheck_alcotest.to_alcotest prop_aggregate_minimal;
    ("trie exact", `Quick, test_trie_exact);
    ("trie replace", `Quick, test_trie_replace);
    ("trie longest match", `Quick, test_trie_longest_match);
    ("trie remove prunes", `Quick, test_trie_remove_prunes);
    ("trie remove keeps others", `Quick, test_trie_remove_keeps_others);
    ("trie to_list order", `Quick, test_trie_to_list_order);
    ("trie covered_by", `Quick, test_trie_covered_by);
    QCheck_alcotest.to_alcotest prop_trie_matches_naive_longest_match;
    QCheck_alcotest.to_alcotest prop_trie_queries_match_naive_filter;
    ("trie matches the boxed reference", `Quick, test_trie_matches_reference);
    ("trie allocation", `Quick, test_trie_allocation);
    ("free blocks paper example", `Quick, test_free_blocks_paper_example);
    ("free blocks empty/full", `Quick, test_free_blocks_empty_and_full);
    ("free blocks ignores outside", `Quick, test_free_blocks_ignores_outside);
    ("is_free", `Quick, test_is_free);
    ("candidates", `Quick, test_candidates);
    ("free count", `Quick, test_free_count);
    QCheck_alcotest.to_alcotest prop_free_blocks_disjoint_and_complete;
  ]
