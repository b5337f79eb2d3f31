(* Differential tests for the maintained SPF cache — randomized seeded
   fail/restore schedules, asserting after every delta that the
   in-place-repaired BFS trees match the from-scratch masked kernel — plus
   the arena-backed state representations (Packed_map, Grib_arena,
   Tree_arena) against naive oracles. *)

let check = Alcotest.check
let int_array = Alcotest.array Alcotest.int

let topologies seed =
  let pl = Gen.power_law ~rng:(Rng.create seed) ~n:180 ~m:2 in
  let ts =
    Gen.transit_stub ~rng:(Rng.create seed) ~backbones:3 ~regionals_per_backbone:4
      ~stubs_per_regional:5
  in
  [ ("power_law", pl); ("transit_stub", ts) ]

(* Does the snapshot hold an alive edge between [u] and [v]? *)
let edge_alive csr alive u v =
  let found = ref false in
  for k = csr.Topo.row.(u) to csr.Topo.row.(u + 1) - 1 do
    if
      csr.Topo.nbr.(k) = v
      && (Array.length alive = 0 || alive.(csr.Topo.eid.(k)))
    then found := true
  done;
  !found

(* A repaired BFS tree need not pick the oracle's parents (ties break
   by repair order), so assert the strong property that holds: equal
   dist everywhere, and every parent edge is alive and one hop
   closer. *)
let assert_bfs name csr alive (oracle : Spf.paths) (p : Spf.paths) =
  check int_array (name ^ " dist") oracle.Spf.dist p.Spf.dist;
  for v = 0 to csr.Topo.csr_nodes - 1 do
    if v <> p.Spf.src && p.Spf.dist.(v) <> max_int then begin
      let u = p.Spf.via.(v) in
      if u < 0 || not (edge_alive csr alive u v) then
        Alcotest.failf "%s: via(%d)=%d is not an alive edge" name v u;
      if p.Spf.dist.(u) + 1 <> p.Spf.dist.(v) then
        Alcotest.failf "%s: via(%d)=%d is not one hop closer" name v u
    end
  done

(* Warm the trees of [srcs], then walk a seeded fail/restore schedule;
   after every transition the maintained trees must match the
   from-scratch kernel run under the mask the schedule has applied so
   far, which the test tracks itself rather than reading the cache's. *)
let run_schedule ~name ~seed ~topo ~steps =
  let csr = Topo.freeze topo in
  let cache = Spf.make_cache_csr csr in
  let n = csr.Topo.csr_nodes in
  let nlinks = Array.length csr.Topo.linkv in
  let alive = Array.make nlinks true in
  let rng = Rng.create seed in
  let srcs = ref (List.init 3 (fun _ -> Rng.int rng n)) in
  let warm s = ignore (Spf.bfs_cached cache s) in
  List.iter warm !srcs;
  let verify step =
    List.iter
      (fun s ->
        let tag = Printf.sprintf "%s/step%d/src%d bfs" name step s in
        assert_bfs tag csr alive (Spf.bfs_csr ~alive csr s) (Spf.bfs_cached cache s))
      !srcs
  in
  for step = 1 to steps do
    let lid = Rng.int rng nlinks in
    let l = csr.Topo.linkv.(lid) in
    let up = not alive.(lid) in
    alive.(lid) <- up;
    Spf.cache_note_link cache ~a:l.Topo.a ~b:l.Topo.b ~up;
    (* Halfway through, demand a tree the cache has never seen: cold
       builds under a partially failed mask must agree too. *)
    if step = steps / 2 then begin
      let s = Rng.int rng n in
      if not (List.mem s !srcs) then begin
        warm s;
        srcs := s :: !srcs
      end
    end;
    verify step
  done;
  let repairs, touched = Spf.cache_repair_stats cache in
  if repairs = 0 then Alcotest.fail (name ^ ": schedule repaired nothing");
  if touched = 0 then Alcotest.fail (name ^ ": repairs touched no labels")

let test_incremental_matches_scratch () =
  List.iter
    (fun seed ->
      List.iter
        (fun (tname, topo) ->
          run_schedule
            ~name:(Printf.sprintf "%s/%d" tname seed)
            ~seed:(seed * 13 + 5) ~topo ~steps:30)
        (topologies seed))
    [ 7; 42; 1998 ]

(* After churn and a reset the cache must read like a fresh one: every
   tree it serves is the all-alive tree, and each source misses once. *)
let test_cache_reset () =
  List.iter
    (fun (tname, topo) ->
      let csr = Topo.freeze topo in
      let n = csr.Topo.csr_nodes in
      let cache = Spf.make_cache_csr csr in
      let rng = Rng.create 31 in
      for s = 0 to 19 do
        ignore (Spf.bfs_cached cache (s mod 10 * n / 10))
      done;
      for _ = 1 to 40 do
        let l = csr.Topo.linkv.(Rng.int rng (Array.length csr.Topo.linkv)) in
        Spf.cache_note_link cache ~a:l.Topo.a ~b:l.Topo.b ~up:(Test_util.coin rng)
      done;
      Spf.cache_reset cache;
      check Alcotest.(pair int int) (tname ^ " repair stats after reset") (0, 0)
        (Spf.cache_repair_stats cache);
      let counts =
        Test_spf_equiv.cache_counts (fun () ->
            for s = 0 to n - 1 do
              let tag = Printf.sprintf "%s/reset/src%d" tname s in
              let oracle = Spf.bfs_csr csr s and p = Spf.bfs_cached cache s in
              check int_array (tag ^ " dist") oracle.Spf.dist p.Spf.dist;
              check int_array (tag ^ " via") oracle.Spf.via p.Spf.via
            done)
      in
      check Alcotest.(pair int int) (tname ^ " one miss per source") (0, n) counts)
    (topologies 9)

let test_note_link_noops () =
  let topo = Gen.power_law ~rng:(Rng.create 3) ~n:60 ~m:2 in
  let cache = Spf.make_cache topo in
  let base = Spf.bfs_cached cache 0 in
  let d0 = Array.copy base.Spf.dist in
  (* Unknown pair: not a link of the snapshot. *)
  Spf.cache_note_link cache ~a:0 ~b:59 ~up:false;
  Spf.cache_note_link cache ~a:0 ~b:0 ~up:false;
  (* Transition to the state the link is already in. *)
  let l = (Topo.freeze topo).Topo.linkv.(0) in
  Spf.cache_note_link cache ~a:l.Topo.a ~b:l.Topo.b ~up:true;
  check int_array "no-op deltas leave dist alone" d0 base.Spf.dist;
  let repairs, touched = Spf.cache_repair_stats cache in
  check Alcotest.int "no repairs recorded" 0 repairs;
  check Alcotest.int "no labels touched" 0 touched

(* ---------------- arenas --------------------------------------------- *)

(* [set] against a Hashtbl, with a [clear] partway through. *)
let test_packed_map_oracle () =
  let m = Packed_map.create () in
  let oracle = Hashtbl.create 64 in
  let rng = Rng.create 2024 in
  let agree tag =
    Hashtbl.iter
      (fun k v -> check Alcotest.int (Printf.sprintf "%s find %d" tag k) v (Packed_map.find m k))
      oracle;
    for k = 0 to 699 do
      if not (Hashtbl.mem oracle k) then begin
        check Alcotest.int (Printf.sprintf "%s absent %d" tag k) (-1) (Packed_map.find m k)
      end
    done
  in
  for step = 1 to 8000 do
    let k = Rng.int rng 700 in
    let v = Rng.int rng 1000 in
    Packed_map.set m k v;
    Hashtbl.replace oracle k v;
    if step = 4000 then begin
      agree "before clear";
      Packed_map.clear m;
      Hashtbl.reset oracle;
      check Alcotest.int "find after clear" (-1) (Packed_map.find m 17)
    end
  done;
  agree "end"

(* [-1] is the empty-slot marker, so it must never look like a key. *)
let test_packed_map_negative_key_absent () =
  let m = Packed_map.create () in
  check Alcotest.int "find -1 on empty" (-1) (Packed_map.find m (-1));
  check Alcotest.int "find -7 on empty" (-1) (Packed_map.find m (-7));
  Packed_map.set m 5 9;
  check Alcotest.int "find -1 with entries" (-1) (Packed_map.find m (-1));
  check Alcotest.int "entry intact" 9 (Packed_map.find m 5)

let test_packed_map_rejects_negative () =
  let m = Packed_map.create () in
  Alcotest.check_raises "negative key"
    (Invalid_argument "Packed_map.set: negative key or value") (fun () ->
      Packed_map.set m (-1) 0);
  Alcotest.check_raises "negative value"
    (Invalid_argument "Packed_map.set: negative key or value") (fun () ->
      Packed_map.set m 0 (-1))

(* What [Grib_arena.find] answers for a router with no entry. *)
let no_entry = -2

let test_grib_arena () =
  let g = Grib_arena.create ~domains:10 () in
  check Alcotest.int "empty" no_entry (Grib_arena.find g ~group:0 ~node:0);
  Grib_arena.set g ~group:0 ~node:3 7;
  Grib_arena.set g ~group:5 ~node:3 2;
  Grib_arena.set g ~group:5 ~node:9 (-1);
  check Alcotest.int "hop" 7 (Grib_arena.find g ~group:0 ~node:3);
  check Alcotest.int "root entry" (-1) (Grib_arena.find g ~group:5 ~node:9);
  check Alcotest.int "entries" 3 (Grib_arena.entries g);
  check Alcotest.int "node 3 holds two" 2 (Grib_arena.node_entries g 3);
  Grib_arena.set g ~group:0 ~node:3 8;
  check Alcotest.int "overwrite keeps count" 2 (Grib_arena.node_entries g 3);
  check Alcotest.int "overwrite value" 8 (Grib_arena.find g ~group:0 ~node:3);
  Grib_arena.clear g;
  check Alcotest.int "cleared" no_entry (Grib_arena.find g ~group:0 ~node:3);
  check Alcotest.int "count cleared" 0 (Grib_arena.node_entries g 3)

(* [steps] random installs and overwrites on a G-RIB arena. *)
let grib_history g rng ~steps =
  for _ = 1 to steps do
    let group = Rng.int rng 12 and node = Rng.int rng 30 in
    if Rng.int rng 3 <> 0 then Grib_arena.set g ~group ~node (Rng.int rng 31 - 1)
  done

(* [steps] random joins and leaves, at most 40 members live at once. *)
let tree_history t rng ~steps =
  let live = Array.make 40 (-1, -1) in
  let buf = Array.make 12 0 in
  for _ = 1 to steps do
    let slot = Rng.int rng (Array.length live) in
    match live.(slot) with
    | -1, _ ->
        let len = 1 + Rng.int rng (Array.length buf) in
        for j = 0 to len - 1 do
          buf.(j) <- Rng.int rng 30
        done;
        let group = Rng.int rng 15 in
        live.(slot) <- (group, Tree_arena.join t ~group ~path:buf ~len)
    | group, h ->
        Tree_arena.leave t ~group h;
        live.(slot) <- (-1, -1)
  done

(* An arena cleared after one random history and fed a second must
   answer exactly as a fresh arena fed only the second. *)
let test_arenas_clear_like_fresh () =
  List.iter
    (fun seed ->
      let g = Grib_arena.create ~domains:30 () in
      grib_history g (Rng.create seed) ~steps:3000;
      Grib_arena.clear g;
      grib_history g (Rng.create (seed + 1)) ~steps:1500;
      let fresh = Grib_arena.create ~domains:30 () in
      grib_history fresh (Rng.create (seed + 1)) ~steps:1500;
      check Alcotest.int "grib entries" (Grib_arena.entries fresh) (Grib_arena.entries g);
      for node = 0 to 29 do
        check Alcotest.int "grib node entries" (Grib_arena.node_entries fresh node)
          (Grib_arena.node_entries g node);
        for group = 0 to 11 do
          check Alcotest.int "grib hop" (Grib_arena.find fresh ~group ~node)
            (Grib_arena.find g ~group ~node)
        done
      done;
      let t = Tree_arena.create ~domains:30 () in
      tree_history t (Rng.create seed) ~steps:3000;
      Tree_arena.clear t;
      tree_history t (Rng.create (seed + 1)) ~steps:1500;
      let fresh = Tree_arena.create ~domains:30 () in
      tree_history fresh (Rng.create (seed + 1)) ~steps:1500;
      check Alcotest.int "tree entries" (Tree_arena.entries fresh) (Tree_arena.entries t);
      check Alcotest.int "live paths" (Tree_arena.live_paths fresh) (Tree_arena.live_paths t);
      for node = 0 to 29 do
        check Alcotest.int "tree node entries" (Tree_arena.node_entries fresh node)
          (Tree_arena.node_entries t node);
        for group = 0 to 14 do
          check Alcotest.int "refs" (Tree_arena.refs fresh ~group ~node)
            (Tree_arena.refs t ~group ~node)
        done
      done)
    [ 5; 77; 1998 ]

let spent = Invalid_argument "Tree_arena.leave: handle spent or group mismatch"

let test_tree_arena_refcounts () =
  let t = Tree_arena.create ~domains:6 () in
  let join group path = Tree_arena.join t ~group ~path ~len:(Array.length path) in
  let h1 = join 4 [| 0; 1; 2 |] in
  let h2 = join 4 [| 0; 1; 3 |] in
  check Alcotest.int "shared prefix refcount" 2 (Tree_arena.refs t ~group:4 ~node:1);
  check Alcotest.int "leaf refcount" 1 (Tree_arena.refs t ~group:4 ~node:3);
  check Alcotest.int "entries are distinct (group,node)" 4 (Tree_arena.entries t);
  check Alcotest.int "router 1 holds one group" 1 (Tree_arena.node_entries t 1);
  Tree_arena.leave t ~group:4 h1;
  check Alcotest.int "prefix survives the other member" 1 (Tree_arena.refs t ~group:4 ~node:1);
  check Alcotest.int "branch torn down" 0 (Tree_arena.refs t ~group:4 ~node:2);
  check Alcotest.int "entries after leave" 3 (Tree_arena.entries t);
  Alcotest.check_raises "handle spent" spent (fun () -> Tree_arena.leave t ~group:4 h1);
  Alcotest.check_raises "group mismatch" spent (fun () -> Tree_arena.leave t ~group:5 h2);
  Tree_arena.leave t ~group:4 h2;
  check Alcotest.int "empty again" 0 (Tree_arena.entries t);
  check Alcotest.int "router count drained" 0 (Tree_arena.node_entries t 1);
  Alcotest.check_raises "refs of a negative group"
    (Invalid_argument "Tree_arena.refs: negative group") (fun () ->
      ignore (Tree_arena.refs t ~group:(-1) ~node:0))

let test_tree_arena_recycles_blocks () =
  let t = Tree_arena.create ~domains:8 () in
  (* [len] reads a prefix of a caller-owned buffer; what lies past it
     (here an out-of-range node) is never looked at. *)
  let buf = [| 0; 1; 2; 99 |] in
  let h1 = Tree_arena.join t ~group:3 ~path:buf ~len:3 in
  check Alcotest.int "only the prefix installed" 3 (Tree_arena.entries t);
  Alcotest.check_raises "len past the buffer" (Invalid_argument "Tree_arena.join: len exceeds path")
    (fun () -> ignore (Tree_arena.join t ~group:3 ~path:buf ~len:5));
  Tree_arena.leave t ~group:3 h1;
  check Alcotest.int "no live paths" 0 (Tree_arena.live_paths t);
  let words = Tree_arena.storage_words t in
  buf.(0) <- 5;
  buf.(1) <- 6;
  buf.(2) <- 7;
  let h2 = Tree_arena.join t ~group:3 ~path:buf ~len:3 in
  check Alcotest.int "same-length join reuses the block" words (Tree_arena.storage_words t);
  check Alcotest.int "one live path" 1 (Tree_arena.live_paths t);
  Alcotest.check_raises "stale handle of the reused block" spent (fun () ->
      Tree_arena.leave t ~group:3 h1);
  Alcotest.check_raises "group mismatch on the reused block" spent (fun () ->
      Tree_arena.leave t ~group:4 h2);
  check Alcotest.int "refused leaves changed nothing" 1 (Tree_arena.refs t ~group:3 ~node:6);
  Tree_arena.leave t ~group:3 h2;
  check Alcotest.int "recycled path torn down" 0 (Tree_arena.entries t);
  Alcotest.check_raises "second leave of the recycled receipt" spent (fun () ->
      Tree_arena.leave t ~group:3 h2)

let test_tree_arena_storage_tracks_live () =
  (* 100k join/leave pairs with at most 50 members live: an append-only
     pool would hold ~750k words; a recycled one holds a few blocks per
     path length. *)
  let domains = 64 in
  let t = Tree_arena.create ~domains () in
  let rng = Rng.create 22 in
  let live = Array.make 50 (-1, -1) in
  let buf = Array.make 10 0 in
  for _ = 1 to 100_000 do
    let slot = Rng.int rng (Array.length live) in
    (match live.(slot) with
    | -1, _ -> ()
    | group, h -> Tree_arena.leave t ~group h);
    let len = 1 + Rng.int rng (Array.length buf) in
    for j = 0 to len - 1 do
      buf.(j) <- Rng.int rng domains
    done;
    let group = Rng.int rng 20 in
    live.(slot) <- (group, Tree_arena.join t ~group ~path:buf ~len)
  done;
  check Alcotest.int "live paths" 50 (Tree_arena.live_paths t);
  let words = Tree_arena.storage_words t in
  check Alcotest.bool (Printf.sprintf "storage %d words <= 8192" words) true (words <= 8192);
  Array.iter (fun (group, h) -> Tree_arena.leave t ~group h) live;
  check Alcotest.int "drained" 0 (Tree_arena.entries t)

(* An operation's result, or the message it was refused with. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* Seeded histories of joins, leaves and clears on the per-group
   arena and on its global-table reference ([Tree_arena_reference]):
   paths with repeated nodes, joins refused for a bad group, length or
   node, leaves of live, spent and mismatched handles and of handles
   no join issued.
   After every step both must answer alike: every return value and
   refusal, [entries], [live_paths], [node_entries] and [refs] of every
   (group, node) pair, including groups past any the arena has seen. *)
let test_tree_arena_matches_reference () =
  for seed = 1 to 250 do
    let rng = Rng.create seed in
    let domains = 1 + Rng.int rng 24 and groups = 1 + Rng.int rng 12 in
    let t = Tree_arena.create ~domains () and r = Tree_arena_reference.create ~domains () in
    let live = ref [] and spent = ref [] in
    let pick l = List.nth l (Rng.int rng (List.length l)) in
    let buf = Array.make 16 0 in
    for step = 1 to 300 do
      let ( =? ) what (a, b) = if a <> b then Alcotest.failf "seed %d step %d: %s" seed step what in
      (match Rng.int rng 40 with
      | 0 ->
          Tree_arena.clear t;
          Tree_arena_reference.clear r;
          live := [];
          spent := []
      | k when k < 22 ->
          let len = if Rng.int rng 25 = 0 then Rng.int rng 18 else 1 + Rng.int rng 12 in
          (* a narrow node range makes repeated nodes common *)
          let span = if Test_util.coin rng then domains else min domains 3 in
          for j = 0 to Array.length buf - 1 do
            buf.(j) <- Rng.int rng span
          done;
          if Rng.int rng 25 = 0 then buf.(Rng.int rng (max 1 len)) <- domains;
          let group = if Rng.int rng 25 = 0 then -1 else Rng.int rng groups in
          let a = outcome (fun () -> Tree_arena.join t ~group ~path:buf ~len) in
          "join" =? (a, outcome (fun () -> Tree_arena_reference.join r ~group ~path:buf ~len));
          Result.iter (fun h -> live := (group, h) :: !live) a
      | _ ->
          let group, h =
            match Rng.int rng 6 with
            | 0 | 1 | 2 when !live <> [] -> pick !live
            | 3 when !live <> [] ->
                let group, h = pick !live in
                ((group + 1 + Rng.int rng groups) mod (groups + 1), h)
            | 4 when !spent <> [] -> pick !spent
            | _ ->
                (* a handle no join could have issued: negative, or
                   past the end of the pool *)
                let h = Rng.int rng 40 - 20 in
                (Rng.int rng groups, if h < 0 then h else (1 lsl 31) + h)
          in
          let a = outcome (fun () -> Tree_arena.leave t ~group h) in
          "leave" =? (a, outcome (fun () -> Tree_arena_reference.leave r ~group h));
          if Result.is_ok a then begin
            live := List.filter (fun x -> x <> (group, h)) !live;
            spent := (group, h) :: !spent
          end);
      "entries" =? (Tree_arena.entries t, Tree_arena_reference.entries r);
      "live paths" =? (Tree_arena.live_paths t, Tree_arena_reference.live_paths r);
      for node = -1 to domains do
        "node entries"
        =? ( outcome (fun () -> Tree_arena.node_entries t node),
             outcome (fun () -> Tree_arena_reference.node_entries r node) )
      done;
      for group = -1 to groups + 1 do
        for node = -1 to domains do
          "refs"
          =? ( outcome (fun () -> Tree_arena.refs t ~group ~node),
               outcome (fun () -> Tree_arena_reference.refs r ~group ~node) )
        done
      done
    done
  done

(* Fabricated receipts against a live arena.  A seeded history of
   joins and leaves leaves live and free blocks in the path pool; then
   [leave] is offered a handle at every pool offset, with every
   generation from -1 to one past the largest a join handed out or a
   node id could spell (so g-1, g and g+1 of every real one), for every
   group a pool word can hold (small ids, and every block offset a free
   link can name).  Each try must be refused with [Invalid_argument]
   unless it is a real receipt, which is not tried; afterwards the arena
   must answer exactly as its reference, which saw only the history. *)
let test_tree_arena_refuses_fabricated_handles () =
  for seed = 1 to 10 do
    let rng = Rng.create seed in
    let domains = 4 + Rng.int rng 8 and groups = 1 + Rng.int rng 4 in
    let t = Tree_arena.create ~domains () and r = Tree_arena_reference.create ~domains () in
    let live = ref [] and offsets = ref [] and pool_words = ref 0 and top_gen = ref 0 in
    let buf = Array.make 8 0 in
    for _ = 1 to 50 do
      if !live = [] || Rng.int rng 3 > 0 then begin
        let len = 1 + Rng.int rng 6 and group = Rng.int rng groups in
        for j = 0 to len - 1 do
          buf.(j) <- Rng.int rng domains
        done;
        let h = Tree_arena.join t ~group ~path:buf ~len in
        check Alcotest.int "same receipt as the reference" h
          (Tree_arena_reference.join r ~group ~path:buf ~len);
        live := (group, h) :: !live;
        offsets := (h land ((1 lsl 32) - 1)) :: !offsets;
        top_gen := max !top_gen (h lsr 32);
        pool_words := !pool_words + len + 3
      end
      else begin
        let group, h = List.nth !live (Rng.int rng (List.length !live)) in
        Tree_arena.leave t ~group h;
        Tree_arena_reference.leave r ~group h;
        live := List.filter (fun x -> x <> (group, h)) !live
      end
    done;
    let small = List.init (max domains 8 + 1) (fun g -> g - 1) in
    let tries_groups = List.sort_uniq compare (small @ !offsets) in
    for b = 0 to !pool_words do
      for gen = -1 to max !top_gen domains + 1 do
        let h = (gen lsl 32) lor b in
        List.iter
          (fun group ->
            if not (List.mem (group, h) !live) then
              match Tree_arena.leave t ~group h with
              | () ->
                  Alcotest.failf "seed %d: leave accepted offset %d, generation %d, group %d"
                    seed b gen group
              | exception Invalid_argument _ -> ())
          tries_groups
      done
    done;
    check Alcotest.int "entries" (Tree_arena_reference.entries r) (Tree_arena.entries t);
    check Alcotest.int "live paths" (Tree_arena_reference.live_paths r) (Tree_arena.live_paths t);
    for node = 0 to domains - 1 do
      check Alcotest.int "node entries" (Tree_arena_reference.node_entries r node)
        (Tree_arena.node_entries t node);
      for group = 0 to groups - 1 do
        check Alcotest.int "refs" (Tree_arena_reference.refs r ~group ~node)
          (Tree_arena.refs t ~group ~node)
      done
    done;
    List.iter (fun (group, h) -> Tree_arena.leave t ~group h) !live;
    check Alcotest.int "real receipts still drain the arena" 0 (Tree_arena.entries t)
  done

(* Seeded histories of sets (new entries, overwrites, refused hops),
   removes, lookups and clears on the G-RIB arena against a Hashtbl
   holding the same (group, node) -> hop entries. *)
let test_grib_arena_matches_hashtbl () =
  for seed = 1 to 200 do
    let rng = Rng.create seed in
    let domains = 1 + Rng.int rng 20 and groups = 1 + Rng.int rng 10 in
    let g = Grib_arena.create ~domains () and h = Hashtbl.create 64 in
    let valid ~group ~node =
      if group < 0 then invalid_arg "Grib_arena: negative group id";
      if node < 0 || node >= domains then invalid_arg "Grib_arena: unknown node id"
    in
    let find ~group ~node =
      valid ~group ~node;
      Option.value (Hashtbl.find_opt h (group, node)) ~default:no_entry
    in
    for step = 1 to 300 do
      let ( =? ) what (a, b) = if a <> b then Alcotest.failf "seed %d step %d: %s" seed step what in
      let group = if Rng.int rng 30 = 0 then -1 else Rng.int rng groups in
      let node = Rng.int rng (domains + 2) - 1 in
      (match Rng.int rng 30 with
      | 0 ->
          Grib_arena.clear g;
          Hashtbl.reset h
      | k when k < 18 ->
          let hop = Rng.int rng (domains + 3) - 2 in
          "set"
          =? ( outcome (fun () -> Grib_arena.set g ~group ~node hop),
               outcome (fun () ->
                   if hop < -1 || hop >= domains then invalid_arg "Grib_arena.set: bad next hop";
                   valid ~group ~node;
                   Hashtbl.replace h (group, node) hop) )
      | _ ->
          "mem"
          =? ( outcome (fun () -> Grib_arena.mem g ~group ~node),
               outcome (fun () -> find ~group ~node <> no_entry) ));
      "entries" =? (Grib_arena.entries g, Hashtbl.length h);
      for node = -1 to domains do
        "node entries"
        =? ( outcome (fun () -> Grib_arena.node_entries g node),
             outcome (fun () ->
                 valid ~group:0 ~node;
                 Hashtbl.fold (fun (_, v) _ n -> if v = node then n + 1 else n) h 0) );
        for group = -1 to groups + 1 do
          "find"
          =? (outcome (fun () -> Grib_arena.find g ~group ~node), outcome (fun () -> find ~group ~node))
        done
      done
    done
  done

(* 200k joins and leaves over 500 groups with at most 40 members live:
   nearly every join opens a group with no table, and nearly every
   leave empties one.  Tables freed by a group's last leave are reused,
   so after warm-up the arena stays under a fixed bound; without reuse
   every table ever opened would stay in the pool (~2M words). *)
let test_tree_arena_reuses_group_tables () =
  let domains = 64 in
  let t = Tree_arena.create ~domains () in
  let rng = Rng.create 37 in
  let live = Array.make 40 (-1, -1) in
  let buf = Array.make 10 0 in
  let peak = ref 0 in
  for step = 1 to 200_000 do
    let slot = Rng.int rng (Array.length live) in
    (match live.(slot) with
    | -1, _ -> ()
    | group, h -> Tree_arena.leave t ~group h);
    let len = 1 + Rng.int rng (Array.length buf) in
    for j = 0 to len - 1 do
      buf.(j) <- Rng.int rng domains
    done;
    let group = Rng.int rng 500 in
    live.(slot) <- (group, Tree_arena.join t ~group ~path:buf ~len);
    if step > 20_000 then peak := max !peak (Tree_arena.storage_words t)
  done;
  check Alcotest.bool (Printf.sprintf "storage %d words <= 8192 after warm-up" !peak) true
    (!peak <= 8192);
  Array.iter (fun (group, h) -> Tree_arena.leave t ~group h) live;
  check Alcotest.int "drained" 0 (Tree_arena.entries t)

let test_csr_rebuild_counter () =
  let c = Metrics.counter "topo.csr_rebuilds" in
  let topo = Topo_fixtures.line ~n:6 in
  let before = Metrics.count c in
  ignore (Topo.freeze topo);
  ignore (Topo.freeze topo);
  check Alcotest.int "memoized freeze rebuilds once" (before + 1) (Metrics.count c);
  Topo.add_link topo 0 5 Topo.Peer;
  ignore (Topo.freeze topo);
  check Alcotest.int "mutation forces one more rebuild" (before + 2) (Metrics.count c)

(* fig4-modern end to end under both route-maintenance modes.  Without
   link churn both serve the same trees, so the tables are identical.
   Under churn, repaired trees may break distance ties differently from
   recomputed ones, so forwarding-entry and G-RIB counts can differ;
   reachability cannot, so every join is installed or skipped alike and
   live membership agrees at each checkpoint. *)
let test_modern_scratch_agrees () =
  let open Modern_experiment in
  let run ~mode ~link_every =
    run { default_params with domains = 600; groups = 50; events = 1500; link_every; mode; jobs = 1 }
  in
  let table r = Format.asprintf "%a" pp_summary r in
  check Alcotest.string "no churn: identical tables"
    (table (run ~mode:Incremental ~link_every:0))
    (table (run ~mode:Scratch ~link_every:0));
  let inc = run ~mode:Incremental ~link_every:100 and scr = run ~mode:Scratch ~link_every:100 in
  let members r = List.map (fun ck -> (ck.ck_events, ck.ck_members)) r.checkpoints in
  check Alcotest.(list (pair int (float 0.0))) "live members per checkpoint" (members inc) (members scr);
  let counts r = [ r.joins; r.leaves; r.skipped; r.link_events ] in
  check Alcotest.(list int) "joins, leaves, unreachable, link events" (counts inc) (counts scr);
  check Alcotest.bool "incremental repairs" true (inc.repairs > 0);
  check Alcotest.(pair int int) "scratch repairs nothing" (0, 0) (scr.repairs, scr.touched);
  let entries r = List.map (fun ck -> ck.ck_entries) r.checkpoints in
  check Alcotest.bool "scratch reroutes around toggled links" false
    (entries scr = entries (run ~mode:Scratch ~link_every:0))

(* Each Par worker reuses its arenas and SPF cache across the trials it
   runs (all five at jobs 1, two or three at jobs 2, one at jobs 5), so
   equal results show that the reset state is indistinguishable from
   fresh state. *)
let test_modern_reuse_job_invariant () =
  let open Modern_experiment in
  let run jobs =
    run
      {
        default_params with
        domains = 600;
        groups = 50;
        events = 1500;
        link_every = 50;
        trials = 5;
        mode = Incremental;
        check_invariants = true;
        jobs;
      }
  in
  let r1 = run 1 in
  check Alcotest.bool "churn repaired trees" true (r1.repairs > 0);
  check Alcotest.int "invariants clean" 0 r1.invariant_violations;
  let text r =
    Format.asprintf "%a%d %d %d %d" pp_summary r r.repairs r.touched r.skipped
      r.invariant_violations
  in
  List.iter
    (fun jobs ->
      check Alcotest.string (Printf.sprintf "jobs %d = jobs 1" jobs) (text r1) (text (run jobs)))
    [ 2; 5 ]

let suite =
  [
    ("incremental matches from-scratch", `Quick, test_incremental_matches_scratch);
    ("fig4-modern scratch agrees", `Quick, test_modern_scratch_agrees);
    ("fig4-modern trial reuse is job-invariant", `Quick, test_modern_reuse_job_invariant);
    ("note_link no-ops", `Quick, test_note_link_noops);
    ("cache reset reads like a fresh cache", `Quick, test_cache_reset);
    ("packed map vs hashtbl oracle", `Quick, test_packed_map_oracle);
    ("packed map rejects negatives", `Quick, test_packed_map_rejects_negative);
    ("packed map negative keys are absent", `Quick, test_packed_map_negative_key_absent);
    ("grib arena", `Quick, test_grib_arena);
    ("arenas cleared read like fresh", `Quick, test_arenas_clear_like_fresh);
    ("tree arena refcounts", `Quick, test_tree_arena_refcounts);
    ("tree arena recycles blocks", `Quick, test_tree_arena_recycles_blocks);
    ("tree arena storage tracks live paths", `Quick, test_tree_arena_storage_tracks_live);
    ("tree arena matches its global-table reference", `Quick, test_tree_arena_matches_reference);
    ("tree arena refuses fabricated handles", `Quick, test_tree_arena_refuses_fabricated_handles);
    ("grib arena matches a hashtbl", `Quick, test_grib_arena_matches_hashtbl);
    ("tree arena reuses freed group tables", `Quick, test_tree_arena_reuses_group_tables);
    ("csr rebuild counter", `Quick, test_csr_rebuild_counter);
  ]
