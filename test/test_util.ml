(* Tests for mcast_util: deterministic RNG, binary heap, statistics. *)

let check = Alcotest.check

(* --- Rng ------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_split_independent () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  let xs = List.init 32 (fun _ -> Rng.int64 a) in
  let ys = List.init 32 (fun _ -> Rng.int64 b) in
  check Alcotest.bool "split streams differ" false (xs = ys)

let test_rng_reseed_in_place () =
  let a = Rng.create 5 in
  ignore (Rng.int64 a);
  Rng.reseed a 9;
  let b = Rng.create 9 in
  check Alcotest.int64 "reseed = create" (Rng.int64 b) (Rng.int64 a);
  let src = Rng.create 13 and src' = Rng.create 13 in
  let dst = Rng.create 0 in
  Rng.split_into src dst;
  let fresh = Rng.split src' in
  check Alcotest.int64 "split_into = split" (Rng.int64 fresh) (Rng.int64 dst);
  check Alcotest.int64 "source advanced alike" (Rng.int64 src') (Rng.int64 src)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check Alcotest.bool "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let r = Rng.create 3 in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.create 5 in
  for _ = 1 to 500 do
    let v = Rng.int_in r (-3) 3 in
    check Alcotest.bool "in [-3,3]" true (v >= -3 && v <= 3)
  done

let test_rng_float_range () =
  let r = Rng.create 9 in
  for _ = 1 to 500 do
    let v = Rng.float r 2.5 in
    check Alcotest.bool "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_float_mean () =
  let r = Rng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float r 1.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "uniform mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_rng_pick () =
  let r = Rng.create 21 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    check Alcotest.bool "picked element" true (Array.mem (Rng.pick r a) a)
  done

(* The hash-set implementation the stamp array replaced, kept as the
   oracle for the draw sequence: same draws, same order.  Its shuffle is
   its own Fisher-Yates loop over [Rng.int], sharing no code with the
   sampler it checks. *)
let sample_reference t k n =
  if 2 * k >= n then begin
    let a = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Rng.int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 k
  end else begin
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = Rng.int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end

let test_rng_sample_matches_reference () =
  (* Interleaved sizes, so the stamp array is reused across calls and
     grown mid-sequence; both branches are exercised. *)
  let a = Rng.create 31 and b = Rng.create 31 in
  List.iter
    (fun (k, n) ->
      check (Alcotest.array Alcotest.int)
        (Printf.sprintf "k=%d n=%d" k n)
        (sample_reference b k n)
        (Rng.sample_without_replacement a k n))
    [ (10, 100); (3, 7); (40, 100); (0, 5); (101, 3326); (1, 2); (501, 1000); (10, 100);
      (200, 75000); (1001, 3326); (5, 10); (2, 100) ];
  check Alcotest.int "streams stay in step" (Rng.int b (1 lsl 30)) (Rng.int a (1 lsl 30))

(* [sample_into] draws what [sample_without_replacement] draws and
   leaves the stream where it leaves it, on the sparse (2k < n) and the
   dense branch, for k = 0, n/2 and n; the rest of the destination is
   untouched. *)
let test_rng_sample_into_matches () =
  List.iter
    (fun (k, n) ->
      let a = Rng.create (k + (7 * n)) in
      let b = Rng.copy a in
      let dst = Array.make (k + 3) (-1) in
      Rng.sample_into a k n dst;
      let label = Printf.sprintf "k=%d n=%d" k n in
      check (Alcotest.array Alcotest.int) label
        (Rng.sample_without_replacement b k n)
        (Array.sub dst 0 k);
      check (Alcotest.array Alcotest.int) (label ^ ": tail untouched") [| -1; -1; -1 |]
        (Array.sub dst k 3);
      check Alcotest.int (label ^ ": streams stay in step") (Rng.int b (1 lsl 30)) (Rng.int a (1 lsl 30)))
    [ (0, 0); (0, 9); (4, 9); (9, 9); (0, 100); (50, 100); (100, 100); (0, 3326); (1663, 3326);
      (3326, 3326); (49, 100); (3, 7) ];
  Alcotest.check_raises "destination too short" (Invalid_argument "Rng.sample_into") (fun () ->
      Rng.sample_into (Rng.create 1) 5 10 (Array.make 4 0))

let test_rng_sample_without_replacement () =
  let r = Rng.create 29 in
  let s = Rng.sample_without_replacement r 10 100 in
  check Alcotest.int "10 draws" 10 (Array.length s);
  let tbl = Hashtbl.create 10 in
  Array.iter
    (fun v ->
      check Alcotest.bool "in range" true (v >= 0 && v < 100);
      check Alcotest.bool "distinct" false (Hashtbl.mem tbl v);
      Hashtbl.add tbl v ())
    s;
  (* The dense path (k close to n). *)
  let s2 = Rng.sample_without_replacement r 99 100 in
  let tbl2 = Hashtbl.create 99 in
  Array.iter (fun v -> Hashtbl.replace tbl2 v ()) s2;
  check Alcotest.int "99 distinct" 99 (Hashtbl.length tbl2)

(* Known answers pinned from the record-of-int64 implementation that the
   unboxed [Bytes.t] state replaced: every stream below must stay
   bit-identical, or every seeded golden in the repository moves. *)
(* A fair coin from the raw stream: the low bit of the next output. *)
let coin r = Int64.logand (Rng.int64 r) 1L = 1L

let test_rng_known_answers () =
  let int64s seed =
    let r = Rng.create seed in
    List.init 8 (fun _ -> Rng.int64 r)
  in
  let i64 = Alcotest.list Alcotest.int64 and ints = Alcotest.list Alcotest.int in
  check i64 "seed 0"
    [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L; -537132696929009172L;
      1961750202426094747L; 6038094601263162090L; 3207296026000306913L; -4214222208109204676L ]
    (int64s 0);
  check i64 "seed 1"
    [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L; 8196980753821780235L;
      8195237237126968761L; -4373826470845021568L; -2262517385565684571L; -8797857673641491083L ]
    (int64s 1);
  check i64 "seed -1"
    [ -1956407806741107680L; -1612297016619662647L; 4048727598324417001L; 7862637804313477842L;
      -5431262886246717010L; -3234237927366542541L; -1058577943711170651L; 4638043754431676516L ]
    (int64s (-1));
  check i64 "seed 1998"
    [ 5567058890921189101L; -137370543221680689L; 6007817606710371584L; -9159970951653373374L;
      -7064121691524713516L; 9152707762013613526L; 9081896967753428997L; 8288258297904453007L ]
    (int64s 1998);
  (* Bounds up to 2^30 reject on 30-bit draws, larger ones on 62-bit
     draws: both branches. *)
  let ints_at bound =
    let r = Rng.create 5 in
    List.init 8 (fun _ -> Rng.int r bound)
  in
  check ints "int 1" [ 0; 0; 0; 0; 0; 0; 0; 0 ] (ints_at 1);
  check ints "int 7" [ 6; 6; 0; 0; 3; 2; 4; 4 ] (ints_at 7);
  check ints "int 2^30"
    [ 415289027; 807783507; 249869564; 106664880; 201820643; 408675724; 1058240775; 548791044 ]
    (ints_at (1 lsl 30));
  check ints "int 2^30+1"
    [ 98514379; 609131636; 143137890; 487792527; 979513315; 177355234; 178594477; 1053749178 ]
    (ints_at ((1 lsl 30) + 1));
  let r = Rng.create 3 in
  check ints "bits"
    [ 121816377; 751934434; 658176553; 78240062; 232399723; 683138509 ]
    (List.init 6 (fun _ -> Rng.int r (1 lsl 30)));
  let r = Rng.create 9 in
  check (Alcotest.list (Alcotest.float 0.0)) "float"
    [ 0x1.5d5ea5fd7ce0cp-1; 0x1.805b14bd0f5fdp-1; 0x1.0fb0af9512d62p-2; 0x1.91d319ad2e62cp-1;
      0x1.0cdacde0bd62p-2; 0x1.d56f4a5808e68p-4 ]
    (List.init 6 (fun _ -> Rng.float r 1.0));
  let r = Rng.create 9 in
  check (Alcotest.list (Alcotest.float 0.0)) "float 2.5"
    [ 0x1.b4b64f7cdc18fp+0; 0x1.e071d9ec5337cp+0; 0x1.539cdb7a578bap-1; 0x1.f647e01879fb7p+0 ]
    (List.init 4 (fun _ -> Rng.float r 2.5));
  let a = Rng.create 11 in
  let b = Rng.split a in
  check i64 "split child"
    [ -7926430521640997682L; 4919299050227587188L; 3598333411332322078L; -3267917560502510965L ]
    (List.init 4 (fun _ -> Rng.int64 b));
  check i64 "split parent"
    [ 4839782808629744545L; -6676940282306817427L; -9138258183961285136L; 3047264704176347588L ]
    (List.init 4 (fun _ -> Rng.int64 a));
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let c = Rng.copy a in
  let copied =
    [ 309689372594955804L; -1830642326893942270L; -7693578145408079413L; 8346079845500723674L ]
  in
  check i64 "copy" copied (List.init 4 (fun _ -> Rng.int64 c));
  check i64 "original unaffected by the copy" copied (List.init 4 (fun _ -> Rng.int64 a))

(* Draws allocate nothing.  [Rng.float] returns a float, which a call
   the compiler does not inline boxes: dev builds compile libraries with
   [-opaque], so there the boxed result (16 B) is all a float draw may
   cost; other profiles inline it and must show 0. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create 1998 in
  let per_draw f = Test_sim.minor_bytes_per ~n:10_000 f in
  let sink = ref 0 in
  let ints =
    per_draw (fun n ->
        for _ = 1 to n do
          sink := !sink + Rng.int r 1000 + Rng.int r ((1 lsl 30) + 1)
        done)
  in
  let floats =
    per_draw (fun n ->
        for _ = 1 to n do
          if Rng.float r 1.0 < 0.5 then incr sink
        done)
  in
  ignore (Sys.opaque_identity !sink);
  check (Alcotest.float 0.0) "Rng.int bytes per draw" 0.0 ints;
  let float_budget = if Build_profile.name = "dev" then 16.0 else 0.0 in
  check Alcotest.bool
    (Printf.sprintf "Rng.float allocates %.1f B per draw <= %.0f B (%s build)" floats float_budget
       Build_profile.name)
    true (floats <= float_budget)

(* --- Heap ----------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc = match Heap.pop h with Some v -> drain (v :: acc) | None -> List.rev acc in
  check (Alcotest.list Alcotest.int) "sorted drain" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let test_heap_fifo_ties () =
  (* Equal keys pop in insertion order: the engine's determinism rests
     on this. *)
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  List.iter (Heap.push h) [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  let order = List.init 4 (fun _ -> snd (Option.get (Heap.pop h))) in
  check (Alcotest.list Alcotest.string) "fifo ties" [ "z"; "a"; "b"; "c" ] order

let test_heap_peek () =
  let h = Heap.create ~cmp:compare in
  check (Alcotest.option Alcotest.int) "peek empty" None (Heap.peek h);
  Heap.push h 3;
  Heap.push h 1;
  check (Alcotest.option Alcotest.int) "peek min" (Some 1) (Heap.peek h);
  check Alcotest.int "peek does not remove" 2 (Heap.length h)

let test_heap_pop_exn_empty () =
  let h : int Heap.t = Heap.create ~cmp:compare in
  Alcotest.check_raises "pop_exn raises" (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_clear () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  check Alcotest.bool "empty after clear" true (Heap.is_empty h);
  Heap.push h 42;
  check (Alcotest.option Alcotest.int) "usable after clear" (Some 42) (Heap.pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list sorted" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) l;
      let rec drain acc =
        match Heap.pop h with Some v -> drain (v :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare l)

(* --- Stats ---------------------------------------------------------- *)

(* The sample variance, recovered from the standard deviation. *)
let variance s = Stats.stddev s ** 2.0

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "count" 4 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-9) "variance" (5.0 /. 3.0) (variance s)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 1e-9) "mean of empty" 0.0 (Stats.mean s);
  Alcotest.check_raises "min of empty" (Invalid_argument "Stats.min: empty") (fun () ->
      ignore (Stats.min s))

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  List.iter
    (fun x ->
      Stats.add whole x;
      if x < 3.0 then Stats.add a x else Stats.add b x)
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  let merged = Stats.merge a b in
  check (Alcotest.float 1e-9) "merged mean" (Stats.mean whole) (Stats.mean merged);
  check (Alcotest.float 1e-9) "merged variance" (variance whole) (variance merged);
  check Alcotest.int "merged count" (Stats.count whole) (Stats.count merged)

let test_stats_merge_empty () =
  let filled () =
    let s = Stats.create () in
    List.iter (Stats.add s) [ 1.0; 2.0; 3.0 ];
    s
  in
  let expect name m =
    check Alcotest.int (name ^ " count") 3 (Stats.count m);
    check (Alcotest.float 1e-9) (name ^ " mean") 2.0 (Stats.mean m);
    check (Alcotest.float 1e-9) (name ^ " min") 1.0 (Stats.min m);
    check (Alcotest.float 1e-9) (name ^ " max") 3.0 (Stats.max m)
  in
  expect "empty-left" (Stats.merge (Stats.create ()) (filled ()));
  expect "empty-right" (Stats.merge (filled ()) (Stats.create ()));
  let both = Stats.merge (Stats.create ()) (Stats.create ()) in
  check Alcotest.int "empty-both count" 0 (Stats.count both);
  check (Alcotest.float 1e-9) "empty-both mean" 0.0 (Stats.mean both);
  (* The merge must be a copy: mutating an input afterwards cannot leak
     into the result. *)
  let src = filled () in
  let m = Stats.merge (Stats.create ()) src in
  Stats.add src 1000.0;
  expect "copy isolated" m

let test_stats_variance_small_n () =
  let s = Stats.create () in
  check (Alcotest.float 1e-9) "variance of none" 0.0 (variance s);
  Stats.add s 5.0;
  check (Alcotest.float 1e-9) "variance of one" 0.0 (variance s);
  check (Alcotest.float 1e-9) "stddev of one" 0.0 (Stats.stddev s)

let prop_stats_merge_matches_combined =
  (* Splitting a sample arbitrarily and merging the two accumulators
     must agree with one accumulator fed everything. *)
  QCheck.Test.make ~name:"merge of any split equals combined accumulator" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_range (-50.) 50.)) (int_range 0 1000))
    (fun (l, cut_raw) ->
      let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
      let cut = cut_raw mod (List.length l + 1) in
      List.iteri
        (fun i x ->
          Stats.add whole x;
          Stats.add (if i < cut then a else b) x)
        l;
      let merged = Stats.merge a b in
      let close x y = abs_float (x -. y) < 1e-6 in
      Stats.count merged = Stats.count whole
      && close (Stats.mean merged) (Stats.mean whole)
      && close (variance merged) (variance whole)
      && close (Stats.min merged) (Stats.min whole)
      && close (Stats.max merged) (Stats.max whole))

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"welford mean equals naive mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-100.) 100.))
    (fun l ->
      let s = Stats.create () in
      List.iter (Stats.add s) l;
      let naive = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
      abs_float (Stats.mean s -. naive) < 1e-6)

let suite =
  [
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng seeds differ", `Quick, test_rng_seeds_differ);
    ("rng copy", `Quick, test_rng_copy);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng reseed and split_into in place", `Quick, test_rng_reseed_in_place);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int invalid", `Quick, test_rng_int_invalid);
    ("rng int_in", `Quick, test_rng_int_in);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng float mean", `Quick, test_rng_float_mean);
    ("rng pick", `Quick, test_rng_pick);
    ("rng sample without replacement", `Quick, test_rng_sample_without_replacement);
    ("rng sample matches hash-set reference", `Quick, test_rng_sample_matches_reference);
    ("rng known answers", `Quick, test_rng_known_answers);
    ("rng sample_into matches sample without replacement", `Quick, test_rng_sample_into_matches);
    ("rng draws allocate nothing", `Quick, test_rng_draws_allocate_nothing);
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap peek", `Quick, test_heap_peek);
    ("heap pop_exn empty", `Quick, test_heap_pop_exn_empty);
    ("heap clear", `Quick, test_heap_clear);
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    ("stats basic", `Quick, test_stats_basic);
    ("stats empty", `Quick, test_stats_empty);
    ("stats merge", `Quick, test_stats_merge);
    ("stats merge empty", `Quick, test_stats_merge_empty);
    ("stats variance small n", `Quick, test_stats_variance_small_n);
    QCheck_alcotest.to_alcotest prop_stats_merge_matches_combined;
    QCheck_alcotest.to_alcotest prop_stats_mean_matches_naive;
  ]
