(* Tests for mcast_par and the Obs capture its callers run tasks under:
   Par.map ordering and exception propagation, per-slot state reuse,
   and Obs.capture/Obs.merge, the one shard path that makes parallel
   runs byte-identical to sequential ones. *)

let check = Alcotest.check

(* ---- Par.map ----------------------------------------------------- *)

let test_map_ordering () =
  let xs = List.init 100 (fun i -> i) in
  let expect = List.map (fun x -> x * x) xs in
  check (Alcotest.list Alcotest.int) "jobs 1" expect (Par.map ~jobs:1 (fun x -> x * x) xs);
  check (Alcotest.list Alcotest.int) "jobs 4" expect (Par.map ~jobs:4 (fun x -> x * x) xs);
  check (Alcotest.list Alcotest.int) "jobs 8" expect (Par.map ~jobs:8 (fun x -> x * x) xs);
  check (Alcotest.list Alcotest.int) "more jobs than items" [ 1; 2; 3 ]
    (Par.map ~jobs:8 (fun x -> x + 1) [ 0; 1; 2 ]);
  check (Alcotest.list Alcotest.int) "empty" [] (Par.map ~jobs:4 (fun x -> x) []);
  check (Alcotest.list Alcotest.int) "singleton" [ 7 ] (Par.map ~jobs:4 (fun x -> x) [ 7 ])

exception Boom of int

let test_map_exception () =
  (* Every task runs to completion; the exception of the lowest-index
     failing task is the one re-raised, at any job count. *)
  let run jobs =
    try
      ignore
        (Par.map ~jobs (fun i -> if i >= 5 then raise (Boom i) else i) (List.init 10 Fun.id));
      Alcotest.fail "expected Boom"
    with Boom i -> i
  in
  check Alcotest.int "inline re-raise" 5 (run 1);
  check Alcotest.int "parallel re-raise is lowest index" 5 (run 4)

let test_map_nested () =
  (* A map submitted from inside a task runs inline on that worker —
     no deadlock, same results. *)
  let expect = List.init 3 (fun i -> List.init 5 (fun j -> (i * 10) + j)) in
  let got =
    Par.map ~jobs:4 (fun i -> Par.map ~jobs:4 (fun j -> (i * 10) + j) (List.init 5 Fun.id))
      (List.init 3 Fun.id)
  in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "nested map" expect got

let test_map_with_state_reuse () =
  let created = ref [] in
  let cm = Mutex.create () in
  let init () =
    let s = ref 0 in
    Mutex.lock cm;
    created := s :: !created;
    Mutex.unlock cm;
    s
  in
  let got =
    Par.map_with ~jobs:1 ~init
      (fun s x ->
        incr s;
        x * 2)
      (List.init 5 Fun.id)
  in
  check (Alcotest.list Alcotest.int) "results" [ 0; 2; 4; 6; 8 ] got;
  check Alcotest.int "one state at jobs 1" 1 (List.length !created);
  check Alcotest.int "state saw every item" 5 !(List.hd !created);
  created := [];
  let got =
    Par.map_with ~jobs:4 ~init
      (fun s x ->
        incr s;
        x * 2)
      (List.init 20 Fun.id)
  in
  check (Alcotest.list Alcotest.int) "parallel results" (List.init 20 (fun i -> i * 2)) got;
  check Alcotest.bool "at most one state per slot" true (List.length !created <= 4);
  check Alcotest.int "states saw every item exactly once" 20
    (List.fold_left (fun acc s -> acc + !s) 0 !created)

let test_set_jobs () =
  check Alcotest.bool "negative rejected" true
    (try
       Par.set_jobs (-1);
       false
     with Invalid_argument _ -> true);
  (* The job count a map with no [?jobs] runs at, seen as the worker
     slots whose [init] ran; and whether every task ran on the calling
     domain. *)
  let run_map () =
    let inits = Atomic.make 0 and caller = Stdlib.Domain.self () in
    let out =
      Par.map_with
        ~init:(fun () -> Atomic.incr inits)
        (fun () x -> (2 * x, Stdlib.Domain.self () = caller))
        [ 1; 2; 3 ]
    in
    (List.map fst out, List.for_all snd out, Atomic.get inits)
  in
  (* 0 means the recommended domain count. *)
  Par.set_jobs 0;
  let doubled, _, slots = run_map () in
  check Alcotest.(list int) "0 resolves to a usable count" [ 2; 4; 6 ] doubled;
  check Alcotest.bool "0 resolves to >= 1" true
    (slots >= 1 && slots <= max 1 (Stdlib.Domain.recommended_domain_count ()));
  Par.set_jobs 1;
  let doubled, inline, slots = run_map () in
  check Alcotest.(list int) "explicit results" [ 2; 4; 6 ] doubled;
  check Alcotest.int "explicit" 1 slots;
  check Alcotest.bool "explicit runs on the calling domain" true inline

(* ---- shard hammer: N domains, exact totals after merge ----------- *)

let test_shard_hammer () =
  let tasks = 40 in
  let outs =
    Par.map ~jobs:4
      (fun i ->
        Obs.capture (fun () ->
            (* Handles bind to the registry current on this worker
               domain: the capture's. *)
            Metrics.add (Metrics.counter "t.par.hits") i;
            Metrics.observe (Metrics.histogram ~limits:[| 10.0; 100.0 |] "t.par.lat")
              (float_of_int i);
            Metrics.set_max (Metrics.gauge "t.par.peak") (float_of_int i)))
      (List.init tasks Fun.id)
  in
  let total = tasks * (tasks - 1) / 2 in
  let snap, _ =
    Obs.capture (fun () ->
        List.iter (fun ((), s) -> Obs.merge s) outs;
        Metrics.snapshot (Metrics.current ()))
  in
  (match Metrics.find snap "t.par.hits" with
  | Some (Metrics.Counter_v c) -> check Alcotest.int "counter total exact" total c
  | _ -> Alcotest.fail "counter missing");
  (match Metrics.find snap "t.par.lat" with
  | Some (Metrics.Histogram_v v) ->
      check Alcotest.int "histogram count exact" tasks v.Metrics.hcount;
      check (Alcotest.float 1e-6) "histogram sum exact" (float_of_int total) v.Metrics.hsum;
      check
        (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.int))
        "bucket fill exact"
        [ (10.0, 11); (100.0, 29); (infinity, 0) ]
        v.Metrics.hbuckets
  | _ -> Alcotest.fail "histogram missing");
  match Metrics.find snap "t.par.peak" with
  | Some (Metrics.Gauge_v g) ->
      check (Alcotest.float 1e-9) "gauge keeps max" (float_of_int (tasks - 1)) g
  | _ -> Alcotest.fail "gauge missing"

let test_merge_order_independent () =
  (* Counter/bucket totals are integer sums: any merge order gives the
     same registry.  Histogram moments combine via Stats.merge, which
     is associative up to float rounding — compare with tolerance. *)
  let shards =
    List.map
      (fun ((), s) -> s)
      (Par.map ~jobs:4
         (fun i ->
           Obs.capture (fun () ->
               Metrics.add (Metrics.counter "t.ord.c") (i + 1);
               Metrics.observe (Metrics.histogram "t.ord.h") (float_of_int i)))
         (List.init 16 Fun.id))
  in
  let fold order =
    fst
      (Obs.capture (fun () ->
           List.iter Obs.merge order;
           Metrics.snapshot (Metrics.current ())))
  in
  let a = fold shards and b = fold (List.rev shards) in
  (match (Metrics.find a "t.ord.c", Metrics.find b "t.ord.c") with
  | Some (Metrics.Counter_v ca), Some (Metrics.Counter_v cb) ->
      check Alcotest.int "counter order-independent" ca cb
  | _ -> Alcotest.fail "counter missing");
  match (Metrics.find a "t.ord.h", Metrics.find b "t.ord.h") with
  | Some (Metrics.Histogram_v va), Some (Metrics.Histogram_v vb) ->
      check Alcotest.int "hist count" va.Metrics.hcount vb.Metrics.hcount;
      check
        (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.int))
        "buckets" va.Metrics.hbuckets vb.Metrics.hbuckets;
      check (Alcotest.float 1e-9) "mean" va.Metrics.hmean vb.Metrics.hmean;
      check (Alcotest.float 1e-6) "stddev" va.Metrics.hstddev vb.Metrics.hstddev
  | _ -> Alcotest.fail "histogram missing"

let test_merge_into_mismatch () =
  let registry_with make = fst (Obs.capture (fun () -> ignore (make ()); Metrics.current ())) in
  let r1 = registry_with (fun () -> Metrics.counter "x") in
  let r2 = registry_with (fun () -> Metrics.gauge "x") in
  check Alcotest.bool "kind mismatch raises" true
    (try
       Metrics.merge_into ~into:r1 r2;
       false
     with Invalid_argument _ -> true);
  let r3 = registry_with (fun () -> Metrics.histogram ~limits:[| 1.0 |] "h") in
  let r4 = registry_with (fun () -> Metrics.histogram ~limits:[| 2.0 |] "h") in
  check Alcotest.bool "limits mismatch raises" true
    (try
       Metrics.merge_into ~into:r3 r4;
       false
     with Invalid_argument _ -> true)

(* ---- Prof spans across domains ----------------------------------- *)

let test_prof_merge () =
  Fun.protect
    ~finally:(fun () ->
      Prof.disable ();
      Test_obs.prof_clear ())
    (fun () ->
      Prof.enable ();
      let outs =
        Par.map ~jobs:4
          (fun i ->
            Obs.capture (fun () ->
                Prof.span "t.work" (fun () ->
                    if i mod 2 = 0 then Prof.span "t.inner" (fun () -> ()))))
          (List.init 12 Fun.id)
      in
      List.iter (fun ((), s) -> Obs.merge s) outs;
      let rows = Prof.rows () in
      (match Prof.find rows [ "t.work" ] with
      | Some r -> check Alcotest.int "outer span count exact" 12 r.Prof.count
      | None -> Alcotest.fail "t.work row missing");
      match Prof.find rows [ "t.work"; "t.inner" ] with
      | Some r -> check Alcotest.int "nested span count exact" 6 r.Prof.count
      | None -> Alcotest.fail "t.inner row missing")

let test_prof_nested_shards_accumulate () =
  (* A shard merged inside another capture adds into that capture's
     tree, so grouping merges differently gives the same counts. *)
  Fun.protect
    ~finally:(fun () ->
      Prof.disable ();
      Test_obs.prof_clear ())
    (fun () ->
      Prof.enable ();
      let shard n = snd (Obs.capture (fun () -> for _ = 1 to n do Prof.span "t.a" ignore done)) in
      let count () =
        match Prof.find (Prof.rows ()) [ "t.a" ] with Some r -> r.Prof.count | None -> 0
      in
      (* (s1 + s2) + s3 against s1 + (s2 + s3). *)
      let s1 = shard 1 and s2 = shard 2 and s3 = shard 3 in
      let (), s12 = Obs.capture (fun () -> List.iter Obs.merge [ s1; s2 ]) in
      List.iter Obs.merge [ s12; s3 ];
      let left = count () in
      Prof.enable ();
      let s1 = shard 1 and s2 = shard 2 and s3 = shard 3 in
      let (), s23 = Obs.capture (fun () -> List.iter Obs.merge [ s2; s3 ]) in
      List.iter Obs.merge [ s1; s23 ];
      check Alcotest.int "grouped merges accumulate" 6 left;
      check Alcotest.int "either grouping" left (count ()))

let test_prof_disabled_capture_is_empty () =
  Prof.disable ();
  let x, shard = Obs.capture (fun () -> Prof.span "t.off" (fun () -> 41)) in
  check Alcotest.int "thunk result" 41 x;
  Fun.protect
    ~finally:(fun () ->
      Prof.disable ();
      Test_obs.prof_clear ())
    (fun () ->
      Prof.enable ();
      Obs.merge shard;
      check Alcotest.int "no rows carried while disabled" 0 (List.length (Prof.rows ())))

(* ---- one capture, every stream ----------------------------------- *)

(* Each task bumps a counter, opens a profiler span, mints a span id and
   records it; after in-order merges a run at --jobs 4 reads exactly
   like one at --jobs 1, and every task's span id was minted from 0. *)
let test_one_capture_carries_every_stream () =
  let task i =
    Metrics.add (Metrics.counter "t.all.hits") (i + 1);
    Prof.span "t.all.work" (fun () ->
        let s = Span.root "claim:1:10.0.0.0/8" in
        Recorder.record ~time:(float_of_int i) ~label:"t.all" ~span:s ();
        s.Span.span)
  in
  (* The streams are switched on before the outer capture, which then
     gets a profiler root and a keep-all recorder of its own. *)
  let run jobs =
    Prof.enable ();
    Recorder.enable ~retain:Recorder.Keep_all ();
    Fun.protect
      ~finally:(fun () ->
        Prof.disable ();
        Test_obs.prof_clear ();
        Recorder.disable ())
      (fun () ->
        fst @@ Obs.capture
        @@ fun () ->
        let outs = Par.map ~jobs (fun i -> Obs.capture (fun () -> task i)) (List.init 12 Fun.id) in
        let ids =
          List.map
            (fun (id, shard) ->
              Obs.merge shard;
              id)
            outs
        in
        ( ids,
          Metrics.snapshot (Metrics.current ()),
          List.map (fun (row : Prof.row) -> (row.Prof.path, row.Prof.count)) (Prof.rows ()),
          Recorder.recent (),
          (Recorder.fingerprint ()).Recorder.fpr_hash ))
  in
  let ((ids, snap, prof, recs, _) as sequential) = run 1 in
  check Alcotest.(list int) "every task mints from 0" (List.init 12 (fun _ -> 0)) ids;
  (match Metrics.find snap "t.all.hits" with
  | Some (Metrics.Counter_v n) -> check Alcotest.int "counter total" 78 n
  | _ -> Alcotest.fail "counter missing");
  check Alcotest.(list (pair (list string) int)) "one span row" [ ([ "t.all.work" ], 12) ] prof;
  check Alcotest.int "every record replayed" 12 (List.length recs);
  check Alcotest.bool "records renumbered in task order" true
    (List.nth recs 11
    = {
        Recorder.seq = 11;
        r_time = 11.0;
        r_label = "t.all";
        r_subject = "";
        r_detail = None;
        r_trace_id = Some "claim:1:10.0.0.0/8";
        r_span = Some 0;
        r_parent = None;
      });
  check Alcotest.bool "jobs 4 reads like jobs 1" true (run 4 = sequential)

let suite =
  [
    ("map preserves order", `Quick, test_map_ordering);
    ("map re-raises lowest-index exception", `Quick, test_map_exception);
    ("nested map runs inline", `Quick, test_map_nested);
    ("map_with reuses per-slot state", `Quick, test_map_with_state_reuse);
    ("set_jobs validation", `Quick, test_set_jobs);
    ("shard hammer merges to exact totals", `Quick, test_shard_hammer);
    ("merge order-independent totals", `Quick, test_merge_order_independent);
    ("merge_into rejects mismatches", `Quick, test_merge_into_mismatch);
    ("prof spans merge to exact counts", `Quick, test_prof_merge);
    ("prof nested shards accumulate", `Quick, test_prof_nested_shards_accumulate);
    ("prof capture empty when disabled", `Quick, test_prof_disabled_capture_is_empty);
    ("one capture carries every stream", `Quick, test_one_capture_carries_every_stream);
  ]
