(* Tests for mcast_obs: the metrics registry and its snapshots. *)

let check = Alcotest.check

(* A capture per test gives it a registry of its own, independent of
   the process-wide instrumentation in the protocol stack. *)

let test_counter_basics () =
  fst @@ Obs.capture @@ fun () ->
  let c = Metrics.counter "a.hits" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 3;
  check Alcotest.int "count" 5 (Metrics.count c);
  (* Find-or-create: the same name yields the same handle. *)
  Metrics.incr (Metrics.counter "a.hits");
  check Alcotest.int "shared handle" 6 (Metrics.count c)

let test_gauge_set_max () =
  fst @@ Obs.capture @@ fun () ->
  let g = Metrics.gauge "a.depth" in
  Metrics.set_max g 4.0;
  Metrics.set_max g 2.0;
  check (Alcotest.float 1e-9) "keeps high-water mark" 4.0 (Metrics.value g);
  Metrics.set g 1.0;
  check (Alcotest.float 1e-9) "set overrides" 1.0 (Metrics.value g)

let test_kind_mismatch_raises () =
  fst @@ Obs.capture @@ fun () ->
  ignore (Metrics.counter "x");
  check Alcotest.bool "gauge on counter name" true
    (try
       ignore (Metrics.gauge "x");
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "histogram on counter name" true
    (try
       ignore (Metrics.histogram "x");
       false
     with Invalid_argument _ -> true)

let test_histogram_bucketing () =
  fst @@ Obs.capture @@ fun () ->
  let r = Metrics.current () in
  let h = Metrics.histogram ~limits:[| 1.0; 2.0; 5.0 |] "a.wait" in
  (* Upper bounds are inclusive; above the last limit is overflow. *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.9; 5.0; 5.1; 100.0 ];
  match Metrics.find (Metrics.snapshot r) "a.wait" with
  | Some (Metrics.Histogram_v v) ->
      check Alcotest.int "count" 8 v.Metrics.hcount;
      check
        (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.int))
        "bucket fill"
        [ (1.0, 2); (2.0, 2); (5.0, 2); (infinity, 2) ]
        v.Metrics.hbuckets;
      check (Alcotest.float 1e-9) "min" 0.5 v.Metrics.hmin;
      check (Alcotest.float 1e-9) "max" 100.0 v.Metrics.hmax;
      check (Alcotest.float 1e-6) "sum" 120.0 v.Metrics.hsum
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_histogram_rejects_bad_limits () =
  fst @@ Obs.capture @@ fun () ->
  check Alcotest.bool "non-increasing limits" true
    (try
       ignore (Metrics.histogram ~limits:[| 2.0; 1.0 |] "bad");
       false
     with Invalid_argument _ -> true)

let test_snapshot_sorted_and_reset () =
  fst @@ Obs.capture @@ fun () ->
  let r = Metrics.current () in
  Metrics.incr (Metrics.counter "z.last");
  Metrics.incr (Metrics.counter "a.first");
  Metrics.set (Metrics.gauge "m.mid") 7.0;
  check (Alcotest.list Alcotest.string) "sorted by name"
    [ "a.first"; "m.mid"; "z.last" ]
    (List.map fst (Metrics.snapshot r));
  let c = Metrics.counter "a.first" in
  Metrics.reset r;
  check Alcotest.int "counter zeroed" 0 (Metrics.count c);
  (* Handles stay valid across reset. *)
  Metrics.incr c;
  check Alcotest.int "handle usable after reset" 1 (Metrics.count c)

let test_diff () =
  fst @@ Obs.capture @@ fun () ->
  let r = Metrics.current () in
  let c = Metrics.counter "c" in
  let g = Metrics.gauge "g" in
  let h = Metrics.histogram ~limits:[| 10.0 |] "h" in
  Metrics.incr c;
  Metrics.set g 5.0;
  Metrics.observe h 1.0;
  let before = Metrics.snapshot r in
  Metrics.add c 9;
  Metrics.set g 2.0;
  Metrics.observe h 3.0;
  Metrics.observe h 99.0;
  let d = Metrics.diff ~before ~after:(Metrics.snapshot r) in
  (match Metrics.find d "c" with
  | Some (Metrics.Counter_v n) -> check Alcotest.int "counter delta" 9 n
  | _ -> Alcotest.fail "counter missing");
  (match Metrics.find d "g" with
  | Some (Metrics.Gauge_v v) -> check (Alcotest.float 1e-9) "gauge takes after" 2.0 v
  | _ -> Alcotest.fail "gauge missing");
  match Metrics.find d "h" with
  | Some (Metrics.Histogram_v v) ->
      check Alcotest.int "histogram count delta" 2 v.Metrics.hcount;
      check (Alcotest.float 1e-6) "histogram sum delta" 102.0 v.Metrics.hsum;
      check
        (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.int))
        "bucket deltas"
        [ (10.0, 1); (infinity, 1) ]
        v.Metrics.hbuckets
  | _ -> Alcotest.fail "histogram missing"

let test_registry_determinism_across_runs () =
  (* Two identical seeded runs of the allocation simulator, each from a
     reset default registry, must leave byte-identical snapshots. *)
  let params =
    { Allocation_sim.default_params with Allocation_sim.horizon = Time.days 5.0; seed = 77 }
  in
  let run () =
    Metrics.reset Metrics.default;
    ignore (Allocation_sim.run params);
    Metrics.to_json (Metrics.snapshot Metrics.default)
  in
  let first = run () in
  let second = run () in
  check Alcotest.string "identical JSON snapshots" first second;
  check Alcotest.bool "run actually recorded something" true
    (match Metrics.find (Metrics.snapshot Metrics.default) "allocation.requests" with
    | Some (Metrics.Counter_v n) -> n > 0
    | _ -> false)

(* Retention and the JSONL sink of the one event log; the flight
   recorder's enabled flag is process state, so each test runs under a
   protect that disables it again. *)
let append_line path line =
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc (line ^ "\n");
  close_out oc

(* The records a loader reads back from a file holding [lines]. *)
let load_lines load lines =
  let path = Filename.temp_file "lines" ".jsonl" in
  List.iter (append_line path) lines;
  let loaded = load path in
  Sys.remove path;
  loaded

let with_recorder ?retain ?sink f =
  Recorder.enable ?retain ?sink ();
  Fun.protect ~finally:Recorder.disable f

let narrate ?span ?trace_id time label detail =
  Recorder.record ~time ~label ~subject:"a" ?span ?trace_id ~detail ()

let test_trace_ring_eviction () =
  check Alcotest.bool "ring capacity must be positive" true
    (try
       Recorder.enable ~retain:(Recorder.Ring 0) ();
       false
     with Invalid_argument _ -> true);
  with_recorder ~retain:(Recorder.Ring 3) (fun () ->
      for i = 1 to 5 do
        narrate (float_of_int i) "t" (string_of_int i)
      done;
      check Alcotest.int "all five counted" 5 (Recorder.fingerprint ()).Recorder.fpr_records;
      check (Alcotest.list Alcotest.string) "newest three retained, oldest first"
        [ "3"; "4"; "5" ]
        (List.filter_map (fun r -> r.Recorder.r_detail) (Recorder.recent ()));
      Recorder.enable ~retain:(Recorder.Ring 3) ();
      check Alcotest.int "cleared count" 0 (Recorder.fingerprint ()).Recorder.fpr_records;
      check Alcotest.int "cleared records" 0 (List.length (Recorder.recent ())))

let test_trace_jsonl_roundtrip () =
  let path = Filename.temp_file "trace" ".jsonl" in
  (* Quotes, backslashes, newlines and a control byte all survive. *)
  with_recorder ~sink:path (fun () ->
      Recorder.record ~time:1.5 ~label:"claim" ~subject:"node-1" ~detail:"a\"b\\c" ();
      Recorder.record ~time:2.25 ~label:"join" ~subject:"node-2" ~detail:"line1\nline2\tend" ();
      Recorder.record ~time:3.0 ~label:"esc" ~subject:"x" ~detail:"ctl\x01byte" ());
  append_line path "not json at all";
  let records, bad = Recorder.load_jsonl path in
  Sys.remove path;
  check Alcotest.int "three records" 3 (List.length records);
  let r1 = List.nth records 0 and r2 = List.nth records 1 and r3 = List.nth records 2 in
  check (Alcotest.float 1e-12) "time survives" 1.5 r1.Recorder.r_time;
  check Alcotest.string "subject survives" "node-1" r1.Recorder.r_subject;
  check (Alcotest.option Alcotest.string) "quotes/backslash survive" (Some "a\"b\\c")
    r1.Recorder.r_detail;
  check (Alcotest.option Alcotest.string) "newline/tab survive" (Some "line1\nline2\tend")
    r2.Recorder.r_detail;
  check (Alcotest.option Alcotest.string) "control byte survives" (Some "ctl\x01byte")
    r3.Recorder.r_detail;
  check Alcotest.int "garbage line skipped" 1 bad

(* Spans: the causal identities threaded through protocol messages. *)

let test_span_minting () =
  (* A capture mints from a fresh minter, away from the ambient one. *)
  fst @@ Obs.capture @@ fun () ->
  let a = Span.root "claim:1:224.0.0.0/24" in
  let b = Span.child a in
  let c = Span.child b in
  check Alcotest.int "root span id" 0 a.Span.span;
  check (Alcotest.option Alcotest.int) "root has no parent" None a.Span.parent;
  check Alcotest.int "child id increments" 1 b.Span.span;
  check (Alcotest.option Alcotest.int) "child parented on root" (Some 0) b.Span.parent;
  check (Alcotest.option Alcotest.int) "grandchild parent" (Some 1) c.Span.parent;
  check Alcotest.string "chain keeps its trace id" a.Span.trace_id c.Span.trace_id;
  (* Counters are per trace id, so chains stay dense. *)
  let other = Span.root "group:224.0.0.1" in
  check Alcotest.int "fresh counter per trace id" 0 other.Span.span;
  check Alcotest.string "claim id shape" "claim:7:224.0.0.0/24"
    (Span.claim_id ~owner:7 "224.0.0.0/24");
  Span.reset ();
  check Alcotest.int "reset restarts the counters" 0
    (Span.root "claim:1:224.0.0.0/24").Span.span

let test_trace_span_jsonl_roundtrip () =
  let path = Filename.temp_file "trace" ".jsonl" in
  let (s0, s1), _ =
    Obs.capture (fun () ->
        let s0 = Span.root "claim:2:224.0.4.0/24" in
        (s0, Span.child s0))
  in
  with_recorder ~sink:path (fun () ->
      narrate 1.0 "claim" ~span:s0 "224.0.4.0/24 (new)";
      narrate 2.0 "acquired" ~span:s1 "224.0.4.0/24";
      (* A bare [?trace_id] links without a span (how violations are
         recorded). *)
      narrate 3.0 "violation" ~trace_id:"claim:2:224.0.4.0/24" "overlap";
      narrate 4.0 "plain" "no chain");
  let records, _ = Recorder.load_jsonl path in
  Sys.remove path;
  check Alcotest.int "four records" 4 (List.length records);
  let e0 = List.nth records 0
  and e1 = List.nth records 1
  and e2 = List.nth records 2
  and e3 = List.nth records 3 in
  check (Alcotest.option Alcotest.string) "span stamps the trace id"
    (Some "claim:2:224.0.4.0/24") e0.Recorder.r_trace_id;
  check (Alcotest.option Alcotest.int) "root span id" (Some 0) e0.Recorder.r_span;
  check (Alcotest.option Alcotest.int) "root parent absent" None e0.Recorder.r_parent;
  check (Alcotest.option Alcotest.int) "child span id" (Some 1) e1.Recorder.r_span;
  check (Alcotest.option Alcotest.int) "child parent" (Some 0) e1.Recorder.r_parent;
  check (Alcotest.option Alcotest.string) "bare trace id survives"
    (Some "claim:2:224.0.4.0/24") e2.Recorder.r_trace_id;
  check (Alcotest.option Alcotest.int) "bare trace id has no span" None e2.Recorder.r_span;
  check (Alcotest.option Alcotest.string) "unchained record stays unchained" None
    e3.Recorder.r_trace_id;
  (* A line written before records carried a detail still parses. *)
  match load_lines Recorder.load_jsonl [ {|{"seq": 0, "time": 1.5, "label": "ev", "subject": ""}|} ] with
  | [ r ], 0 ->
      check (Alcotest.option Alcotest.string) "legacy detail absent" None r.Recorder.r_detail;
      check (Alcotest.option Alcotest.string) "legacy trace id absent" None r.Recorder.r_trace_id;
      check (Alcotest.option Alcotest.int) "legacy span absent" None r.Recorder.r_span;
      check (Alcotest.option Alcotest.int) "legacy parent absent" None r.Recorder.r_parent
  | _ -> Alcotest.fail "detail-less line did not parse"

let test_trace_jsonl_sink_replacement () =
  let p1 = Filename.temp_file "trace1" ".jsonl" in
  let p2 = Filename.temp_file "trace2" ".jsonl" in
  with_recorder ~sink:p1 (fun () ->
      narrate 1.0 "t" "one";
      narrate 2.0 "t" "two";
      (* Re-enabling onto a new sink must flush and close the old
         channel: the file is complete and immediately re-openable. *)
      Recorder.enable ~sink:p2 ();
      let old, _ = Recorder.load_jsonl p1 in
      check Alcotest.int "replaced file is complete" 2 (List.length old);
      check (Alcotest.option Alcotest.string) "last record flushed" (Some "two")
        (List.nth old 1).Recorder.r_detail;
      let oc = open_out p1 in
      output_string oc "reopenable\n";
      close_out oc;
      narrate 3.0 "t" "three");
  let fresh, _ = Recorder.load_jsonl p2 in
  check Alcotest.int "new sink receives later records" 1 (List.length fresh);
  check (Alcotest.option Alcotest.string) "routed to the new file" (Some "three")
    (List.hd fresh).Recorder.r_detail;
  Sys.remove p1;
  Sys.remove p2

let test_trace_set_sink_after_close () =
  let path = Filename.temp_file "trace" ".jsonl" in
  with_recorder ~sink:path (fun () -> narrate 1.0 "t" "x");
  (* The channel is already closed; enabling again must not raise by
     closing it a second time, and the recorder stays usable. *)
  with_recorder ~retain:(Recorder.Ring 1) (fun () ->
      narrate 2.0 "t" "y";
      check Alcotest.int "usable after the switch" 1 (List.length (Recorder.recent ())));
  (* Disable after disable is equally harmless. *)
  Recorder.disable ();
  Recorder.disable ();
  Sys.remove path

(* The invariant monitor: named predicates, quiescent gating, counters. *)

let test_invariant_monitor () =
  fst @@ Obs.capture @@ fun () ->
  let r = Metrics.current () in
  let inv = Invariant.create () in
  let transient = ref [] in
  Invariant.register inv ~name:"always" (fun () -> !transient);
  Invariant.register inv ~quiescent_only:true ~name:"settled" (fun () ->
      [ ("never settles", Some "chain-1") ]);
  check (Alcotest.list Alcotest.string) "names in registration order" [ "always"; "settled" ]
    (Invariant.names inv);
  check Alcotest.bool "duplicate name rejected" true
    (try
       Invariant.register inv ~name:"always" (fun () -> []);
       false
     with Invalid_argument _ -> true);
  (* Mid-run checks skip the quiescent-only predicate. *)
  check Alcotest.int "clean mid-run" 0 (List.length (Invariant.check ~quiescent:false inv));
  transient := [ ("boom", None) ];
  (match Invariant.check ~quiescent:false inv with
  | [ v ] ->
      check Alcotest.string "names the invariant" "always" v.Invariant.inv;
      check Alcotest.string "carries the detail" "boom" v.Invariant.detail;
      check (Alcotest.option Alcotest.string) "no chain attached" None v.Invariant.trace_id
  | vs -> Alcotest.fail (Printf.sprintf "expected one violation, got %d" (List.length vs)));
  (* A quiescent check runs everything. *)
  transient := [];
  (match Invariant.check inv with
  | [ v ] ->
      check Alcotest.string "settled predicate ran" "settled" v.Invariant.inv;
      check (Alcotest.option Alcotest.string) "chain attached" (Some "chain-1")
        v.Invariant.trace_id
  | vs -> Alcotest.fail (Printf.sprintf "expected one violation, got %d" (List.length vs)));
  let count name =
    match Metrics.find (Metrics.snapshot r) name with
    | Some (Metrics.Counter_v n) -> n
    | _ -> 0
  in
  check Alcotest.int "checks counted" 3 (count "invariant.checks");
  check Alcotest.int "violations counted" 2 (count "invariant.violations");
  check Alcotest.int "per-invariant counter" 1 (count "invariant.violations.settled");
  check Alcotest.int "per-invariant counter (other)" 1 (count "invariant.violations.always")

(* A monitor has no registry of its own: created under one registry
   and checked under another, it counts into the one it is checked
   under, so a stack reused across trials needs no rebinding. *)
let test_invariant_counts_where_checked () =
  let (inv, a), _ = Obs.capture (fun () -> (Invariant.create (), Metrics.current ())) in
  Invariant.register inv ~name:"bad" (fun () -> [ ("boom", None) ]);
  let b, _ =
    Obs.capture (fun () ->
        ignore (Invariant.check inv);
        Metrics.current ())
  in
  let count r name =
    match Metrics.find (Metrics.snapshot r) name with Some (Metrics.Counter_v n) -> n | _ -> 0
  in
  check Alcotest.int "checks counted under the checking registry" 1 (count b "invariant.checks");
  check Alcotest.int "violations counted there too" 1 (count b "invariant.violations.bad");
  check Alcotest.(list string) "nothing counted in the creating registry" []
    (List.map fst (Metrics.snapshot a))

(* [~depends] gating: a clean verdict is cached against the dependency
   value read before the run; a violating one never is. *)
let test_invariant_depends () =
  fst @@ Obs.capture @@ fun () ->
  let r = Metrics.current () in
  let inv = Invariant.create () in
  let version = ref 0 and runs = ref 0 and found = ref [] in
  Invariant.register inv ~depends:(fun () -> !version) ~name:"gated" (fun () ->
      incr runs;
      !found);
  let ungated_runs = ref 0 in
  Invariant.register inv ~name:"ungated" (fun () ->
      incr ungated_runs;
      []);
  let count name =
    match Metrics.find (Metrics.snapshot r) name with Some (Metrics.Counter_v n) -> n | _ -> -1
  in
  let step what ~expect_runs ~expect_violations =
    let vs = Invariant.check ~quiescent:false inv in
    check Alcotest.int (what ^ ": violations") expect_violations (List.length vs);
    check Alcotest.int (what ^ ": predicate runs") expect_runs !runs
  in
  step "first check runs" ~expect_runs:1 ~expect_violations:0;
  check Alcotest.int "no skip yet, so no skipped counter" (-1) (count "invariant.skipped");
  step "unchanged version skips" ~expect_runs:1 ~expect_violations:0;
  check Alcotest.int "skip counted" 1 (count "invariant.skipped");
  (* State the predicate reads changed without a bump: the contract is
     broken, and the stale clean verdict is what a check returns. *)
  found := [ ("boom", None) ];
  step "no bump, cached clean verdict" ~expect_runs:1 ~expect_violations:0;
  incr version;
  step "bump reruns" ~expect_runs:2 ~expect_violations:1;
  step "a violation is never cached" ~expect_runs:3 ~expect_violations:1;
  found := [];
  step "clean again at the same version" ~expect_runs:4 ~expect_violations:0;
  step "and cached again" ~expect_runs:4 ~expect_violations:0;
  check Alcotest.int "ungated predicate ran every time" 7 !ungated_runs;
  check Alcotest.int "skips still count as checks" 7 (count "invariant.checks");
  check Alcotest.int "skipped" 3 (count "invariant.skipped");
  check Alcotest.int "violations" 2 (count "invariant.violations.gated")

(* The hierarchical profiler.  Prof is process-global: every test
   leaves it disabled. *)

let with_prof f = Fun.protect ~finally:Prof.disable f

(* An empty tree with the profiler off: [enable] starts a fresh tree. *)
let prof_clear () =
  Prof.enable ();
  Prof.disable ()

let test_prof_disabled_is_passthrough () =
  prof_clear ();
  check Alcotest.int "value returned" 7 (Prof.span "x" (fun () -> 7));
  check Alcotest.int "nothing recorded" 0 (List.length (Prof.rows ()));
  check Alcotest.bool "reports disabled" false (Prof.is_enabled ())

let test_prof_tree () =
  with_prof @@ fun () ->
  Prof.enable ();
  for _ = 1 to 3 do
    Prof.span "outer" (fun () ->
        Prof.span "inner" (fun () -> Sys.opaque_identity (ignore (Array.make 64 0.0))))
  done;
  Prof.span "inner" (fun () -> ());
  let rows = Prof.rows () in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "pre-order paths, same name under different parents distinct"
    [ [ "outer" ]; [ "outer"; "inner" ]; [ "inner" ] ]
    (List.map (fun (r : Prof.row) -> r.Prof.path) rows);
  let outer = Option.get (Prof.find rows [ "outer" ]) in
  let inner = Option.get (Prof.find rows [ "outer"; "inner" ]) in
  check Alcotest.int "outer count" 3 outer.Prof.count;
  check Alcotest.int "inner count" 3 inner.Prof.count;
  check Alcotest.bool "child total within parent" true
    (inner.Prof.total_s <= outer.Prof.total_s +. 1e-9);
  check Alcotest.bool "self = total - children" true
    (abs_float (outer.Prof.self_s -. (outer.Prof.total_s -. inner.Prof.total_s)) < 1e-9);
  check Alcotest.bool "allocation charged to inner" true (inner.Prof.total_bytes > 0.0)

(* Bytes are charged to the span that allocates them: a list built in
   one span counts there in full, and its sibling that allocates
   nothing is charged only the span's own bookkeeping (224 B
   measured), however full the minor heap was when either opened. *)
let test_prof_bytes_charged_where_allocated () =
  with_prof @@ fun () ->
  Prof.enable ();
  let n = 1000 in
  Prof.span "outer" (fun () ->
      Prof.span "build" (fun () -> ignore (Sys.opaque_identity (List.init n Fun.id)));
      Prof.span "idle" (fun () -> ()));
  let rows = Prof.rows () in
  let build = Option.get (Prof.find rows [ "outer"; "build" ]) in
  let idle = Option.get (Prof.find rows [ "outer"; "idle" ]) in
  let list_bytes = float_of_int (n * 3 * (Sys.word_size / 8)) in
  check Alcotest.bool
    (Printf.sprintf "list of %.0f B charged to its span (%.0f B)" list_bytes build.Prof.self_bytes)
    true
    (build.Prof.self_bytes >= list_bytes);
  check Alcotest.bool
    (Printf.sprintf "idle sibling charged %.0f B" idle.Prof.self_bytes)
    true
    (idle.Prof.self_bytes < 512.0)

let test_prof_exception_closes_span () =
  with_prof @@ fun () ->
  Prof.enable ();
  (try Prof.span "boom" (fun () -> failwith "bang") with Failure _ -> ());
  Prof.span "after" (fun () -> ());
  let rows = Prof.rows () in
  check Alcotest.bool "failing span still charged" true
    (match Prof.find rows [ "boom" ] with Some r -> r.Prof.count = 1 | None -> false);
  (* The span closed on the way out: "after" is a sibling of "boom",
     not its child. *)
  check Alcotest.bool "current restored" true (Prof.find rows [ "after" ] <> None)

let test_prof_jsonl_roundtrip () =
  with_prof @@ fun () ->
  Prof.enable ();
  Prof.span "a" (fun () -> Prof.span "b" (fun () -> ()));
  let rows = Prof.rows () in
  let path = Filename.temp_file "prof" ".jsonl" in
  Prof.write_jsonl path;
  append_line path "nope";
  let loaded, bad = Prof.load_jsonl_counted path in
  Sys.remove path;
  check Alcotest.int "row count survives" (List.length rows) (List.length loaded);
  List.iter2
    (fun (x : Prof.row) (y : Prof.row) ->
      check (Alcotest.list Alcotest.string) "path survives" x.Prof.path y.Prof.path;
      check Alcotest.int "count survives" x.Prof.count y.Prof.count;
      check (Alcotest.float 1e-12) "total_s survives" x.Prof.total_s y.Prof.total_s;
      check (Alcotest.float 1e-12) "self_bytes survives" x.Prof.self_bytes y.Prof.self_bytes)
    rows loaded;
  check Alcotest.int "garbage line skipped" 1 bad;
  (* Folded stacks: one "a;b self-us" line per row with self time. *)
  List.iter
    (fun line ->
      check Alcotest.bool ("folded line has a space: " ^ line) true
        (String.contains line ' '))
    (String.split_on_char '\n'
       (String.trim (Prof.folded [ { (List.hd rows) with Prof.self_s = 1e-3 } ])))

let test_prof_enable_resets () =
  with_prof @@ fun () ->
  Prof.enable ();
  Prof.span "old" (fun () -> ());
  Prof.enable ();
  Prof.span "new" (fun () -> ());
  let rows = Prof.rows () in
  check Alcotest.bool "old tree gone" true (Prof.find rows [ "old" ] = None);
  check Alcotest.bool "new tree present" true (Prof.find rows [ "new" ] <> None)

(* Sim-time telemetry series. *)

let test_timeseries_memory () =
  (* Sources are read in registration order at every sample, and a
     file reads back as the rows written, oldest first. *)
  let path = Filename.temp_file "series" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let ts = Timeseries.create path in
      let v = ref 1.0 in
      Timeseries.register ts "x" (fun () -> -. !v);
      Timeseries.register ts "y" (fun () -> 10.0 *. !v);
      check Alcotest.bool "a duplicate name is rejected" true
        (try
           Timeseries.register ts "x" (fun () -> !v);
           false
         with Invalid_argument _ -> true);
      Timeseries.sample ts ~time:1.0;
      v := 2.0;
      Timeseries.sample ts ~time:2.0;
      Timeseries.close ts;
      let points, bad = Timeseries.load_jsonl_counted path in
      check Alcotest.int "no malformed line" 0 bad;
      check
        (Alcotest.list
           (Alcotest.triple (Alcotest.float 1e-9) Alcotest.string (Alcotest.float 1e-9)))
        "rows oldest first, sources in registration order"
        [ (1.0, "x", -1.0); (1.0, "y", 10.0); (2.0, "x", -2.0); (2.0, "y", 20.0) ]
        (List.map (fun p -> Timeseries.(p.at, p.series, p.value)) points))

let test_timeseries_jsonl_roundtrip () =
  let path = Filename.temp_file "series" ".jsonl" in
  let ts = Timeseries.create path in
  fst @@ Obs.capture @@ fun () ->
  let g = Metrics.gauge "depth" in
  let c = Metrics.counter "hits" in
  Timeseries.register ts "depth" (fun () -> Metrics.value g);
  Timeseries.register ts "hits" (fun () -> float_of_int (Metrics.count c));
  Metrics.set g 3.5;
  Metrics.incr c;
  Timeseries.sample ts ~time:10.0;
  Metrics.set g 1.25;
  Metrics.incr c;
  Timeseries.sample ts ~time:20.0;
  Timeseries.close ts;
  let points, _ = Timeseries.load_jsonl_counted path in
  Sys.remove path;
  check Alcotest.int "four points" 4 (List.length points);
  let by_series = Timeseries.series_of points in
  check (Alcotest.list Alcotest.string) "series in first-appearance order" [ "depth"; "hits" ]
    (List.map fst by_series);
  check
    (Alcotest.array (Alcotest.pair (Alcotest.float 1e-9) (Alcotest.float 1e-9)))
    "gauge series" [| (10.0, 3.5); (20.0, 1.25) |]
    (List.assoc "depth" by_series);
  check
    (Alcotest.array (Alcotest.pair (Alcotest.float 1e-9) (Alcotest.float 1e-9)))
    "counter series" [| (10.0, 1.0); (20.0, 2.0) |]
    (List.assoc "hits" by_series)

(* The engine's sampler hook: event-driven cadence plus a final sample
   when a run stops, never its own events. *)

let test_engine_sampler_cadence () =
  let e = Engine.create () in
  check Alcotest.bool "non-positive cadence rejected" true
    (try
       Engine.set_sampler e ~every:0.0 (fun _ -> ());
       false
     with Invalid_argument _ -> true);
  let hits = ref [] in
  Engine.set_sampler e ~every:(Time.seconds 60.0) (fun t -> hits := t :: !hits);
  for i = 1 to 10 do
    ignore (Engine.schedule_at e (Time.seconds (float_of_int i *. 25.0)) (fun () -> ()))
  done;
  Engine.run ~until:(Time.seconds 1000.0) e;
  (* Events at 25 s intervals with a 60 s cadence: samples land on the
     first event at or past each multiple of 60, plus a final sample
     when the run stops (the queue drains at 250 s, before the
     horizon, and the clock stays at the last event). *)
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "sampled on cadence, finished at the stop point"
    [ 75.0; 150.0; 225.0; 250.0 ]
    (List.rev !hits);
  (* A drained run samples at the last event time, not twice. *)
  let e2 = Engine.create () in
  let n = ref 0 in
  Engine.set_sampler e2 ~every:(Time.seconds 60.0) (fun _ -> incr n);
  ignore (Engine.schedule_at e2 (Time.seconds 10.0) (fun () -> ()));
  Engine.run e2;
  check Alcotest.int "final sample on drain" 1 !n

let test_json_shape () =
  fst @@ Obs.capture @@ fun () ->
  let r = Metrics.current () in
  Metrics.incr (Metrics.counter "only.counter");
  let json = Metrics.to_json (Metrics.snapshot r) in
  check Alcotest.string "document" "{\n  \"metrics\": [\n    {\"name\": \"only.counter\", \"kind\": \"counter\", \"value\": 1}\n  ]\n}\n" json

(* --- flight recorder -------------------------------------------------- *)

let test_recorder_disabled_is_noop () =
  check Alcotest.bool "disabled by default" false (Recorder.is_enabled ());
  Recorder.record ~time:1.0 ~label:"x" ();
  check Alcotest.bool "still disabled" false (Recorder.is_enabled ())

let test_recorder_ring_and_counts () =
  with_recorder ~retain:(Recorder.Ring 4) (fun () ->
      for i = 1 to 6 do
        Recorder.record ~time:(float_of_int i) ~label:"ev" ()
      done;
      check Alcotest.int "all records counted" 6 (Recorder.fingerprint ()).Recorder.fpr_records;
      let recent = Recorder.recent () in
      check Alcotest.int "ring keeps the newest window" 4 (List.length recent);
      check
        (Alcotest.list (Alcotest.float 1e-9))
        "oldest first" [ 3.0; 4.0; 5.0; 6.0 ]
        (List.map (fun (r : Recorder.record) -> r.Recorder.r_time) recent);
      check Alcotest.int "seq numbers are stream positions" 2
        (List.hd recent).Recorder.seq)

let test_recorder_fingerprint_deterministic_and_order_sensitive () =
  let fp_of labels =
    with_recorder (fun () ->
        List.iter (fun l -> Recorder.record ~time:1.0 ~label:l ()) labels;
        Recorder.fingerprint ())
  in
  let a = fp_of [ "m.one"; "m.two" ] and b = fp_of [ "m.one"; "m.two" ] in
  check Alcotest.int "record count" 2 a.Recorder.fpr_records;
  check Alcotest.bool "same stream, same hash" true (a.Recorder.fpr_hash = b.Recorder.fpr_hash);
  let c = fp_of [ "m.two"; "m.one" ] in
  check Alcotest.bool "order matters" false (a.Recorder.fpr_hash = c.Recorder.fpr_hash);
  check Alcotest.bool "subject matters" false
    (let d =
       with_recorder (fun () ->
           Recorder.record ~time:1.0 ~label:"m.one" ~subject:"s" ();
           Recorder.record ~time:1.0 ~label:"m.two" ();
           Recorder.fingerprint ())
     in
     a.Recorder.fpr_hash = d.Recorder.fpr_hash)

let test_recorder_prefix_buckets () =
  with_recorder (fun () ->
      Recorder.record ~time:1.0 ~label:"net.recv.bgp" ();
      Recorder.record ~time:2.0 ~label:"masc.sweep" ();
      Recorder.record ~time:3.0 ~label:"net.drop.bgp" ();
      Recorder.record ~time:4.0 ~label:"plain" ();
      let fp = Recorder.fingerprint () in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
        "prefixes sorted, counted by first dot component"
        [ ("masc", 1); ("net", 2); ("plain", 1) ]
        (List.map (fun (p, n, _) -> (p, n)) fp.Recorder.fpr_prefixes))

let test_recorder_jsonl_roundtrip () =
  let span = { Span.trace_id = "claim:1:224.0.0.0/24"; span = 3; parent = Some 2 } in
  let path = Filename.temp_file "roundtrip" ".jsonl" in
  let recent =
    with_recorder ~retain:Recorder.Keep_all ~sink:path (fun () ->
        Recorder.record ~time:12.5 ~label:"net.recv.bgp" ~subject:"0->1 \"q\"" ~span ();
        Recorder.record ~time:13.0 ~label:"ev" ();
        Recorder.recent ())
  in
  (* The sink's line shape: fixed key order, optional keys only when set. *)
  check
    Alcotest.(list string)
    "written lines"
    [
      {|{"seq": 0, "time": 12.5, "label": "net.recv.bgp", "subject": "0->1 \"q\"", "trace_id": "claim:1:224.0.0.0/24", "span": 3, "parent": 2}|};
      {|{"seq": 1, "time": 13, "label": "ev", "subject": ""}|};
      "";
    ]
    (String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all));
  append_line path "{nope}";
  let loaded, bad = Recorder.load_jsonl path in
  Sys.remove path;
  check Alcotest.int "two records" 2 (List.length recent);
  List.iter2
    (fun r l -> check Alcotest.bool "roundtrips" true (l = r))
    recent loaded;
  check Alcotest.int "garbage rejected" 1 bad

let test_recorder_sink_and_counted_loader () =
  let file = Filename.temp_file "recorder" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let span = { Span.trace_id = "group:224.0.128.1"; span = 0; parent = None } in
      with_recorder ~sink:file (fun () ->
          Recorder.record ~time:1.0 ~label:"net.recv.bgmp" ~subject:"2->3" ~span ();
          Recorder.record ~time:2.0 ~label:"ev" ());
      (* [disable] closed the sink; corrupt the file the way a killed
         run would: a truncated line plus a blank one. *)
      let oc = open_out_gen [ Open_append ] 0o644 file in
      output_string oc "{\"seq\": 9, \"time\": trunca\n\n";
      close_out oc;
      let recs, bad = Recorder.load_jsonl file in
      check Alcotest.int "good records load" 2 (List.length recs);
      check Alcotest.int "malformed non-blank lines counted" 1 bad;
      let r0 = List.hd recs in
      check Alcotest.string "span survives the file" "group:224.0.128.1"
        (Option.get r0.Recorder.r_trace_id))

let test_recorder_capture_merge_matches_sequential () =
  let sequential =
    with_recorder (fun () ->
        Recorder.record ~time:1.0 ~label:"a.x" ();
        Recorder.record ~time:2.0 ~label:"b.y" ~subject:"s" ();
        Recorder.record ~time:3.0 ~label:"a.z" ();
        Recorder.fingerprint ())
  in
  let merged =
    with_recorder (fun () ->
        Recorder.record ~time:1.0 ~label:"a.x" ();
        let (), shard =
          Obs.capture (fun () ->
              Recorder.record ~time:2.0 ~label:"b.y" ~subject:"s" ();
              Recorder.record ~time:3.0 ~label:"a.z" ())
        in
        check Alcotest.int "buffered records bypass the live stream" 1 (Recorder.fingerprint ()).Recorder.fpr_records;
        Obs.merge shard;
        check Alcotest.int "merge replays in order" 3 (Recorder.fingerprint ()).Recorder.fpr_records;
        check
          (Alcotest.list Alcotest.int)
          "seq renumbered across the merge" [ 0; 1; 2 ]
          (List.map (fun (r : Recorder.record) -> r.Recorder.seq) (Recorder.recent ()));
        Recorder.fingerprint ())
  in
  check Alcotest.bool "merged stream fingerprint equals sequential" true
    (sequential.Recorder.fpr_hash = merged.Recorder.fpr_hash
    && sequential.Recorder.fpr_prefixes = merged.Recorder.fpr_prefixes)

let test_span_capture_scoping () =
  (* A capture mints from a fresh minter and restores the ambient one,
     so a parallel task's span ids never depend on what minted before. *)
  Span.reset ();
  let outer = Span.root "claim:9:10.0.0.0/8" in
  check Alcotest.int "ambient minter at 0" 0 outer.Span.span;
  let inner, _ = Obs.capture (fun () -> Span.root "claim:9:10.0.0.0/8") in
  check Alcotest.int "fresh minter restarts the trace id" 0 inner.Span.span;
  let after = Span.root "claim:9:10.0.0.0/8" in
  check Alcotest.int "ambient minter restored and advanced" 1 after.Span.span

let test_counted_loaders_report_malformed () =
  (* Recorder, Prof and Timeseries share the skip-and-count contract the
     report subcommand surfaces as a warning. *)
  let file = Filename.temp_file "counted" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      with_recorder ~sink:file (fun () -> narrate 1.0 "t" "ok");
      let oc = open_out_gen [ Open_append ] 0o644 file in
      output_string oc "not json\n\n{\"seq\": 1, \"time\": 2.0, \"label\"\n";
      close_out oc;
      let records, bad = Recorder.load_jsonl file in
      check Alcotest.int "recorded lines" 1 (List.length records);
      check Alcotest.int "recording bad lines" 2 bad;
      let pts, bad_ts =
        let oc = open_out file in
        output_string oc "{\"at\": 1.0, \"series\": \"s\", \"value\": 2.0}\ngarbage\n";
        close_out oc;
        Timeseries.load_jsonl_counted file
      in
      check Alcotest.int "timeseries points" 1 (List.length pts);
      check Alcotest.int "timeseries bad lines" 1 bad_ts;
      let rows, bad_prof =
        let oc = open_out file in
        output_string oc "nonsense\n";
        close_out oc;
        Prof.load_jsonl_counted file
      in
      check Alcotest.int "prof rows" 0 (List.length rows);
      check Alcotest.int "prof bad lines" 1 bad_prof)

(* --- the registry against its name-keyed reference ------------------------- *)

(* A random program over a fixed pool of instrument names, run on
   [Metrics] through [Obs.capture]/[Obs.merge] and [Par.map], and on
   [Metrics_reference], the name-keyed registry whose handles rebind by
   name.  Every read and every snapshot of the current registry is
   observed, and the two runs must observe the same. *)

type pool_kind = P_counter | P_gauge | P_histogram of float array option

(* Each name keeps its kind (and limits) in every program, so no merge
   meets a mismatch. *)
let pool =
  [|
    ("d.c0", P_counter);
    ("d.c1", P_counter);
    ("d.c2", P_counter);
    ("d.g0", P_gauge);
    ("d.g1", P_gauge);
    ("d.h0", P_histogram None);
    ("d.h1", P_histogram (Some [| 1.0; 2.0; 5.0 |]));
    ("d.h2", P_histogram (Some [| -1.0; 0.0 |]));
  |]

type dop =
  | Make of int  (** a handle for pool entry [i], made now *)
  | Make_lazy of int  (** a handle made at its first use, as [Invariant]'s are *)
  | Add of int * int
  | Set of int * float
  | Set_max of int * float
  | Set_int of int * int
  | Set_max_int of int * int
  | Observe of int * float
  | Read of int  (** [count], [value], or nothing for a histogram *)
  | Reset  (** zero the current registry *)
  | Snapshot
  | Capture of dop list * bool  (** a nested capture, merged or dropped *)
  | Tasks of dop list list  (** each under its own capture, merged in task order *)

type observed = Int of int | Float of float | Snap of Metrics.snapshot

let rec random_ops rng ~depth n =
  List.init n (fun _ ->
      let h = Rng.int rng (Array.length pool) in
      let small () = Rng.int_in rng (-3) 9 in
      let value () = float_of_int (small ()) /. 4.0 in
      match Rng.int rng (if depth >= 2 then 24 else 27) with
      | 0 | 1 | 2 -> Make h
      | 3 -> Make_lazy h
      | 4 | 5 | 6 | 7 -> Add (h, small ())
      | 8 | 9 -> Set (h, value ())
      | 10 | 11 -> Set_max (h, value ())
      | 12 -> Set_int (h, small ())
      | 13 | 14 -> Set_max_int (h, small ())
      | 15 | 16 | 17 -> Observe (h, value ())
      | 18 | 19 -> Read h
      | 20 -> Reset
      | 21 | 22 | 23 -> Snapshot
      | 24 | 25 -> Capture (random_ops rng ~depth:(depth + 1) (Rng.int rng 8), Rng.int rng 4 > 0)
      | _ -> Tasks (List.init (Rng.int_in rng 1 4) (fun _ -> random_ops rng ~depth:(depth + 1) (Rng.int rng 8))))

module type REGISTRY = sig
  type counter
  type gauge
  type histogram
  type shard

  val counter : string -> counter
  val gauge : string -> gauge
  val histogram : ?limits:float array -> string -> histogram
  val add : counter -> int -> unit
  val count : counter -> int
  val set : gauge -> float -> unit
  val set_max : gauge -> float -> unit
  val set_int : gauge -> int -> unit
  val set_max_int : gauge -> int -> unit
  val value : gauge -> float
  val observe : histogram -> float -> unit
  val reset_current : unit -> unit
  val snapshot_current : unit -> Metrics.snapshot
  val capture : (unit -> 'a) -> 'a * shard
  val merge : shard -> unit
  val map_tasks : ('a -> 'b) -> 'a list -> 'b list
end

module Interpret (R : REGISTRY) = struct
  type handle = C of R.counter | G of R.gauge | H of R.histogram

  let make i =
    let name, kind = pool.(i) in
    match kind with
    | P_counter -> C (R.counter name)
    | P_gauge -> G (R.gauge name)
    | P_histogram limits -> H (R.histogram ?limits name)

  (* A task sees the handles made before it; a lazy one not yet forced
     becomes the task's own, so no two tasks force one lazy value. *)
  let for_task handles =
    Array.mapi
      (fun i h ->
        match h with Some l when not (Lazy.is_val l) -> Some (lazy (make i)) | h -> h)
      handles

  let rec run handles ops acc =
    List.fold_left
      (fun acc op ->
        let use i f = match handles.(i) with Some l -> f (Lazy.force l) | None -> () in
        match op with
        | Make i ->
            handles.(i) <- Some (Lazy.from_val (make i));
            acc
        | Make_lazy i ->
            if handles.(i) = None then handles.(i) <- Some (lazy (make i));
            acc
        | Add (i, n) ->
            use i (function C c -> R.add c n | G _ | H _ -> ());
            acc
        | Set (i, v) ->
            use i (function G g -> R.set g v | C _ | H _ -> ());
            acc
        | Set_max (i, v) ->
            use i (function G g -> R.set_max g v | C _ | H _ -> ());
            acc
        | Set_int (i, n) ->
            use i (function G g -> R.set_int g n | C _ | H _ -> ());
            acc
        | Set_max_int (i, n) ->
            use i (function G g -> R.set_max_int g n | C _ | H _ -> ());
            acc
        | Observe (i, x) ->
            use i (function H h -> R.observe h x | C _ | G _ -> ());
            acc
        | Read i -> (
            match handles.(i) with
            | None -> acc
            | Some l -> (
                match Lazy.force l with
                | C c -> Int (R.count c) :: acc
                | G g -> Float (R.value g) :: acc
                | H _ -> acc))
        | Reset ->
            R.reset_current ();
            acc
        | Snapshot -> Snap (R.snapshot_current ()) :: acc
        | Capture (body, merged) ->
            let acc, shard = R.capture (fun () -> run handles body acc) in
            if merged then R.merge shard;
            acc
        | Tasks bodies ->
            let outs =
              R.map_tasks
                (fun body -> R.capture (fun () -> List.rev (run (for_task handles) body [])))
                bodies
            in
            List.fold_left
              (fun acc (seen, shard) ->
                R.merge shard;
                List.rev_append seen acc)
              acc outs)
      acc ops

  (* The program under a capture of its own, ending with a snapshot. *)
  let observe ops =
    fst
      (R.capture (fun () ->
           let handles = Array.make (Array.length pool) None in
           List.rev (Snap (R.snapshot_current ()) :: run handles ops [])))
end

module Real (J : sig
  val jobs : int
end) =
Interpret (struct
  include Metrics

  type shard = Obs.shard

  let reset_current () = Metrics.reset (Metrics.current ())
  let snapshot_current () = Metrics.snapshot (Metrics.current ())
  let capture = Obs.capture
  let merge = Obs.merge
  let map_tasks f xs = Par.map ~jobs:J.jobs f xs
end)

module Reference = Interpret (struct
  include Metrics_reference

  type shard = Metrics_reference.registry

  let set_int g n = set g (float_of_int n)
  let set_max_int g n = set_max g (float_of_int n)
  let reset_current () = reset !current
  let snapshot_current () = snapshot !current
  let map_tasks = List.map
end)

module Real_1 = Real (struct
  let jobs = 1
end)

module Real_2 = Real (struct
  let jobs = 2
end)

let test_registry_matches_reference () =
  let rng = Rng.create 43 in
  for program = 1 to 200 do
    let ops = random_ops rng ~depth:0 (Rng.int_in rng 1 30) in
    let expected = Reference.observe ops in
    List.iter
      (fun (jobs, observed) ->
        if compare expected observed <> 0 then
          Alcotest.failf "program %d at jobs %d: %d observations differ from the reference's"
            program jobs
            (List.length (List.filter (fun x -> not (List.mem x expected)) observed)))
      [ (1, Real_1.observe ops); (2, Real_2.observe ops) ]
  done

(* Updates allocate nothing once their cell exists, outside a capture
   (the main registry) and inside one (after the first use), in every
   build profile: no float crosses a call and no cell is re-resolved. *)
let test_update_allocates_nothing () =
  let c = Metrics.counter "obs.alloc.c" and g = Metrics.gauge "obs.alloc.g" in
  let words () =
    Metrics.incr c;
    Metrics.set_max_int g 1;
    let w0 = Gc.minor_words () in
    for i = 1 to 1000 do
      Metrics.incr c;
      Metrics.set_max_int g i
    done;
    Gc.minor_words () -. w0
  in
  check (Alcotest.float 0.0) "main registry: 0 words per update" 0.0 (words ());
  let inside, _ = Obs.capture words in
  check (Alcotest.float 0.0) "inside a capture: 0 words per update" 0.0 inside

(* A capture that records nothing costs its context, an empty registry,
   the shard and the pair it returns (16 words, the same in every build
   profile); its merge costs nothing.  The name-keyed registry paid 78
   words here: a 16-bucket registry table, a minter table, the
   exception-safe wrapper's closures and a closure-iterating merge. *)
let test_empty_capture_allocation () =
  let once () =
    let (), shard = Obs.capture ignore in
    Obs.merge shard
  in
  once ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    once ()
  done;
  let per = (Gc.minor_words () -. w0) /. 100.0 in
  check Alcotest.bool (Printf.sprintf "capture + merge: %.1f words <= 16" per) true (per <= 16.0)

(* Captures made while the recorder is off share one idle buffer.
   Enabling the recorder inside such a capture must not fill that
   buffer: the capture keeps its record, and a later capture that
   records nothing replays nothing. *)
let test_enable_inside_capture_leaves_idle_buffer () =
  Recorder.disable ();
  let (), first =
    Obs.capture (fun () ->
        Recorder.enable ~retain:Recorder.Keep_all ();
        Recorder.record ~time:1.0 ~label:"inside" ();
        Recorder.disable ())
  in
  let (), empty = Obs.capture ignore in
  with_recorder ~retain:Recorder.Keep_all (fun () ->
      Obs.merge empty;
      check Alcotest.int "an empty capture replays 0 records" 0
        (Recorder.fingerprint ()).Recorder.fpr_records;
      Obs.merge first;
      check (Alcotest.list Alcotest.string) "the enabling capture keeps its record" [ "inside" ]
        (List.map (fun r -> r.Recorder.r_label) (Recorder.recent ())))

let suite =
  [
    ("counter basics", `Quick, test_counter_basics);
    ("gauge set_max", `Quick, test_gauge_set_max);
    ("kind mismatch raises", `Quick, test_kind_mismatch_raises);
    ("histogram bucketing", `Quick, test_histogram_bucketing);
    ("histogram rejects bad limits", `Quick, test_histogram_rejects_bad_limits);
    ("snapshot sorted, reset keeps handles", `Quick, test_snapshot_sorted_and_reset);
    ("diff", `Quick, test_diff);
    ("registry determinism across seeded runs", `Quick, test_registry_determinism_across_runs);
    ("trace ring eviction", `Quick, test_trace_ring_eviction);
    ("trace jsonl roundtrip", `Quick, test_trace_jsonl_roundtrip);
    ("span minting", `Quick, test_span_minting);
    ("trace span jsonl roundtrip", `Quick, test_trace_span_jsonl_roundtrip);
    ("trace jsonl sink replacement", `Quick, test_trace_jsonl_sink_replacement);
    ("trace set_sink after close", `Quick, test_trace_set_sink_after_close);
    ("invariant monitor", `Quick, test_invariant_monitor);
    ("invariant counts where checked", `Quick, test_invariant_counts_where_checked);
    ("invariant depends gating", `Quick, test_invariant_depends);
    ("prof disabled passthrough", `Quick, test_prof_disabled_is_passthrough);
    ("prof tree", `Quick, test_prof_tree);
    ("prof bytes charged where allocated", `Quick, test_prof_bytes_charged_where_allocated);
    ("prof exception closes span", `Quick, test_prof_exception_closes_span);
    ("prof jsonl roundtrip", `Quick, test_prof_jsonl_roundtrip);
    ("prof enable resets", `Quick, test_prof_enable_resets);
    ("timeseries memory", `Quick, test_timeseries_memory);
    ("timeseries jsonl roundtrip", `Quick, test_timeseries_jsonl_roundtrip);
    ("engine sampler cadence", `Quick, test_engine_sampler_cadence);
    ("json shape", `Quick, test_json_shape);
    ("recorder disabled is no-op", `Quick, test_recorder_disabled_is_noop);
    ("recorder ring and counts", `Quick, test_recorder_ring_and_counts);
    ( "recorder fingerprint deterministic, order-sensitive",
      `Quick,
      test_recorder_fingerprint_deterministic_and_order_sensitive );
    ("recorder prefix buckets", `Quick, test_recorder_prefix_buckets);
    ("recorder jsonl roundtrip", `Quick, test_recorder_jsonl_roundtrip);
    ("recorder sink and counted loader", `Quick, test_recorder_sink_and_counted_loader);
    ( "recorder capture/merge matches sequential",
      `Quick,
      test_recorder_capture_merge_matches_sequential );
    ("span capture scoping", `Quick, test_span_capture_scoping);
    ("counted loaders report malformed lines", `Quick, test_counted_loaders_report_malformed);
    ("registry matches the name-keyed reference", `Quick, test_registry_matches_reference);
    ("update allocates nothing", `Quick, test_update_allocates_nothing);
    ("empty capture allocation", `Quick, test_empty_capture_allocation);
    ("enable inside a capture leaves the idle buffer", `Quick,
      test_enable_inside_capture_leaves_idle_buffer);
  ]
