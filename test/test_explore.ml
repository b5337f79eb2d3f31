(* The fault-scenario explorer: schedule codec, generator, oracle
   verdicts, shrinker, ledger, campaign determinism, triage. *)

let check = Alcotest.check

let sched s =
  match Schedule.of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "unparseable schedule %S: %s" s e

let test_schedule_codec () =
  let s = "part:0-1@1800,down:2-3@3600.5,loss:0.05@7200,heal:0-1@86400" in
  let t = sched s in
  check Alcotest.string "round-trip" s (Schedule.to_string t);
  check Alcotest.int "faults" 4 (Schedule.faults t);
  (* Out-of-order and unsorted input normalises. *)
  let t2 = sched "heal:0-1@86400,part:0-1@1800,loss:0.05@7200,down:2-3@3600.5" in
  check Alcotest.string "sorted on parse" s (Schedule.to_string t2);
  check Alcotest.string "fingerprint agrees" (Schedule.fingerprint t) (Schedule.fingerprint t2);
  check Alcotest.bool "fingerprint is 16 hex digits" true
    (String.length (Schedule.fingerprint t) = 16);
  (match Schedule.of_string "frob:0-1@10" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown fault kind parsed");
  check Alcotest.int "empty schedule" 0 (Schedule.faults (Result.get_ok (Schedule.of_string "")))

let test_schedule_ends_all_up () =
  let up s = Schedule.ends_all_up (sched s) in
  check Alcotest.bool "permanent partition ends cut" false (up "part:0-1@1800");
  check Alcotest.bool "healed partition ends up" true (up "part:0-1@1800,heal:0-1@7200");
  check Alcotest.bool "cross-family repair counts" true (up "down:0-1@1800,heal:0-1@7200");
  check Alcotest.bool "lingering loss is not clean" false (up "loss:0.1@1800");
  check Alcotest.bool "reset loss is clean" true (up "loss:0.1@1800,loss:0@7200");
  check Alcotest.bool "empty is clean" true (up "")

let arena = { Oracle.tops = 2; children_per_top = 2 }

let arena_topo () = Gen.masc_hierarchy ~tops:2 ~children_per_top:2

let test_generator_deterministic () =
  let gen () =
    Fault_gen.generate ~topo:(arena_topo ()) ~budget:40 ~max_faults:6 ~seed:42
      ~horizon:(Time.hours 4.0)
  in
  let a = List.map Schedule.to_string (gen ()) and b = List.map Schedule.to_string (gen ()) in
  check (Alcotest.list Alcotest.string) "same seed, same schedules" a b;
  check Alcotest.int "budget respected" 40 (List.length a);
  (* The enumerated head guarantees the §4.4 canary — a permanent
     partition of the top-level peering at claim time — in every
     campaign regardless of seed. *)
  check Alcotest.bool "claim-time partition canary enumerated" true
    (List.mem "part:0-1@1800" a);
  let c =
    List.map Schedule.to_string
      (Fault_gen.generate ~topo:(arena_topo ()) ~budget:40 ~max_faults:6 ~seed:43
         ~horizon:(Time.hours 4.0))
  in
  check Alcotest.bool "different seed, different sampled tail" true (a <> c);
  check Alcotest.bool "canary survives the seed change" true (List.mem "part:0-1@1800" c)

let test_verdict_rule () =
  let v = { Invariant.inv = "x"; detail = "d"; trace_id = None } in
  check Alcotest.bool "violations trump convergence" true
    (Oracle.verdict_of ~converged_at:(Some 10.0) ~deadline:100.0 ~violations:[ v ]
    = Oracle.Violation);
  check Alcotest.bool "late watermark is non-convergence" true
    (Oracle.verdict_of ~converged_at:(Some 101.0) ~deadline:100.0 ~violations:[]
    = Oracle.Non_convergence);
  check Alcotest.bool "violations also trump lateness" true
    (Oracle.verdict_of ~converged_at:(Some 101.0) ~deadline:100.0 ~violations:[ v ]
    = Oracle.Violation);
  check Alcotest.bool "on-time is a pass" true
    (Oracle.verdict_of ~converged_at:(Some 99.0) ~deadline:100.0 ~violations:[] = Oracle.Pass);
  check Alcotest.bool "no activity at all is a pass" true
    (Oracle.verdict_of ~converged_at:None ~deadline:100.0 ~violations:[] = Oracle.Pass)

let test_nonconvergence_from_watermarks () =
  (* Activity past the quiescence grace convicts a run even with every
     invariant green: the oracle's rule applied to a real engine whose
     last durable state change lands after the deadline. *)
  let eng = Engine.create () in
  let deadline = 100.0 in
  ignore (Engine.schedule_at eng 50.0 (fun () -> Engine.note_activity eng));
  ignore (Engine.schedule_at eng 150.0 (fun () -> Engine.note_activity eng));
  Engine.run_until_idle eng;
  check Alcotest.bool "watermark past deadline" true
    (Oracle.verdict_of ~converged_at:(Engine.converged_at eng) ~deadline ~violations:[]
    = Oracle.Non_convergence);
  let eng2 = Engine.create () in
  ignore (Engine.schedule_at eng2 50.0 (fun () -> Engine.note_activity eng2));
  ignore (Engine.schedule_at eng2 150.0 (fun () -> ()));
  Engine.run_until_idle eng2;
  check Alcotest.bool "mere events past deadline do not convict" true
    (Oracle.verdict_of ~converged_at:(Engine.converged_at eng2) ~deadline ~violations:[]
    = Oracle.Pass)

let test_oracle_pass_on_empty_schedule () =
  let outcome, _ = Oracle.run ~stack:(Oracle.stack arena) ~seed:7 [] in
  check Alcotest.bool "no faults, no violations" true (outcome.Oracle.violations = []);
  check Alcotest.bool "verdict pass" true (outcome.Oracle.verdict = Oracle.Pass)

let test_oracle_finds_partition_canary () =
  (* The seeded known-violation scenario: a permanent partition of the
     top-level peering while both tops claim out of 224/4 — first-fit
     lands them on the same sub-prefix and nothing ever resolves it. *)
  let outcome, inet = Oracle.run ~stack:(Oracle.stack arena) ~seed:7 (sched "part:0-1@1800") in
  check Alcotest.bool "verdict violation" true (outcome.Oracle.verdict = Oracle.Violation);
  let v =
    match
      List.filter
        (fun v -> v.Invariant.inv = "masc-sibling-overlap")
        outcome.Oracle.violations
    with
    | v :: _ -> v
    | [] -> Alcotest.fail "masc-sibling-overlap not among the violations"
  in
  check Alcotest.bool "violation blames a causal chain" true (v.Invariant.trace_id <> None);
  (* The stack's own violation log recovers the same violation after
     the run. *)
  let seen = Internet.invariant_violations inet in
  check Alcotest.bool "the stack's log is non-empty" true (seen <> []);
  check Alcotest.bool "a logged violation carries detail + trace id" true
    (List.exists
       (fun s -> s.Invariant.inv = "masc-sibling-overlap" && s.Invariant.trace_id = v.Invariant.trace_id)
       seen)

let test_oracle_healed_partition_self_repairs () =
  (* Healed before the renewal duel deadline: the §4.4 story ends with
     the loser yielding — the oracle must NOT flag a violation. *)
  let outcome, _ =
    Oracle.run ~stack:(Oracle.stack arena) ~seed:7 (sched "part:0-1@1800,heal:0-1@14400")
  in
  check Alcotest.bool "no violation after self-repair" true
    (outcome.Oracle.verdict <> Oracle.Violation)

let test_oracle_deterministic () =
  let run () =
    let o, _ =
      Oracle.run ~stack:(Oracle.stack arena) ~seed:11 (sched "down:0-1@1800,up:0-1@10800")
    in
    ( Oracle.verdict_to_string o.Oracle.verdict,
      List.map (fun v -> (v.Invariant.inv, v.Invariant.trace_id)) o.Oracle.violations,
      o.Oracle.converged_at )
  in
  let a = run () and b = run () in
  check Alcotest.bool "same seed, same outcome" true (a = b)

let test_shrinker_essential_among_decoys () =
  (* One essential fault buried in 8 decoys: greedy removal must strip
     every decoy and time-coarsening must round the survivor, no matter
     what the decoys are. *)
  let essential = { Schedule.at = Time.seconds 1830.0; fault = Schedule.Partition (0, 1) } in
  let decoys =
    [
      { Schedule.at = Time.seconds 400.0; fault = Schedule.Link_down (0, 2) };
      { Schedule.at = Time.seconds 900.0; fault = Schedule.Link_up (0, 2) };
      { Schedule.at = Time.seconds 1200.0; fault = Schedule.Set_loss 0.05 };
      { Schedule.at = Time.seconds 1500.0; fault = Schedule.Set_loss 0.0 };
      { Schedule.at = Time.seconds 2000.0; fault = Schedule.Link_down (1, 3) };
      { Schedule.at = Time.seconds 2600.0; fault = Schedule.Link_up (1, 3) };
      { Schedule.at = Time.seconds 3100.0; fault = Schedule.Partition (0, 2) };
      { Schedule.at = Time.seconds 3500.0; fault = Schedule.Heal (0, 2) };
    ]
  in
  let full = Schedule.make (essential :: decoys) in
  (* The predicate is the ground truth "fails iff the essential fault
     survives": the shrinker must converge on exactly that fault. *)
  let calls = ref 0 and judged = Hashtbl.create 16 in
  let still_fails s =
    incr calls;
    Hashtbl.replace judged s ();
    List.exists (fun st -> st.Schedule.fault = Schedule.Partition (0, 1)) s
  in
  let r = Shrinker.shrink ~still_fails full in
  check Alcotest.int "exactly the essential fault" 1 (Schedule.faults r.Shrinker.shrunk);
  (* [steps] counts every candidate judged; a repeated candidate
     reuses its verdict, so the predicate runs once per distinct
     candidate. *)
  check Alcotest.int "candidates judged" 15 r.Shrinker.steps;
  check Alcotest.int "one predicate call per distinct candidate" (Hashtbl.length judged) !calls;
  check Alcotest.bool "a repeated candidate skips the predicate" true (!calls < r.Shrinker.steps);
  (match r.Shrinker.shrunk with
  | [ { Schedule.fault = Schedule.Partition (0, 1); at } ] ->
      (* The predicate is time-blind, so coarsening runs all the way to
         the day floor. *)
      check (Alcotest.float 0.0) "time coarsened" 0.0 (Time.to_seconds at)
  | _ -> Alcotest.failf "shrunk to %s" (Schedule.to_string r.Shrinker.shrunk));
  check Alcotest.bool "shrinking spent oracle runs" true (r.Shrinker.steps > 0);
  (* Determinism: same input, same minimal counterexample and cost. *)
  let r2 = Shrinker.shrink ~still_fails full in
  check Alcotest.string "deterministic result" (Schedule.to_string r.Shrinker.shrunk)
    (Schedule.to_string r2.Shrinker.shrunk);
  check Alcotest.int "deterministic cost" r.Shrinker.steps r2.Shrinker.steps

let test_shrinker_on_real_oracle () =
  (* End to end on the live oracle: a decoy-laden failing schedule
     shrinks to the single essential partition. *)
  let full = sched "down:0-2@600,up:0-2@1200,part:0-1@1830,loss:0.05@2400,loss:0@3000" in
  let outcome, _ = Oracle.run ~stack:(Oracle.stack arena) ~seed:7 full in
  check Alcotest.bool "full schedule fails" true (outcome.Oracle.verdict = Oracle.Violation);
  let still_fails s =
    let o, _ = Oracle.run ~stack:(Oracle.stack arena) ~seed:7 s in
    o.Oracle.verdict = Oracle.Violation
    && List.exists (fun v -> v.Invariant.inv = "masc-sibling-overlap") o.Oracle.violations
  in
  let r = Shrinker.shrink ~still_fails full in
  check Alcotest.int "one essential fault" 1 (Schedule.faults r.Shrinker.shrunk);
  match r.Shrinker.shrunk with
  | [ { Schedule.fault = Schedule.Partition (0, 1); _ } ] -> ()
  | _ -> Alcotest.failf "shrunk to %s" (Schedule.to_string r.Shrinker.shrunk)

(* Random schedules over the arena's links at whole seconds within the
   four-hour fault window: a "dirty" history holds one step of every
   fault kind plus up to two more, a probe up to five steps of any
   kind, after the claim-time partition of the top-level peering (the
   §4.4 canary) when [canary]. *)
let random_schedules rng topo ~canary =
  let links = Array.of_list (Topo.links topo) in
  let step kind =
    let l = links.(Rng.int rng (Array.length links)) in
    let a = l.Topo.a and b = l.Topo.b in
    let fault =
      match kind with
      | 0 -> Schedule.Link_down (a, b)
      | 1 -> Schedule.Link_up (a, b)
      | 2 -> Schedule.Partition (a, b)
      | 3 -> Schedule.Heal (a, b)
      | _ -> Schedule.Set_loss [| 0.0; 0.05; 0.2 |].(Rng.int rng 3)
    in
    { Schedule.at = float_of_int (Rng.int rng 14_400); fault }
  in
  let any () = step (Rng.int rng 5) in
  let dirty = Schedule.make (List.init 5 step @ List.init (Rng.int rng 3) (fun _ -> any ())) in
  let probe =
    Schedule.make
      ((if canary then [ { Schedule.at = 1800.0; fault = Schedule.Partition (0, 1) } ] else [])
      @ List.init (Rng.int rng 6) (fun _ -> any ()))
  in
  (dirty, probe)

(* One run observed three ways: its outcome, the recording's
   fingerprint and the metrics it adds, its shard merged into an outer
   capture that starts empty. *)
let observe run =
  Recorder.enable ();
  Fun.protect ~finally:Recorder.disable (fun () ->
      fst @@ Obs.capture
      @@ fun () ->
      let (outcome, _), shard = Obs.capture run in
      Obs.merge shard;
      (outcome, Recorder.fingerprint (), Metrics.to_json (Metrics.snapshot (Metrics.current ()))))

(* A stack that ran one schedule and was rewound runs the next exactly
   as a freshly built one: 40 seeded pairs, each history mixing every
   fault kind (link down/up, partition/heal, loss), so the rewind must
   undo link cells, epochs, loss config, timers, trees and claims. *)
let test_reused_stack_reads_like_fresh () =
  let topo = Oracle.topology arena in
  let stack = Oracle.stack arena in
  let rng = Rng.create 31 in
  let outcomes = ref [] in
  for pair = 1 to 40 do
    let dirty, probe = random_schedules rng topo ~canary:(pair mod 4 = 0) in
    let seed_dirty = Rng.int rng 1_000_000 and seed = Rng.int rng 1_000_000 in
    let at =
      Printf.sprintf "pair %d: %s then %s" pair (Schedule.to_string dirty)
        (Schedule.to_string probe)
    in
    ignore (Oracle.run ~stack ~seed:seed_dirty dirty);
    let o, fp, m = observe (fun () -> Oracle.run ~stack ~seed probe) in
    let o', fp', m' = observe (fun () -> Oracle.run ~stack:(Oracle.stack arena) ~seed probe) in
    check Alcotest.bool (at ^ ": outcome") true (o = o');
    check Alcotest.bool (at ^ ": recording fingerprint") true (fp = fp');
    check Alcotest.string (at ^ ": metrics") m' m;
    outcomes := o.Oracle.verdict :: !outcomes
  done;
  check Alcotest.bool "some probes fail" true (List.exists (fun v -> v <> Oracle.Pass) !outcomes)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Workers reuse their stacks across different trial histories: the
   ledger and the merged metrics are the same at any job count, and
   every trial's judgement is a fresh stack's. *)
let test_campaign_reuse_jobs_invariant () =
  let campaign jobs =
    let ledger = Filename.temp_file "explore-jobs" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove ledger)
      (fun () ->
        let (s, metrics), _ =
          Obs.capture (fun () ->
              let s =
                Explore.run_campaign
                  {
                    Explore.default_config with
                    Explore.budget = 60;
                    seed = 5;
                    jobs = Some jobs;
                    ledger;
                  }
              in
              (s, Metrics.to_json (Metrics.snapshot (Metrics.current ()))))
        in
        (s, read_file ledger, metrics))
  in
  let s, ledger, metrics = campaign 1 in
  check Alcotest.int "60 schedules" 60 s.Explore.total;
  check Alcotest.bool "some shrink runs" true (s.Explore.shrink_steps > 0);
  List.iter
    (fun jobs ->
      let _, ledger', metrics' = campaign jobs in
      check Alcotest.string (Printf.sprintf "ledger at --jobs %d" jobs) ledger ledger';
      check Alcotest.string (Printf.sprintf "metrics at --jobs %d" jobs) metrics metrics')
    [ 2; 4 ];
  List.iter
    (fun (e : Ledger.entry) ->
      let schedule = sched e.Ledger.schedule in
      let o, _ =
        Oracle.run ~stack:(Oracle.stack Explore.default_config.Explore.arena) ~seed:e.Ledger.seed
          schedule
      in
      let at = Printf.sprintf "trial %d" e.Ledger.trial in
      check Alcotest.string (at ^ ": verdict") (Oracle.verdict_to_string o.Oracle.verdict)
        e.Ledger.verdict;
      check Alcotest.int (at ^ ": transient") o.Oracle.transient e.Ledger.transient;
      check (Alcotest.list Alcotest.string) (at ^ ": invariants")
        (List.map (fun v -> v.Invariant.inv) o.Oracle.violations)
        e.Ledger.invariants;
      check
        (Alcotest.option (Alcotest.float 0.0))
        (at ^ ": converged_at")
        (Option.map Time.to_seconds o.Oracle.converged_at)
        e.Ledger.converged_at)
    s.Explore.entries

(* The entries [Ledger.load] reads from a file of [lines], and its
   count of malformed lines. *)
let ledger_lines lines =
  let path = Filename.temp_file "ledger" ".jsonl" in
  Out_channel.with_open_text path (fun oc -> List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  let loaded = Ledger.load path in
  Sys.remove path;
  loaded

let test_ledger_roundtrip () =
  let e =
    {
      Ledger.trial = 3;
      seed = 123456;
      schedule = "part:0-1@1800,loss:0.05@2400";
      fingerprint = "00deadbeef001234";
      verdict = "violation";
      invariants = [ "masc-sibling-overlap"; "masc-sibling-overlap" ];
      trace_ids = [ "m:224.0.0.0/6"; "" ];
      transient = 4;
      converged_at = Some 1830.5;
      deadline = 93600.0;
      min_schedule = Some "part:0-1@1800";
      min_faults = Some 1;
      shrink_steps = Some 9;
      repro_recording = Some "repro/cex-3.recording.jsonl";
      repro_trace = None;
    }
  in
  (match ledger_lines [ Ledger.to_json e ] with
  | [ e' ], 0 -> check Alcotest.bool "round-trip" true (e = e')
  | _ -> Alcotest.fail "round-trip failed");
  let pass = { e with Ledger.verdict = "pass"; invariants = []; trace_ids = [];
               min_schedule = None; min_faults = None; shrink_steps = None;
               repro_recording = None; converged_at = None } in
  (match ledger_lines [ Ledger.to_json pass ] with
  | [ e' ], 0 -> check Alcotest.bool "nulls round-trip" true (pass = e')
  | _ -> Alcotest.fail "null round-trip failed");
  check Alcotest.bool "malformed is skipped" true (ledger_lines [ "{\"trial\": oops}" ] = ([], 1))

let suite =
  [
    Alcotest.test_case "schedule codec round-trips" `Quick test_schedule_codec;
    Alcotest.test_case "schedule end-state analysis" `Quick test_schedule_ends_all_up;
    Alcotest.test_case "generator deterministic, canary enumerated" `Quick
      test_generator_deterministic;
    Alcotest.test_case "verdict rule" `Quick test_verdict_rule;
    Alcotest.test_case "non-convergence from watermarks" `Quick
      test_nonconvergence_from_watermarks;
    Alcotest.test_case "oracle passes the fault-free run" `Quick test_oracle_pass_on_empty_schedule;
    Alcotest.test_case "oracle finds the partition canary" `Quick
      test_oracle_finds_partition_canary;
    Alcotest.test_case "healed partition self-repairs" `Quick
      test_oracle_healed_partition_self_repairs;
    Alcotest.test_case "oracle deterministic" `Quick test_oracle_deterministic;
    Alcotest.test_case "shrinker: essential fault among 8 decoys" `Quick
      test_shrinker_essential_among_decoys;
    Alcotest.test_case "shrinker on the real oracle" `Quick test_shrinker_on_real_oracle;
    Alcotest.test_case "reused stack reads like fresh" `Quick test_reused_stack_reads_like_fresh;
    Alcotest.test_case "campaign stack reuse is job-invariant" `Quick
      test_campaign_reuse_jobs_invariant;
    Alcotest.test_case "ledger round-trips" `Quick test_ledger_roundtrip;
  ]
