(* Golden-figure regression: pin the paper figures' CLI output
   byte-for-byte.  The copies under [golden/] were captured before the
   transport substrate landed, so these tests prove the refactor is
   output-identical at loss zero — any change to scheduling order, RNG
   consumption, or delivery timing shows up here as a diff. *)

let check = Alcotest.check

(* The test runs with cwd [_build/default/test]; the binary and the
   golden copies are declared as deps in [test/dune]. *)
let exe = Filename.concat ".." (Filename.concat "bin" "main.exe")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run [cmd] (a quoted executable and its arguments) with stdout and
   stderr captured together, and compare against [golden/<golden>]. *)
let check_output ~cmd ~golden () =
  let out = Filename.temp_file "golden" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rc = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote out)) in
      check Alcotest.int (cmd ^ ": exit code") 0 rc;
      check Alcotest.string
        (cmd ^ ": output identical to golden/" ^ golden)
        (read_file (Filename.concat "golden" golden))
        (read_file out))

let check_figure ~args ~golden = check_output ~cmd:(Filename.quote exe ^ " " ^ args) ~golden

(* The examples take no arguments; each one's stdout is pinned. *)
let check_example name =
  check_output
    ~cmd:(Filename.quote (Filename.concat ".." (Filename.concat "examples" (name ^ ".exe"))))
    ~golden:("example_" ^ name ^ ".txt")

(* The --metrics key set: which instruments a figure run registers is
   part of the observable contract.  Pinning the (sorted) names — not
   the timing-dependent values — catches a renamed or lost instrument
   without making the test flaky. *)
let check_metric_keys ~args ~golden () =
  let json = Filename.temp_file "metrics" ".json" in
  let out = Filename.temp_file "golden" ".out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ json; out ])
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s --metrics=%s > %s 2>&1" (Filename.quote exe) args
          (Filename.quote json) (Filename.quote out)
      in
      let rc = Sys.command cmd in
      check Alcotest.int (args ^ ": exit code") 0 rc;
      let re = Str.regexp "\"name\": \"\\([^\"]+\\)\"" in
      let keys = ref [] in
      let ic = open_in json in
      (try
         while true do
           let line = input_line ic in
           try
             ignore (Str.search_forward re line 0);
             keys := Str.matched_group 1 line :: !keys
           with Not_found -> ()
         done
       with End_of_file -> ());
      close_in ic;
      let got = String.concat "\n" (List.rev !keys) ^ "\n" in
      check Alcotest.string
        (args ^ ": metric key set identical to golden/" ^ golden)
        (read_file (Filename.concat "golden" golden))
        got)

(* Cross-jobs determinism: the same goldens must hold at any --jobs.
   All randomness is drawn on the submitting domain and Obs shards fold
   back in task order, so the worker count is unobservable. *)

(* The --metrics export must also be byte-identical across job counts;
   only the harness.wall_seconds gauge (real elapsed time) may differ. *)
let check_metrics_jobs_invariant ~args () =
  let run jobs =
    let json = Filename.temp_file "metrics" ".json" in
    let out = Filename.temp_file "golden" ".out" in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ json; out ])
      (fun () ->
        let cmd =
          Printf.sprintf "%s %s --jobs %d --metrics=%s > %s 2>&1" (Filename.quote exe) args jobs
            (Filename.quote json) (Filename.quote out)
        in
        let rc = Sys.command cmd in
        check Alcotest.int (Printf.sprintf "%s --jobs %d: exit code" args jobs) 0 rc;
        String.concat "\n"
          (List.filter
             (fun line ->
               try
                 ignore (Str.search_forward (Str.regexp_string "harness.wall_seconds") line 0);
                 false
               with Not_found -> true)
             (String.split_on_char '\n' (read_file json))))
  in
  check Alcotest.string
    (args ^ ": metrics identical at --jobs 1 and --jobs 4")
    (run 1) (run 4)

(* Byte-identical stdout across job counts, without a golden copy —
   for runs whose exact numbers are pinned elsewhere. *)
let check_stdout_jobs_invariant ~args ~jobs () =
  let run jobs =
    let out = Filename.temp_file "golden" ".out" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
      (fun () ->
        let cmd =
          Printf.sprintf "%s %s --jobs %d > %s 2>&1" (Filename.quote exe) args jobs
            (Filename.quote out)
        in
        let rc = Sys.command cmd in
        check Alcotest.int (Printf.sprintf "%s --jobs %d: exit code" args jobs) 0 rc;
        read_file out)
  in
  match List.map run jobs with
  | [] -> ()
  | first :: rest ->
      List.iteri
        (fun i got ->
          check Alcotest.string
            (Printf.sprintf "%s: output identical at --jobs %d and %d" args (List.hd jobs)
               (List.nth jobs (i + 1)))
            first got)
        rest

(* Flight-recorder fingerprint on stderr must be byte-identical across
   job counts: shard records fold back in task order and each task
   mints spans from a fresh minter, so --jobs is unobservable in the
   event stream too. *)
let check_fingerprint_jobs_invariant ~args ~jobs () =
  let run jobs =
    let err = Filename.temp_file "fp" ".err" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
      (fun () ->
        let cmd =
          Printf.sprintf "%s %s --fingerprint --jobs %d > /dev/null 2> %s" (Filename.quote exe)
            args jobs (Filename.quote err)
        in
        let rc = Sys.command cmd in
        check Alcotest.int (Printf.sprintf "%s --jobs %d: exit code" args jobs) 0 rc;
        let out = read_file err in
        check Alcotest.bool
          (Printf.sprintf "%s --jobs %d: stderr carries a fingerprint" args jobs)
          true
          (try
             ignore (Str.search_forward (Str.regexp_string "fingerprint ") out 0);
             true
           with Not_found -> false);
        out)
  in
  match List.map run jobs with
  | [] -> ()
  | first :: rest ->
      List.iteri
        (fun i got ->
          check Alcotest.string
            (Printf.sprintf "%s: fingerprint identical at --jobs %d and %d" args (List.hd jobs)
               (List.nth jobs (i + 1)))
            first got)
        rest

let contains needle hay =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

(* A run's fingerprint hashes every fired event's time and label, in
   order, so pinning it pins the event stream itself: a change that
   reorders or renames events fails here even when the figure output
   does not move.  [runs] are the CLI arguments; the golden holds each
   one's stderr under a ["$ args"] header. *)
let check_fingerprints ~runs ~golden () =
  let err = Filename.temp_file "fp" ".err" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      let got =
        List.map
          (fun args ->
            let cmd =
              Printf.sprintf "%s %s --fingerprint > /dev/null 2> %s" (Filename.quote exe) args
                (Filename.quote err)
            in
            check Alcotest.int (args ^ ": exit code") 0 (Sys.command cmd);
            "$ " ^ args ^ "\n" ^ read_file err)
          runs
      in
      check Alcotest.string
        ("fingerprints identical to golden/" ^ golden)
        (read_file (Filename.concat "golden" golden))
        (String.concat "" got))

(* --sample writes its series to timeseries.jsonl in the working
   directory, so the run happens in a fresh temp dir and the file's
   bytes are compared against [golden/<golden>]. *)
let check_timeseries ~args ~golden () =
  let dir = Filename.temp_dir "timeseries" "" in
  let file = Filename.concat dir "timeseries.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove file with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "cd %s && %s %s > /dev/null 2>&1" (Filename.quote dir)
          (Filename.quote (Filename.concat (Sys.getcwd ()) exe))
          args
      in
      check Alcotest.int (args ^ ": exit code") 0 (Sys.command cmd);
      check Alcotest.string
        (args ^ ": timeseries.jsonl identical to golden/" ^ golden)
        (read_file (Filename.concat "golden" golden))
        (read_file file))

(* Malformed arguments are command-line errors: a message and a
   non-zero exit from the argument parser, never an uncaught exception
   from inside a run, and never a silent fallback. *)
let check_malformed_arguments () =
  let err = Filename.temp_file "malformed" ".err" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun args ->
          let rc =
            Sys.command
              (Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote exe) args
                 (Filename.quote err))
          in
          let msg = read_file err in
          check Alcotest.bool (args ^ ": exit code non-zero") true (rc <> 0);
          check Alcotest.bool (args ^ ": no uncaught exception") false
            (contains "uncaught exception" msg);
          check Alcotest.bool (args ^ ": the parser names the option") true
            (String.starts_with ~prefix:"masc-bgmp: option '--" msg))
        [
          "fig4 --jobs=-1";
          "beacon --trials 0";
          "fig4-modern --trials 0";
          "fig4-modern --roots 0";
          "demo --loss 2";
          "dot --loss 1.5";
          "demo --sample 0";
          "fig4 --topology foo";
          "beacon --per-domain 0";
          "fig4-modern --groups 0";
          "fig2 --hetero=-5";
          "fig4 --nodes 2";
          "ablate-root --nodes 1";
          "baselines --nodes 0";
          "fig2 --days=-5";
          "ablate-placement --days 0";
          "fig4 --trials=-2";
          "ablate-root --trials 0";
          "baselines --trials=-1";
          "fig4-modern --domains 0";
          "fig4-modern --events=-1";
          "fig4-modern --link-every=-1";
          "beacon --domains=-1";
          "beacon --probes=-1";
          "beacon --probes 0";
          "soak --steps=-1";
          "explore --budget 0";
          "explore --max-faults 0";
        ])

(* Group sizes that do not fit a small topology are skipped, not fatal. *)
let check_baselines_small_topology () =
  let out = Filename.temp_file "baselines" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rc =
        Sys.command
          (Printf.sprintf "%s baselines --nodes 300 --trials 1 > %s 2>&1" (Filename.quote exe)
             (Filename.quote out))
      in
      check Alcotest.int "baselines --nodes 300: exit code" 0 rc;
      let got = read_file out in
      List.iter
        (fun (row, present) ->
          check Alcotest.bool (row ^ (if present then " printed" else " skipped")) present
            (contains row got))
        [
          ("size=  10", true);
          ("size= 100", true);
          ("size= 500", false);
          ("members=  10", true);
          ("members= 100", true);
          ("members= 500", false);
        ])

(* --check-invariants must leave stdout byte-identical: the verdict is
   stderr-only, per the CLI header contract. *)
let check_invariants_stdout_invariant ~args () =
  let run extra =
    let out = Filename.temp_file "ck" ".out" and err = Filename.temp_file "ck" ".err" in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ out; err ])
      (fun () ->
        let cmd =
          Printf.sprintf "%s %s%s > %s 2> %s" (Filename.quote exe) args extra
            (Filename.quote out) (Filename.quote err)
        in
        let rc = Sys.command cmd in
        check Alcotest.int (args ^ extra ^ ": exit code") 0 rc;
        (read_file out, read_file err))
  in
  let plain, _ = run "" in
  let checked, err = run " --check-invariants" in
  check Alcotest.string (args ^ ": stdout unchanged by --check-invariants") plain checked;
  check Alcotest.bool (args ^ ": stderr reports the verdict") true
    (contains "invariants clean" err)

(* End-to-end explorer: the campaign must find the seeded partition
   canary, shrink it to one fault, write a replayable recording naming
   the violated invariant, and produce a byte-identical ledger and
   stdout at any --jobs; triage must render the blamed causal chain. *)
let check_explore_cli () =
  let ledger j = Printf.sprintf "explore_test_j%d.jsonl" j in
  let repro_dir = "explore_test_repro" in
  let out j = Printf.sprintf "explore_test_j%d.out" j in
  let triage_out = "explore_test_triage.out" in
  let jobs = [ 1; 4; 8 ] in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      (triage_out :: List.concat_map (fun j -> [ ledger j; out j ]) jobs);
    if Sys.file_exists repro_dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat repro_dir f) with Sys_error _ -> ())
        (Sys.readdir repro_dir);
      try Sys.rmdir repro_dir with Sys_error _ -> ()
    end
  in
  Fun.protect ~finally:cleanup (fun () ->
      List.iter
        (fun j ->
          let cmd =
            Printf.sprintf "%s explore --budget 10 --seed 7 --jobs %d --ledger %s --repro-dir %s > %s 2>&1"
              (Filename.quote exe) j (ledger j) repro_dir (out j)
          in
          check Alcotest.int (Printf.sprintf "explore --jobs %d: exit code" j) 0 (Sys.command cmd))
        jobs;
      let l1 = read_file (ledger 1) in
      List.iter
        (fun j ->
          check Alcotest.string
            (Printf.sprintf "ledger identical at --jobs 1 and --jobs %d" j)
            l1
            (read_file (ledger j));
          check Alcotest.string
            (Printf.sprintf "stdout identical at --jobs 1 and --jobs %d" j)
            (read_file (out 1)) (read_file (out j)))
        [ 4; 8 ];
      check Alcotest.bool "ledger records the canary violation" true
        (contains "masc-sibling-overlap" l1);
      check Alcotest.bool "canary shrinks to a single fault" true
        (contains "\"min_faults\": 1" l1);
      check Alcotest.bool "ledger points at the repro recording" true
        (contains "cex-0.recording.jsonl" l1);
      let recording = read_file (Filename.concat repro_dir "cex-0.recording.jsonl") in
      check Alcotest.bool "recording names the violated invariant" true
        (contains "explore.violation" recording && contains "masc-sibling-overlap" recording);
      check Alcotest.bool "recording carries the blamed trace id" true
        (contains "claim:" recording);
      let cmd =
        Printf.sprintf "%s report --triage %s > %s 2>&1" (Filename.quote exe) (ledger 1)
          triage_out
      in
      check Alcotest.int "report --triage: exit code" 0 (Sys.command cmd);
      let triage = read_file triage_out in
      check Alcotest.bool "triage buckets by invariant" true
        (contains "masc-sibling-overlap" triage);
      check Alcotest.bool "triage blames the claim chain" true (contains "blames claim:" triage);
      check Alcotest.bool "triage renders the causal chain" true
        (contains "causal chain" triage))

(* End-to-end diff: two demo recordings that differ only in --loss must
   diverge, and the report must say where. *)
let check_record_diff () =
  let rec_a = Filename.temp_file "rec_a" ".jsonl" in
  let rec_b = Filename.temp_file "rec_b" ".jsonl" in
  let out = Filename.temp_file "diff" ".out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ rec_a; rec_b; out ])
    (fun () ->
      let record loss file =
        let cmd =
          Printf.sprintf "%s demo --loss %s --record=%s > /dev/null 2>&1" (Filename.quote exe)
            loss (Filename.quote file)
        in
        check Alcotest.int ("demo --loss " ^ loss ^ ": exit code") 0 (Sys.command cmd)
      in
      record "0.0" rec_a;
      record "0.02" rec_b;
      let diff a b =
        Sys.command
          (Printf.sprintf "%s report --diff %s %s > %s 2>&1" (Filename.quote exe)
             (Filename.quote a) (Filename.quote b) (Filename.quote out))
      in
      check Alcotest.int "identical recordings: exit 0" 0 (diff rec_a rec_a);
      let has needle hay =
        try
          ignore (Str.search_forward (Str.regexp_string needle) hay 0);
          true
        with Not_found -> false
      in
      check Alcotest.bool "identical recordings reported as such" true
        (has "identical" (read_file out));
      check Alcotest.int "divergent recordings: exit 1" 1 (diff rec_a rec_b);
      let report = read_file out in
      check Alcotest.bool "first divergence located" true (has "first divergence" report);
      check Alcotest.bool "loss shows up as a drop record" true (has "net.drop." report);
      (* Protocol records share the stream, so the causal-chain section
         explains the divergence in protocol terms. *)
      let chains =
        let i = Str.search_forward (Str.regexp_string "--- causal chain") report 0 in
        String.sub report i (String.length report - i)
      in
      check Alcotest.bool "causal chain shows protocol detail" true
        (List.exists
           (fun tag -> has (" " ^ tag ^ " ") chains)
           [ "claim"; "grib-update"; "join-hop" ]))

(* [trace] over a demo recording renders the protocol narrative the
   pre-recorder trace sink produced, byte for byte. *)
let check_recording_trace () =
  let recording = Filename.temp_file "demo" ".jsonl" in
  let out = Filename.temp_file "trace" ".out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ recording; out ])
    (fun () ->
      let run args =
        Sys.command
          (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) args (Filename.quote out))
      in
      check Alcotest.int "demo --record: exit code" 0
        (run ("demo --record=" ^ Filename.quote recording));
      check Alcotest.int "trace: exit code" 0 (run ("trace " ^ Filename.quote recording));
      check Alcotest.string "trace output identical to golden/fig1_trace.txt"
        (read_file (Filename.concat "golden" "fig1_trace.txt"))
        (read_file out);
      check Alcotest.int "trace --id: exit code" 0
        (run ("trace --id claim:0:224.0.0.0/24 " ^ Filename.quote recording));
      check Alcotest.bool "claim chain has its nine records" true
        (contains "trace claim:0:224.0.0.0/24 (9 entries)" (read_file out)))

(* A recording whose writer died mid-line: the demo's recording with its
   last record cut in half.  [trace] names the cut instead of counting
   a malformed line, and [report --diff] names the cut side in its
   header and in its prefix verdict; exit codes are those of a whole
   file (0 for trace, 1 for a diff of unequal streams). *)
let check_cut_recording () =
  let whole = Filename.temp_file "whole" ".jsonl" and cut = Filename.temp_file "cut" ".jsonl" in
  let out = Filename.temp_file "cut" ".out" and err = Filename.temp_file "cut" ".err" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ whole; cut; out; err ])
    (fun () ->
      let run args =
        Sys.command
          (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe) args (Filename.quote out)
             (Filename.quote err))
      in
      check Alcotest.int "demo --record: exit code" 0 (run ("demo --record=" ^ Filename.quote whole));
      let text = read_file whole in
      (* Drop the final newline and the second half of the last record. *)
      let body = String.sub text 0 (String.length text - 1) in
      let last = String.rindex body '\n' + 1 in
      let keep = last + ((String.length body - last) / 2) in
      Out_channel.with_open_bin cut (fun oc -> output_string oc (String.sub body 0 keep));
      let whole_records = List.length (String.split_on_char '\n' body) in
      check Alcotest.int "trace of the cut file: exit code" 0 (run ("trace " ^ Filename.quote cut));
      check Alcotest.string "trace names the cut"
        (Printf.sprintf "trace %s: last line cut off mid-record\n" cut)
        (read_file err);
      check Alcotest.int "report --diff: exit code" 1
        (run (Printf.sprintf "report --diff %s %s" (Filename.quote whole) (Filename.quote cut)));
      let diff = read_file out in
      check Alcotest.bool "the header names the cut side" true
        (contains
           (Printf.sprintf "--- diff: %s (%d records) vs %s (%d records, last line cut off mid-record) ---"
              whole whole_records cut (whole_records - 1))
           diff);
      check Alcotest.bool "the prefix verdict names it too" true
        (contains
           (Printf.sprintf "streams agree for all %d common records, where %s was cut off;"
              (whole_records - 1) cut)
           diff);
      check Alcotest.string "stderr names the cut, not a malformed count"
        (Printf.sprintf "recording %s: last line cut off mid-record\n" cut)
        (read_file err))

(* A ledger line as a campaign writes it for a trial that violated one
   invariant and blamed [trace_ids]. *)
let ledger_line ?(trace_ids = [ "claim:0:224.0.0.0/24" ]) trial =
  Ledger.to_json
    {
      Ledger.trial;
      seed = 7;
      schedule = "partition 0-1 @1h";
      fingerprint = "0";
      verdict = Oracle.verdict_to_string Oracle.Violation;
      invariants = [ "masc-sibling-overlap" ];
      trace_ids;
      transient = 0;
      converged_at = None;
      deadline = 0.0;
      min_schedule = None;
      min_faults = None;
      shrink_steps = None;
      repro_recording = None;
      repro_trace = None;
    }

(* A ledger whose writer died mid-line: two whole lines and half of a
   third.  [report --triage] names the cut on stderr instead of
   counting a malformed line, and triages the whole lines. *)
let check_cut_ledger () =
  let cut = Filename.temp_file "cut" ".jsonl" in
  let out = Filename.temp_file "cut" ".out" and err = Filename.temp_file "cut" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ cut; out; err ])
    (fun () ->
      let last = ledger_line 2 in
      Out_channel.with_open_bin cut (fun oc ->
          output_string oc (ledger_line 0 ^ "\n" ^ ledger_line 1 ^ "\n");
          output_string oc (String.sub last 0 (String.length last / 2)));
      let rc =
        Sys.command
          (Printf.sprintf "%s report --triage %s > %s 2> %s" (Filename.quote exe)
             (Filename.quote cut) (Filename.quote out) (Filename.quote err))
      in
      check Alcotest.int "report --triage of the cut ledger: exit code" 0 rc;
      check Alcotest.string "stderr names the cut, not a malformed count"
        (Printf.sprintf "ledger %s: last line cut off mid-record\n" cut)
        (read_file err);
      check Alcotest.bool "the whole lines are triaged" true (contains "2 outcomes" (read_file out)))

(* A BGMP data loop stops the run: the soak at seed 2 reaches one at
   step 24 (a flooding MIGP re-floods a foreign source's packet that
   re-enters through another border router), and seeds 35 and 43 reach
   one within 300 steps.  The run must exit 3 within 10 s with exactly
   [line] on stderr, which pins where the loop is caught, and its
   recording must end at a whole record. *)
let check_data_loop_exit ~steps ~seed ~line () =
  let recording = Filename.temp_file "loop" ".jsonl" in
  let err = Filename.temp_file "loop" ".err" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ recording; err ])
    (fun () ->
      let rc =
        Sys.command
          (Printf.sprintf "timeout 10 %s soak --steps %d --seed %d --record=%s > /dev/null 2> %s"
             (Filename.quote exe) steps seed (Filename.quote recording) (Filename.quote err))
      in
      check Alcotest.int
        (Printf.sprintf "soak --steps %d --seed %d: exit 3 within 10 s" steps seed)
        3 rc;
      check Alcotest.string "stderr is the one loop line" (line ^ "\n") (read_file err);
      let text = read_file recording in
      check Alcotest.bool "recording ends at a line end" true
        (text <> "" && text.[String.length text - 1] = '\n');
      let records, bad = Recorder.load_jsonl recording in
      check Alcotest.int "every recording line parses" 0 bad;
      check Alcotest.bool "recording is not empty" true (records <> []))

(* Unreadable inputs end the command with a message and exit code 2,
   never an uncaught exception. *)
let check_unreadable_inputs () =
  let dir = Filename.get_temp_dir_name () in
  let err = Filename.temp_file "unreadable" ".err" in
  (* Files that open but hold no valid line: two lines of text, and 300
     seeded random bytes with no newline (one malformed line). *)
  let text = Filename.temp_file "text" ".jsonl" and binary = Filename.temp_file "binary" ".jsonl" in
  Out_channel.with_open_bin text (fun oc -> output_string oc "hello world\nnot json either\n");
  let rng = Rng.create 300 in
  Out_channel.with_open_bin binary (fun oc ->
      for _ = 1 to 300 do
        let b = Rng.int rng 255 in
        output_char oc (Char.chr (if b >= Char.code '\n' then b + 1 else b))
      done);
  (* A ledger line whose blamed trace ids do not line up with its
     violated invariants. *)
  let mismatched = Filename.temp_file "mismatched" ".jsonl" in
  Out_channel.with_open_bin mismatched (fun oc ->
      output_string oc (ledger_line ~trace_ids:[] 0 ^ "\n"));
  let no_valid what file n = Printf.sprintf "%s %s: no valid line, %d malformed\n" what file n in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ err; text; binary; mismatched ])
    (fun () ->
      List.iter
        (fun (args, message) ->
          let rc =
            Sys.command
              (Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote exe) args
                 (Filename.quote err))
          in
          check Alcotest.int (args ^ ": exit code") 2 rc;
          check Alcotest.string (args ^ ": message") message (read_file err))
        [
          ("trace " ^ Filename.quote dir, Printf.sprintf "trace %s: Is a directory\n" dir);
          ( "report --profile " ^ Filename.quote dir,
            Printf.sprintf "profile %s: Is a directory\n" dir );
          ( "report --matrix " ^ Filename.quote dir,
            Printf.sprintf "matrix %s: Is a directory\n" dir );
          ( "report --triage " ^ Filename.quote dir,
            Printf.sprintf "ledger %s: Is a directory\n" dir );
          ( Printf.sprintf "report --diff %s %s" (Filename.quote text) (Filename.quote binary),
            no_valid "recording" text 2 );
          ( Printf.sprintf "report --diff %s %s" (Filename.quote binary) (Filename.quote binary),
            no_valid "recording" binary 1 );
          ("report --triage " ^ Filename.quote text, no_valid "ledger" text 2);
          ("report --triage " ^ Filename.quote mismatched, no_valid "ledger" mismatched 1);
          ("trace " ^ Filename.quote binary, no_valid "trace" binary 1);
          ("report --profile " ^ Filename.quote text, no_valid "profile" text 2);
          ("report --matrix " ^ Filename.quote binary, no_valid "matrix" binary 1);
        ])

let suite =
  [
    ("fig1 demo", `Quick, check_figure ~args:"demo" ~golden:"fig1_demo.txt");
    ("fig3 dot", `Quick, check_figure ~args:"dot" ~golden:"fig3_dot.txt");
    ( "fig2 summary",
      `Quick,
      check_figure ~args:"fig2 --summary --days 450" ~golden:"fig2_summary.txt" );
    ( "fig4 summary",
      `Quick,
      check_figure ~args:"fig4 --summary --nodes 1000 --trials 5" ~golden:"fig4_summary.txt" );
    ( "fig4 summary --jobs 4",
      `Quick,
      check_figure ~args:"fig4 --summary --nodes 1000 --trials 5 --jobs 4"
        ~golden:"fig4_summary.txt" );
    ( "fig4 summary --jobs 8",
      `Quick,
      check_figure ~args:"fig4 --summary --nodes 1000 --trials 5 --jobs 8"
        ~golden:"fig4_summary.txt" );
    ( "fig4 metrics identical across jobs",
      `Quick,
      check_metrics_jobs_invariant ~args:"fig4 --summary --nodes 200 --trials 3" );
    ( "beacon summary",
      `Quick,
      check_figure
        ~args:"beacon --domains 8 --per-domain 1 --probes 2 --check-invariants"
        ~golden:"beacon_summary.txt" );
    ( "beacon summary --jobs 4",
      `Quick,
      check_figure
        ~args:"beacon --domains 8 --per-domain 1 --probes 2 --check-invariants --jobs 4"
        ~golden:"beacon_summary.txt" );
    ( "beacon lossy matrix identical across jobs",
      `Quick,
      check_stdout_jobs_invariant
        ~args:"beacon --domains 8 --per-domain 1 --probes 2 --trials 3 --loss 0.05"
        ~jobs:[ 1; 4; 8 ] );
    ( "fig4-modern summary",
      `Quick,
      check_figure
        ~args:"fig4-modern --domains 600 --groups 50 --events 1500 --trials 2"
        ~golden:"fig4_modern_summary.txt" );
    ( "fig4-modern summary --jobs 4",
      `Quick,
      check_figure
        ~args:"fig4-modern --domains 600 --groups 50 --events 1500 --trials 2 --jobs 4"
        ~golden:"fig4_modern_summary.txt" );
    ( "fig4-modern metrics identical across jobs",
      `Quick,
      check_metrics_jobs_invariant
        ~args:"fig4-modern --summary --domains 600 --groups 50 --events 1500 --trials 2" );
    ( "fig4-modern fingerprint identical across jobs",
      `Quick,
      check_fingerprint_jobs_invariant
        ~args:"fig4-modern --summary --domains 600 --groups 50 --events 1500 --trials 2"
        ~jobs:[ 1; 4 ] );
    ( "fig2 metric keys",
      `Quick,
      check_metric_keys ~args:"fig2 --summary --days 30" ~golden:"fig2_metrics_keys.txt" );
    ( "fig4 metric keys",
      `Quick,
      check_metric_keys ~args:"fig4 --summary --nodes 200 --trials 3"
        ~golden:"fig4_metrics_keys.txt" );
    ( "fig4 fingerprint identical across jobs",
      `Quick,
      check_fingerprint_jobs_invariant ~args:"fig4 --summary --nodes 200 --trials 8"
        ~jobs:[ 1; 4; 8 ] );
    ( "fig2 fingerprint",
      `Quick,
      check_fingerprints
        ~runs:
          [
            "fig2 --summary --days 60";
            "fig2 --summary --days 60 --hetero 5";
            "ablate-placement --days 60";
            (* The 60-day runs end before any claim is right-sized at
               renewal or any top claim is released; 150 days reach both. *)
            "fig2 --summary --days 150";
          ]
        ~golden:"fig2_fingerprints.txt" );
    ( "net fingerprint",
      `Quick,
      check_fingerprints
        ~runs:
          [
            "demo";
            "soak --steps 40";
            "soak --steps 40 --loss 0.05";
            "beacon --domains 32 --per-domain 2 --probes 5 --loss 0.05 --churn";
          ]
        ~golden:"net_fingerprints.txt" );
    ( "beacon fingerprint identical across jobs",
      `Quick,
      check_fingerprint_jobs_invariant
        ~args:"beacon --domains 8 --per-domain 1 --probes 2 --trials 3 --loss 0.05"
        ~jobs:[ 1; 4; 8 ] );
    ("report --diff on demo recordings", `Quick, check_record_diff);
    ("trace over a demo recording", `Quick, check_recording_trace);
    ("unreadable inputs exit 2", `Quick, check_unreadable_inputs);
    ( "data loop exits 3 with a whole recording",
      `Quick,
      check_data_loop_exit ~steps:24 ~seed:2
        ~line:"soak: data loop: payload 23 to 224.0.0.0 from h21.42 still circling at domain 18" );
    ( "demo telemetry",
      `Quick,
      check_timeseries ~args:"demo --sample 600" ~golden:"demo_timeseries.txt" );
    ( "fig2 telemetry",
      `Quick,
      check_timeseries ~args:"fig2 --days 30 --sample 1" ~golden:"fig2_timeseries.txt" );
    ( "fig4-modern --check-invariants leaves stdout unchanged",
      `Quick,
      check_invariants_stdout_invariant
        ~args:"fig4-modern --domains 600 --groups 50 --events 1500 --trials 2" );
    ( "fig2 --check-invariants leaves stdout unchanged",
      `Quick,
      check_invariants_stdout_invariant ~args:"fig2 --summary --days 30" );
    ( "soak --check-invariants leaves stdout unchanged",
      `Quick,
      check_invariants_stdout_invariant ~args:"soak --steps 40" );
    ("explore finds, shrinks, reproduces; ledger jobs-invariant", `Quick, check_explore_cli);
    ( "ablate-placement",
      `Quick,
      check_figure ~args:"ablate-placement --days 10" ~golden:"ablate_placement.txt" );
    ( "ablate-threshold",
      `Quick,
      check_figure ~args:"ablate-threshold --days 10" ~golden:"ablate_threshold.txt" );
    ( "ablate-root",
      `Quick,
      check_figure ~args:"ablate-root --nodes 200 --trials 3" ~golden:"ablate_root.txt" );
    ("ablate-kampai", `Quick, check_figure ~args:"ablate-kampai --days 60" ~golden:"ablate_kampai.txt");
    ("ablate-claim", `Quick, check_figure ~args:"ablate-claim" ~golden:"ablate_claim.txt");
    ( "baselines",
      `Quick,
      check_figure ~args:"baselines --nodes 600 --trials 1" ~golden:"baselines.txt" );
    ("baselines on a small topology", `Quick, check_baselines_small_topology);
    ("soak", `Quick, check_figure ~args:"soak --steps 40" ~golden:"soak.txt");
    ("soak lossy", `Quick, check_figure ~args:"soak --steps 40 --loss 0.05" ~golden:"soak_loss.txt");
    ("malformed arguments exit non-zero", `Quick, check_malformed_arguments);
    ("a cut recording is named, not counted", `Quick, check_cut_recording);
    ("a cut ledger is named, not counted", `Quick, check_cut_ledger);
  ]
  @ List.map
      (fun name -> ("example " ^ name, `Quick, check_example name))
      [
        "quickstart";
        "shared_tree_walkthrough";
        "teleconference";
        "policy_routing";
        "address_allocation";
        "flash_crowd";
        "provider_failover";
      ]
  @ [
      ( "data loop at seed 35 exits 3",
        `Quick,
        check_data_loop_exit ~steps:300 ~seed:35
          ~line:"soak: data loop: payload 68 to 224.0.0.0 from h16.42 still circling at domain 14"
      );
      ( "data loop at seed 43 exits 3",
        `Quick,
        check_data_loop_exit ~steps:300 ~seed:43
          ~line:"soak: data loop: payload 261 to 224.0.0.0 from h25.42 still circling at domain 22"
      );
    ]
