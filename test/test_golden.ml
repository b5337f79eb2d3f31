(* Golden-figure regression: pin the paper figures' CLI output
   byte-for-byte.  The copies under [golden/] were captured before the
   transport substrate landed, so these tests prove the refactor is
   output-identical at loss zero — any change to scheduling order, RNG
   consumption, or delivery timing shows up here as a diff.

   The check helpers serve two tiers: [suite] below, which [dune
   runtest] runs, and the full-scale rows of [ci_full.ml], which [dune
   build @ci-full] runs. *)

let check = Alcotest.check

(* Both tiers start in [_build/<context>/test], where [test/dune]
   declares the binaries and the golden copies as deps; the paths are
   absolute, so a check may run the CLI from another directory. *)
let here = Sys.getcwd ()

let built dir exe = Filename.concat here (Filename.concat ".." (Filename.concat dir exe))

let exe = built "bin" "main.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_golden name = read_file (Filename.concat here (Filename.concat "golden" name))

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* A file, a symbolic link (even a dangling one) or a directory tree. *)
let rec remove_tree path =
  try Sys.remove path
  with Sys_error _ -> (
    try
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    with Sys_error _ -> ())

(* When set, checks keep their output files in the working directory
   (the full-scale tier's artifact directory) instead of removing
   them. *)
let keep_files = ref false

(* [with_files f] gives [f] a namer of output files: [file name] is a
   temporary path (the same one for the same name), removed once [f]
   returns, or, under [keep_files], [name] made safe for a file name.
   Names start with the command line that writes the file, so a kept
   file says where it came from. *)
let with_files f =
  let made = Hashtbl.create 8 in
  let file name =
    if !keep_files then String.map (function ' ' | '/' | '=' -> '_' | c -> c) name
    else
      match Hashtbl.find_opt made name with
      | Some path -> path
      | None ->
          let path = Filename.temp_file "golden" "" in
          Hashtbl.add made name path;
          path
  in
  Fun.protect ~finally:(fun () -> Hashtbl.iter (fun _ path -> remove_tree path) made) (fun () ->
      f file)

(* [file name] as an empty directory. *)
let fresh_dir file name =
  let dir = file name in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  dir

(* Run [cmd] (the CLI's arguments, or with [~program] another
   executable's) with stdout to [out] and stderr to [err] (both to one
   file when [err = out]), killed after [timeout] seconds (exit 124);
   its exit code. *)
let run_cli ?timeout ?(program = exe) cmd ~out ~err =
  Sys.command
    (Printf.sprintf "%s%s %s > %s %s"
       (match timeout with Some s -> Printf.sprintf "timeout %d " s | None -> "")
       (Filename.quote program) cmd (Filename.quote out)
       (if err = out then "2>&1" else "2> " ^ Filename.quote err))

let contains needle hay =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

(* Run [args ^ flags] with --metrics, each output named [file (args ^
   ext)]; the exit code must be 0.  The snapshot: every metric's name
   and JSON object, in file order. *)
let metrics_of_run file ?(flags = "") args =
  let json = file (args ^ ".metrics.json") in
  let rc =
    run_cli
      (Printf.sprintf "%s%s --metrics=%s" args flags (Filename.quote json))
      ~out:(file (args ^ ".out")) ~err:(file (args ^ ".err"))
  in
  check Alcotest.int (args ^ ": exit code") 0 rc;
  let metric m = Option.map (fun name -> (name, m)) (Jsonl.field "name" Jsonl.to_string m) in
  let snapshot = Jsonl.parse (read_file json) in
  match Option.bind snapshot (Jsonl.field "metrics" (Jsonl.to_list metric)) with
  | Some metrics -> metrics
  | None -> Alcotest.failf "%s: not a metrics snapshot" json

(* A counter's or a gauge's value in a snapshot. *)
let metric_value metrics name =
  match Option.bind (List.assoc_opt name metrics) (Jsonl.field "value" Jsonl.to_float) with
  | Some v -> v
  | None -> Alcotest.failf "metric %s: not in the snapshot" name

(* A JSON value as text, so a failed comparison shows a readable diff. *)
let rec show_json = function
  | Jsonl.Null -> "null"
  | Jsonl.Number f -> Printf.sprintf "%.17g" f
  | Jsonl.String s -> "\"" ^ Jsonl.json_escape s ^ "\""
  | Jsonl.Array vs -> "[" ^ String.concat ", " (List.map show_json vs) ^ "]"
  | Jsonl.Object kvs ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (show_json v)) kvs)
      ^ "}"

(* Run [program] on [cmd] with stdout and stderr captured together, and
   compare against [golden/<golden>]. *)
let check_output ~program ~cmd ~golden () =
  with_files (fun file ->
      let what = String.trim (Filename.basename program ^ " " ^ cmd) in
      let out = file (what ^ ".out") in
      check Alcotest.int (what ^ ": exit code") 0 (run_cli ~program cmd ~out ~err:out);
      check Alcotest.string
        (what ^ ": output identical to golden/" ^ golden)
        (read_golden golden) (read_file out))

let check_figure ~args ~golden = check_output ~program:exe ~cmd:args ~golden

(* The examples take no arguments; each one's stdout is pinned. *)
let check_example name =
  check_output
    ~program:(built "examples" (name ^ ".exe"))
    ~cmd:"" ~golden:("example_" ^ name ^ ".txt")

(* The --metrics key set: which instruments a figure run registers is
   part of the observable contract.  Pinning the (sorted) names — not
   the timing-dependent values — catches a renamed or lost instrument
   without making the test flaky. *)
let check_metric_keys ~args ~golden () =
  with_files (fun file ->
      check Alcotest.string
        (args ^ ": metric key set identical to golden/" ^ golden)
        (read_golden golden)
        (String.concat "" (List.map (fun (name, _) -> name ^ "\n") (metrics_of_run file args))))

(* Cross-jobs determinism: the same goldens must hold at any --jobs.
   All randomness is drawn on the submitting domain and Obs shards fold
   back in task order, so the worker count is unobservable.

   [run j] returns named views of one run at [--jobs j]; each view must
   be the same at every count in [jobs] as at the first. *)
let check_same_at_jobs ~args ~jobs run =
  match jobs with
  | [] -> ()
  | first :: rest ->
      let want = run first in
      List.iter
        (fun j ->
          List.iter2
            (fun (what, a) (_, b) ->
              check Alcotest.string
                (Printf.sprintf "%s: %s identical at --jobs %d and %d" args what first j)
                a b)
            want (run j))
        rest

(* [args] (which may ask for --fingerprint) with --metrics and
   --profile: stdout, stderr, the metrics (less the
   harness.wall_seconds gauge, real elapsed time) and the profile's
   (path, count) pairs. *)
let check_metrics_jobs_invariant ~args ~jobs () =
  with_files (fun file ->
      check_same_at_jobs ~args ~jobs (fun j ->
             let cmd = Printf.sprintf "%s --jobs %d" args j in
             let profile = file (cmd ^ ".profile.jsonl") in
             let metrics =
               metrics_of_run file ~flags:(" --profile=" ^ Filename.quote profile) cmd
             in
             let pairs, bad =
               Jsonl.load_counted profile (fun span ->
                   let path = Jsonl.field "path" Jsonl.to_string span in
                   match (path, Jsonl.field "count" Jsonl.to_int span) with
                   | Some path, Some count -> Some (Printf.sprintf "%s %d\n" path count)
                   | _ -> None)
             in
             check Alcotest.int (cmd ^ ": every profile line parses") 0 bad;
             [
               ("stdout", read_file (file (cmd ^ ".out")));
               ("stderr", read_file (file (cmd ^ ".err")));
               ( "metrics",
                 String.concat ""
                   (List.filter_map
                      (fun (name, m) ->
                        if name = "harness.wall_seconds" then None else Some (show_json m ^ "\n"))
                      metrics) );
               ("profile (path, count) pairs", String.concat "" pairs);
             ]))

(* Byte-identical stdout across job counts, without a golden copy —
   for runs whose exact numbers are pinned elsewhere. *)
let check_stdout_jobs_invariant ~args ~jobs () =
  with_files (fun file ->
      check_same_at_jobs ~args ~jobs (fun j ->
             let cmd = Printf.sprintf "%s --jobs %d" args j in
             let out = file (cmd ^ ".out") in
             check Alcotest.int (cmd ^ ": exit code") 0 (run_cli cmd ~out ~err:out);
             [ ("output", read_file out) ]))

(* Flight-recorder fingerprint on stderr must be byte-identical across
   job counts: shard records fold back in task order and each task
   mints spans from a fresh minter, so --jobs is unobservable in the
   event stream too. *)
let check_fingerprint_jobs_invariant ~args ~jobs () =
  with_files (fun file ->
      check_same_at_jobs ~args ~jobs (fun j ->
             let cmd = Printf.sprintf "%s --fingerprint --jobs %d" args j in
             let err = file (cmd ^ ".err") in
             check Alcotest.int (cmd ^ ": exit code") 0 (run_cli cmd ~out:"/dev/null" ~err);
             let fingerprint = read_file err in
             check Alcotest.bool (cmd ^ ": stderr carries a fingerprint") true
               (contains "fingerprint " fingerprint);
             [ ("fingerprint", fingerprint) ]))

(* A run's fingerprint hashes every fired event's time and label, in
   order, so pinning it pins the event stream itself: a change that
   reorders or renames events fails here even when the figure output
   does not move.  [runs] are the CLI arguments; the golden holds each
   one's stderr under a ["$ args"] header. *)
let check_fingerprints ~runs ~golden () =
  with_files (fun file ->
      let got =
        List.map
          (fun args ->
            let cmd = args ^ " --fingerprint" in
            let err = file (cmd ^ ".err") in
            check Alcotest.int (args ^ ": exit code") 0 (run_cli cmd ~out:"/dev/null" ~err);
            "$ " ^ args ^ "\n" ^ read_file err)
          runs
      in
      check Alcotest.string
        ("fingerprints identical to golden/" ^ golden)
        (read_golden golden) (String.concat "" got))

(* --sample writes its series to timeseries.jsonl in the working
   directory, so each run happens in a directory of its own.  The
   series must equal [golden/<g>] ([`Golden g]), or be the same at
   every count in [`Jobs counts]. *)
let check_timeseries ~args ~expect () =
  with_files (fun file ->
      let series cmd =
        let dir = fresh_dir file (cmd ^ ".sample") in
        let rc =
          Sys.command
            (Printf.sprintf "cd %s && %s %s > /dev/null 2>&1" (Filename.quote dir)
               (Filename.quote exe) cmd)
        in
        check Alcotest.int (cmd ^ ": exit code") 0 rc;
        read_file (Filename.concat dir "timeseries.jsonl")
      in
      match expect with
      | `Golden golden ->
          check Alcotest.string
            (args ^ ": timeseries.jsonl identical to golden/" ^ golden)
            (read_golden golden) (series args)
      | `Jobs jobs ->
          check_same_at_jobs ~args ~jobs (fun j ->
              [ ("timeseries.jsonl", series (Printf.sprintf "%s --jobs %d" args j)) ]))

(* Malformed arguments are command-line errors: a message and a
   non-zero exit from the argument parser, never an uncaught exception
   from inside a run, and never a silent fallback. *)
let check_malformed_arguments () =
  with_files (fun file ->
      List.iter
        (fun args ->
          let err = file (args ^ ".err") in
          let rc = run_cli args ~out:"/dev/null" ~err in
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
  with_files (fun file ->
      let cmd = "baselines --nodes 300 --trials 1" in
      let out = file (cmd ^ ".out") in
      check Alcotest.int "baselines --nodes 300: exit code" 0 (run_cli cmd ~out ~err:out);
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
   stderr-only, per the CLI header contract, and a clean run reports
   "<subcommand>: invariants clean". *)
let check_invariants_stdout_invariant ~args () =
  with_files (fun file ->
      let run cmd =
        let out = file (cmd ^ ".out") and err = file (cmd ^ ".err") in
        check Alcotest.int (cmd ^ ": exit code") 0 (run_cli cmd ~out ~err);
        (read_file out, read_file err)
      in
      let verdict = List.hd (String.split_on_char ' ' args) ^ ": invariants clean" in
      let plain, _ = run args in
      let checked, err = run (args ^ " --check-invariants") in
      check Alcotest.string (args ^ ": stdout unchanged by --check-invariants") plain checked;
      check Alcotest.bool
        (Printf.sprintf "%s: stderr reports %S" args verdict)
        true (contains verdict err))

(* End-to-end explorer: a [budget]-schedule campaign must find the
   seeded partition canary, shrink it to one fault, write a replayable
   recording naming the violated invariant, skip predicates whose state
   did not move, and produce a byte-identical ledger and stdout at
   every count in [jobs]; triage must render the blamed causal
   chain. *)
let check_explore_cli ~budget ~jobs () =
  with_files (fun file ->
      let campaign = Printf.sprintf "explore --budget %d --seed 7" budget in
      (* The ledger names the repro files, so every run writes them to
         one directory. *)
      let repro_dir = file (campaign ^ ".repro") in
      let ledger = file (campaign ^ ".ledger.jsonl") in
      let at j = Printf.sprintf "%s --jobs %d" campaign j in
      check_same_at_jobs ~args:campaign ~jobs (fun j ->
          let args = at j in
          let metrics =
            metrics_of_run file
              ~flags:
                (Printf.sprintf " --ledger %s --repro-dir %s" (Filename.quote ledger)
                   (Filename.quote (fresh_dir file (campaign ^ ".repro"))))
              args
          in
          check Alcotest.bool (args ^ ": the cadence monitor skipped unmoved predicates") true
            (metric_value metrics "invariant.skipped" > 0.0);
          [ ("ledger", read_file ledger); ("stdout", read_file (file (args ^ ".out"))) ]);
      (* The runs agree, so one run's files stand for all. *)
      let stdout = read_file (file (at (List.hd jobs) ^ ".out")) in
      check Alcotest.bool "summary names the canary violation" true
        (contains "masc-sibling-overlap" stdout);
      let l1 = read_file ledger in
      check Alcotest.bool "ledger records the canary violation" true
        (contains "masc-sibling-overlap" l1);
      check Alcotest.bool "canary shrinks to a single fault" true (contains "\"min_faults\": 1" l1);
      check Alcotest.bool "ledger points at the repro recording" true
        (contains "cex-0.recording.jsonl" l1);
      let recording = read_file (Filename.concat repro_dir "cex-0.recording.jsonl") in
      check Alcotest.bool "recording names the violated invariant" true
        (contains "explore.violation" recording && contains "masc-sibling-overlap" recording);
      check Alcotest.bool "recording carries the blamed trace id" true
        (contains "claim:" recording);
      let triage_out = file (campaign ^ ".triage.txt") in
      check Alcotest.int "report --triage: exit code" 0
        (run_cli ("report --triage " ^ Filename.quote ledger) ~out:triage_out ~err:triage_out);
      let triage = read_file triage_out in
      check Alcotest.bool "triage buckets by invariant" true
        (contains "masc-sibling-overlap" triage);
      check Alcotest.bool "triage blames the claim chain" true (contains "blames claim:" triage);
      check Alcotest.bool "triage renders the causal chain" true (contains "causal chain" triage))

(* End-to-end diff: two demo recordings that differ only in --loss must
   diverge, and the report must say where. *)
let check_record_diff () =
  with_files (fun file ->
      let record loss =
        let recording = file ("demo --loss " ^ loss ^ ".recording.jsonl") in
        check Alcotest.int ("demo --loss " ^ loss ^ ": exit code") 0
          (run_cli
             (Printf.sprintf "demo --loss %s --record=%s" loss (Filename.quote recording))
             ~out:"/dev/null" ~err:"/dev/null");
        recording
      in
      let rec_a = record "0.0" and rec_b = record "0.02" in
      let out = file "report --diff.out" in
      let diff a b =
        run_cli
          (Printf.sprintf "report --diff %s %s" (Filename.quote a) (Filename.quote b))
          ~out ~err:out
      in
      check Alcotest.int "identical recordings: exit 0" 0 (diff rec_a rec_a);
      check Alcotest.bool "identical recordings reported as such" true
        (contains "identical" (read_file out));
      check Alcotest.int "divergent recordings: exit 1" 1 (diff rec_a rec_b);
      let report = read_file out in
      check Alcotest.bool "first divergence located" true (contains "first divergence" report);
      check Alcotest.bool "loss shows up as a drop record" true (contains "net.drop." report);
      (* Protocol records share the stream, so the causal-chain section
         explains the divergence in protocol terms. *)
      let chains =
        let i = Str.search_forward (Str.regexp_string "--- causal chain") report 0 in
        String.sub report i (String.length report - i)
      in
      check Alcotest.bool "causal chain shows protocol detail" true
        (List.exists
           (fun tag -> contains (" " ^ tag ^ " ") chains)
           [ "claim"; "grib-update"; "join-hop" ]))

(* [trace] over a demo recording renders the protocol narrative the
   pre-recorder trace sink produced, byte for byte. *)
let check_recording_trace () =
  with_files (fun file ->
      let recording = file "demo.recording.jsonl" and out = file "trace.out" in
      let run args = run_cli args ~out ~err:out in
      check Alcotest.int "demo --record: exit code" 0
        (run ("demo --record=" ^ Filename.quote recording));
      check Alcotest.int "trace: exit code" 0 (run ("trace " ^ Filename.quote recording));
      check Alcotest.string "trace output identical to golden/fig1_trace.txt"
        (read_golden "fig1_trace.txt") (read_file out);
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
  with_files (fun file ->
      let whole = file "whole.recording.jsonl" and cut = file "cut.recording.jsonl" in
      let out = file "cut.out" and err = file "cut.err" in
      let run args = run_cli args ~out ~err in
      check Alcotest.int "demo --record: exit code" 0 (run ("demo --record=" ^ Filename.quote whole));
      let text = read_file whole in
      (* Drop the final newline and the second half of the last record. *)
      let body = String.sub text 0 (String.length text - 1) in
      let last = String.rindex body '\n' + 1 in
      let keep = last + ((String.length body - last) / 2) in
      write_file cut (String.sub body 0 keep);
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
  with_files (fun file ->
      let cut = file "cut.ledger.jsonl" and out = file "cut.out" and err = file "cut.err" in
      let last = ledger_line 2 in
      write_file cut
        (ledger_line 0 ^ "\n" ^ ledger_line 1 ^ "\n" ^ String.sub last 0 (String.length last / 2));
      check Alcotest.int "report --triage of the cut ledger: exit code" 0
        (run_cli ("report --triage " ^ Filename.quote cut) ~out ~err);
      check Alcotest.string "stderr names the cut, not a malformed count"
        (Printf.sprintf "ledger %s: last line cut off mid-record\n" cut)
        (read_file err);
      check Alcotest.bool "the whole lines are triaged" true (contains "2 outcomes" (read_file out)))

(* A soak run must stop with exit [code] within [timeout] seconds,
   with exactly the [stderr] lines on stderr and a recording that ends
   at a whole record.  A BGMP data loop stops the run with exit 3 and
   one line that pins where the loop is caught: the soak at seed 2
   reaches one at step 24 (a flooding MIGP re-floods a foreign source's
   packet that re-enters through another border router), and seeds 35
   and 43 reach one within 300 steps. *)
let check_soak_exit ~timeout ~steps ~seed ~code ~stderr () =
  with_files (fun file ->
      let args = Printf.sprintf "soak --steps %d --seed %d" steps seed in
      let recording = file (args ^ ".recording.jsonl") and err = file (args ^ ".err") in
      let rc =
        run_cli ~timeout
          (Printf.sprintf "%s --record=%s" args (Filename.quote recording))
          ~out:"/dev/null" ~err
      in
      check Alcotest.int (Printf.sprintf "%s: exit %d within %d s" args code timeout) code rc;
      check Alcotest.string (args ^ ": stderr")
        (String.concat "" (List.map (fun line -> line ^ "\n") stderr))
        (read_file err);
      let text = read_file recording in
      check Alcotest.bool "recording ends at a line end" true
        (text <> "" && text.[String.length text - 1] = '\n');
      let records, bad = Recorder.load_jsonl recording in
      check Alcotest.int "every recording line parses" 0 bad;
      check Alcotest.bool "recording is not empty" true (records <> []))

(* Unreadable inputs and unwritable outputs end the command with a
   message and exit code 2, never an uncaught exception. *)
let check_unreadable_inputs () =
  with_files (fun file ->
      let dir = Filename.get_temp_dir_name () in
      (* Files that open but hold no valid line: two lines of text, and
         300 seeded random bytes with no newline (one malformed line). *)
      let text = file "text.jsonl" and binary = file "binary.jsonl" in
      write_file text "hello world\nnot json either\n";
      let rng = Rng.create 300 in
      write_file binary
        (String.init 300 (fun _ ->
             let b = Rng.int rng 255 in
             Char.chr (if b >= Char.code '\n' then b + 1 else b)));
      (* A ledger line whose blamed trace ids do not line up with its
         violated invariants. *)
      let mismatched = file "mismatched.jsonl" in
      write_file mismatched (ledger_line ~trace_ids:[] 0 ^ "\n");
      let no_valid what file n =
        Printf.sprintf "%s %s: no valid line, %d malformed\n" what file n
      in
      (* [cmd] given the output path [name] under a regular file,
         unwritable on any host; the message names the file it could
         not open, [name] or [written] below it. *)
      let unwritable ?written cmd name =
        let path = Filename.concat text name in
        ( cmd ^ Filename.quote path,
          Printf.sprintf "%s: %s: Not a directory\n"
            (List.hd (String.split_on_char ' ' cmd))
            (match written with Some w -> Filename.concat path w | None -> path) )
      in
      let explore = "explore --budget 1 --ledger " ^ Filename.quote (file "ledger.jsonl") in
      List.iter
        (fun (args, message) ->
          let err = file (args ^ ".err") in
          check Alcotest.int (args ^ ": exit code") 2 (run_cli args ~out:"/dev/null" ~err);
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
          unwritable "demo --metrics=" "m.json";
          unwritable "demo --profile=" "p.jsonl";
          unwritable "demo --record=" "r.jsonl";
          unwritable "explore --budget 1 --ledger " "l.jsonl";
          unwritable (explore ^ " --repro-dir ") "cex" ~written:"cex-0.recording.jsonl";
          unwritable "beacon --domains 8 --per-domain 1 --probes 2 --matrix-out " "m.jsonl";
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
      check_metrics_jobs_invariant ~args:"fig4 --summary --nodes 200 --trials 3" ~jobs:[ 1; 4 ] );
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
        ~args:"fig4-modern --summary --domains 600 --groups 50 --events 1500 --trials 2"
        ~jobs:[ 1; 4 ] );
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
      check_soak_exit ~timeout:10 ~steps:24 ~seed:2 ~code:3
        ~stderr:
          [ "soak: data loop: payload 23 to 224.0.0.0 from h21.42 still circling at domain 18" ] );
    ( "demo telemetry",
      `Quick,
      check_timeseries ~args:"demo --sample 600" ~expect:(`Golden "demo_timeseries.txt") );
    ( "fig2 telemetry",
      `Quick,
      check_timeseries ~args:"fig2 --days 30 --sample 1" ~expect:(`Golden "fig2_timeseries.txt") );
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
    ( "explore finds, shrinks, reproduces; ledger jobs-invariant",
      `Quick,
      check_explore_cli ~budget:10 ~jobs:[ 1; 4; 8 ] );
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
        check_soak_exit ~timeout:10 ~steps:300 ~seed:35 ~code:3
          ~stderr:
            [ "soak: data loop: payload 68 to 224.0.0.0 from h16.42 still circling at domain 14" ]
      );
      ( "data loop at seed 43 exits 3",
        `Quick,
        check_soak_exit ~timeout:10 ~steps:300 ~seed:43 ~code:3
          ~stderr:
            [ "soak: data loop: payload 261 to 224.0.0.0 from h25.42 still circling at domain 22" ]
      );
    ]
