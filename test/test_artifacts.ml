(* Run artifacts: the last suite dumps the default metrics registry and
   a recording of the Figure-3 walkthrough next to the Alcotest logs, so
   CI can upload them when any earlier suite failed (Alcotest runs every
   suite before it reports, so these files exist even on failing
   runs). *)

let recording_file = "masc-bgmp-test-recording.jsonl"

let metrics_file = "masc-bgmp-test-metrics.json"

let test_write_artifacts () =
  Recorder.enable ~sink:recording_file ();
  Fun.protect ~finally:Recorder.disable (fun () -> ignore (Scenario.figure3 ()));
  let oc = open_out metrics_file in
  output_string oc (Metrics.to_json (Metrics.snapshot Metrics.default));
  close_out oc;
  (* The recording must round-trip: it is meant to be fed straight back
     into the [trace] subcommand. *)
  let records, bad = Recorder.load_jsonl recording_file in
  Alcotest.(check bool) "recording is non-empty and parseable" true (records <> [] && bad = 0);
  Alcotest.(check bool) "join chains present in the recording" true
    (Trace_report.chain_ids records <> []);
  Alcotest.(check bool) "metrics artifact written" true (Sys.file_exists metrics_file)

let suite = [ ("write run artifacts", `Quick, test_write_artifacts) ]
