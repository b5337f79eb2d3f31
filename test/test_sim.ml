(* Tests for mcast_sim: the event engine, simulated time, tracing. *)

let check = Alcotest.check

let test_time_units () =
  check (Alcotest.float 1e-9) "minutes" 120.0 (Time.minutes 2.0);
  check (Alcotest.float 1e-9) "hours" 7200.0 (Time.hours 2.0);
  check (Alcotest.float 1e-9) "days" 172800.0 (Time.days 2.0);
  check (Alcotest.float 1e-9) "to_hours" 2.0 (Time.to_hours (Time.hours 2.0));
  check (Alcotest.float 1e-9) "to_days" 0.5 (Time.to_days (Time.hours 12.0))

let test_engine_fires_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule_at e 3.0 (note "c"));
  ignore (Engine.schedule_at e 1.0 (note "a"));
  ignore (Engine.schedule_at e 2.0 (note "b"));
  Engine.run_until_idle e;
  check (Alcotest.list Alcotest.string) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_at_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule_at e 1.0 (fun () -> log := i :: !log))
  done;
  Engine.run_until_idle e;
  check (Alcotest.list Alcotest.int) "scheduling order preserved" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_schedule_after () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  ignore (Engine.schedule_after e 5.0 (fun () -> seen := Engine.now e));
  Engine.run_until_idle e;
  check (Alcotest.float 1e-9) "fired at now+delay" 5.0 !seen

let test_engine_rejects_past () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e 10.0 (fun () -> ()));
  Engine.run_until_idle e;
  check Alcotest.bool "raise on past schedule" true
    (try
       ignore (Engine.schedule_at e 5.0 (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at e 1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run_until_idle e;
  check Alcotest.bool "cancelled event does not fire" false !fired;
  (* double cancel is a no-op *)
  Engine.cancel h

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule_at e 1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule_after e 1.0 (fun () -> log := "inner" :: !log))));
  Engine.run_until_idle e;
  check (Alcotest.list Alcotest.string) "nested event fires" [ "outer"; "inner" ] (List.rev !log)

let test_engine_run_until_horizon () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule_at e 1.0 (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule_at e 10.0 (fun () -> fired := 10 :: !fired));
  Engine.run ~until:5.0 e;
  check (Alcotest.list Alcotest.int) "only events before horizon" [ 1 ] (List.rev !fired);
  check (Alcotest.float 1e-9) "clock advanced to horizon" 5.0 (Engine.now e);
  Engine.run ~until:20.0 e;
  check (Alcotest.list Alcotest.int) "later event fires on resume" [ 1; 10 ] (List.rev !fired)

let test_engine_periodic () =
  let e = Engine.create () in
  let count = ref 0 in
  let h = Engine.periodic e ~interval:1.0 (fun () -> incr count) in
  Engine.run ~until:5.5 e;
  check Alcotest.int "five firings by 5.5" 5 !count;
  Engine.cancel h;
  Engine.run ~until:10.0 e;
  check Alcotest.int "no firings after cancel" 5 !count

let test_engine_periodic_self_cancel () =
  let e = Engine.create () in
  let count = ref 0 in
  let handle = ref None in
  let h =
    Engine.periodic e ~interval:1.0 (fun () ->
        incr count;
        if !count = 3 then Engine.cancel (Option.get !handle))
  in
  handle := Some h;
  Engine.run ~until:10.0 e;
  check Alcotest.int "stops when cancelled from inside" 3 !count

let test_engine_step () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e 1.0 (fun () -> ()));
  ignore (Engine.schedule_at e 2.0 (fun () -> ()));
  check Alcotest.bool "step fires one" true (Engine.step e);
  check (Alcotest.float 1e-9) "clock at first" 1.0 (Engine.now e);
  check Alcotest.bool "second step" true (Engine.step e);
  check Alcotest.bool "empty queue" false (Engine.step e)

let test_engine_pending_counts_live_events () =
  let e = Engine.create () in
  check Alcotest.int "empty engine" 0 (Engine.pending e);
  let h1 = Engine.schedule_at e 1.0 (fun () -> ()) in
  ignore (Engine.schedule_at e 2.0 (fun () -> ()));
  ignore (Engine.schedule_at e 3.0 (fun () -> ()));
  check Alcotest.int "three scheduled" 3 (Engine.pending e);
  Engine.cancel h1;
  (* The cancelled event is still in the internal queue (drained lazily)
     but must not be counted. *)
  check Alcotest.int "cancel leaves immediately" 2 (Engine.pending e);
  Engine.cancel h1;
  check Alcotest.int "double cancel no-op" 2 (Engine.pending e);
  ignore (Engine.step e);
  check Alcotest.int "fired event leaves" 1 (Engine.pending e);
  Engine.run_until_idle e;
  check Alcotest.int "drained" 0 (Engine.pending e)

let test_engine_pending_periodic () =
  let e = Engine.create () in
  let h = Engine.periodic e ~interval:1.0 (fun () -> ()) in
  check Alcotest.int "one pending occurrence" 1 (Engine.pending e);
  Engine.run ~until:3.5 e;
  (* Each firing schedules the next occurrence. *)
  check Alcotest.int "still one pending occurrence" 1 (Engine.pending e);
  Engine.cancel h;
  check Alcotest.int "stop clears it" 0 (Engine.pending e);
  Engine.run_until_idle e;
  check Alcotest.int "stays empty" 0 (Engine.pending e)

let test_engine_pending_periodic_self_cancel () =
  (* A periodic closure cancelling its own handle runs [cancel] on the
     very event that is firing; the count must not be decremented twice. *)
  let e = Engine.create () in
  let count = ref 0 in
  let handle = ref None in
  let h =
    Engine.periodic e ~interval:1.0 (fun () ->
        incr count;
        if !count = 2 then Engine.cancel (Option.get !handle))
  in
  handle := Some h;
  Engine.run ~until:10.0 e;
  check Alcotest.int "fired twice" 2 !count;
  check Alcotest.int "no pending left" 0 (Engine.pending e)

let test_engine_watermarks () =
  let e = Engine.create () in
  check (Alcotest.option (Alcotest.float 1e-9)) "no activity yet" None (Engine.converged_at e);
  check Alcotest.int "no watermarks yet" 0 (List.length (Engine.watermarks e));
  ignore (Engine.schedule_at e 1.0 (fun () -> Engine.note_activity e "bgp"));
  ignore (Engine.schedule_at e 2.0 (fun () -> Engine.note_activity e "masc"));
  ignore (Engine.schedule_at e 3.0 (fun () -> Engine.note_activity e "bgp"));
  Engine.run_until_idle e;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 1e-9)))
    "per-class watermarks, sorted by class"
    [ ("bgp", 3.0); ("masc", 2.0) ]
    (Engine.watermarks e);
  check (Alcotest.option (Alcotest.float 1e-9)) "converged at the last state change" (Some 3.0)
    (Engine.converged_at e)

let test_engine_watermarks_empty_run () =
  (* A run that never notes activity: no watermarks, no convergence
     time, and quiescence detection still terminates (quiet window
     anchors on the clock). *)
  let e = Engine.create () in
  Engine.run_until_idle e;
  check (Alcotest.option (Alcotest.float 1e-9)) "idle run: no convergence" None
    (Engine.converged_at e);
  check Alcotest.int "idle run: no watermarks" 0 (List.length (Engine.watermarks e));
  let e2 = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_at e2 1.0 (fun () -> incr fired));
  Engine.run_until_quiescent ~grace:5.0 e2;
  check Alcotest.int "silent event fires inside the window" 1 !fired;
  check (Alcotest.option (Alcotest.float 1e-9)) "still no convergence" None
    (Engine.converged_at e2)

let test_engine_quiescence_grace_boundary () =
  (* Events past the quiet window never fire — activity they would
     have reported cannot resurrect the run. *)
  let e = Engine.create () in
  ignore (Engine.schedule_at e 1.0 (fun () -> Engine.note_activity e "x"));
  let late = ref false in
  ignore
    (Engine.schedule_at e 20.0 (fun () ->
         late := true;
         Engine.note_activity e "x"));
  Engine.run_until_quiescent ~grace:5.0 e;
  check Alcotest.bool "event beyond watermark+grace never fires" false !late;
  check Alcotest.int "it stays pending" 1 (Engine.pending e);
  check (Alcotest.option (Alcotest.float 1e-9)) "converged at the last fired activity" (Some 1.0)
    (Engine.converged_at e);
  (* A chain of state changes each within [grace] of the last keeps
     extending the run. *)
  let e2 = Engine.create () in
  List.iter
    (fun t -> ignore (Engine.schedule_at e2 t (fun () -> Engine.note_activity e2 "x")))
    [ 1.0; 4.0; 7.0; 10.0 ];
  Engine.run_until_quiescent ~grace:5.0 e2;
  check (Alcotest.option (Alcotest.float 1e-9)) "chained activity extends the run" (Some 10.0)
    (Engine.converged_at e2)

let test_engine_watermark_ordering () =
  (* The watermark list is sorted by class name, independent of the
     order classes first report, and converged_at is the max across
     classes whichever class produced it. *)
  let e = Engine.create () in
  ignore (Engine.schedule_at e 1.0 (fun () -> Engine.note_activity e "zeta"));
  ignore (Engine.schedule_at e 2.0 (fun () -> Engine.note_activity e "alpha"));
  ignore (Engine.schedule_at e 3.0 (fun () -> Engine.note_activity e "mid"));
  Engine.run_until_idle e;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 1e-9)))
    "sorted by class, not by first report"
    [ ("alpha", 2.0); ("mid", 3.0); ("zeta", 1.0) ]
    (Engine.watermarks e);
  check (Alcotest.option (Alcotest.float 1e-9)) "max watermark wins" (Some 3.0)
    (Engine.converged_at e)

let test_engine_monitor () =
  let e = Engine.create () in
  check Alcotest.bool "non-positive cadence rejected" true
    (try
       Engine.set_monitor e ~cadence:0.0 (fun ~quiescent:_ -> ());
       false
     with Invalid_argument _ -> true);
  let ticks = ref 0 and quiesces = ref 0 in
  Engine.set_monitor e ~cadence:1.0 (fun ~quiescent ->
      if quiescent then incr quiesces else incr ticks);
  (* Five events 0.5 apart with cadence 1.0: the hook fires after the
     events that cross 1.0 and 2.0, then once with [~quiescent:true]
     when the queue drains. *)
  for i = 1 to 5 do
    ignore (Engine.schedule_at e (0.5 *. float_of_int i) (fun () -> ()))
  done;
  Engine.run_until_idle e;
  check Alcotest.int "cadence-limited ticks" 2 !ticks;
  check Alcotest.int "quiescent fire on drain" 1 !quiesces;
  Engine.clear_monitor e;
  ignore (Engine.schedule_at e 10.0 (fun () -> ()));
  Engine.run_until_idle e;
  check Alcotest.int "cleared monitor stays silent" 2 !ticks;
  check Alcotest.int "no further quiescent fires" 1 !quiesces

let test_trace_report_chains_and_latencies () =
  let record time label span parent =
    {
      Recorder.seq = 0;
      r_time = time;
      r_label = label;
      r_subject = "a";
      r_detail = Some label;
      r_trace_id = Some "claim:1:224.0.0.0/24";
      r_span = Some span;
      r_parent = parent;
    }
  in
  let other =
    { (record 5.0 "grib-update" 0 None) with Recorder.r_trace_id = Some "group:224.0.0.1" }
  in
  let unchained = { (record 6.0 "noise" 0 None) with Recorder.r_trace_id = None; r_span = None } in
  (* An engine/net record on the claim chain: not narrative, so never
     rendered, never counted, and never a latency endpoint. *)
  let engine = { (record 9.0 "net.recv.bgp" 2 (Some 0)) with Recorder.r_detail = None } in
  let records =
    [ record 1.0 "claim" 0 None; other; record 4.0 "acquired" 1 (Some 0); unchained; engine ]
  in
  check (Alcotest.list Alcotest.string) "chain ids in first-appearance order"
    [ "claim:1:224.0.0.0/24"; "group:224.0.0.1" ]
    (Trace_report.chain_ids records);
  let chain = Trace_report.chain records ~id:"claim:1:224.0.0.0/24" in
  check (Alcotest.list Alcotest.string) "chain selects narrative and time-orders"
    [ "claim"; "acquired" ]
    (List.map (fun r -> r.Recorder.r_label) chain);
  check Alcotest.string "kind of id" "claim" (Trace_report.kind_of_id "claim:1:224.0.0.0/24");
  (match Trace_report.latencies records with
  | [ c; g ] ->
      check Alcotest.string "claim kind first" "claim" c.Trace_report.kind;
      check Alcotest.int "one claim chain" 1 c.Trace_report.chains;
      check (Alcotest.float 1e-9) "end-to-end duration" 3.0 c.Trace_report.max_s;
      check Alcotest.string "group kind second" "group" g.Trace_report.kind;
      check (Alcotest.float 1e-9) "single-entry chain has zero latency" 0.0 g.Trace_report.max_s
  | l -> Alcotest.fail (Printf.sprintf "expected two latency rows, got %d" (List.length l)));
  (* The renderer indents children under parents and keeps span refs. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Trace_report.pp_chain_for ppf records ~id:"claim:1:224.0.0.0/24";
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let mem needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "header names the chain" true (mem "claim:1:224.0.0.0/24 (2 entries)");
  check Alcotest.bool "root span rendered" true (mem "(#0)");
  check Alcotest.bool "child span ref rendered" true (mem "(#1<-0)");
  check Alcotest.bool "engine record not rendered" false (mem "net.recv.bgp")

(* The protocol narrative lives in the flight recorder: each test runs
   under a protect that disables it again. *)
let recording ?retain f =
  Recorder.enable ?retain ();
  Fun.protect ~finally:Recorder.disable f

let details () = List.filter_map (fun r -> r.Recorder.r_detail) (Recorder.recent ())

let test_trace_basics () =
  recording ~retain:Recorder.Keep_all (fun () ->
      Recorder.record ~time:1.0 ~label:"join" ~subject:"x" ~detail:"detail-1" ();
      Recorder.record ~time:2.0 ~label:"claim" ~subject:"y" ~detail:"detail-2" ();
      Recorder.record ~time:3.0 ~label:"join" ~subject:"x" ~detail:"detail-3" ();
      check Alcotest.int "length" 3 (Recorder.records ());
      check Alcotest.int "find by label" 2
        (List.length (List.filter (fun r -> r.Recorder.r_label = "join") (Recorder.recent ())));
      check Alcotest.string "oldest first" "detail-1" (List.hd (details ())))

let test_trace_disabled_drops () =
  Recorder.recordf ~time:1.0 ~label:"t" ~subject:"x" "dropped";
  recording (fun () ->
      check Alcotest.int "nothing recorded while disabled" 0 (Recorder.records ());
      Recorder.recordf ~time:2.0 ~label:"t" ~subject:"x" "kept %d" 42;
      check Alcotest.int "recorded again" 1 (Recorder.records ());
      check (Alcotest.list Alcotest.string) "formatted" [ "kept 42" ] (details ()))

let test_trace_disabled_skips_formatting () =
  (* The disabled path must consume the format arguments without running
     any user formatting code: a %t printer acts as the witness. *)
  let formatted = ref false in
  let witness ppf =
    formatted := true;
    Format.pp_print_string ppf "boom"
  in
  Recorder.recordf ~time:1.0 ~label:"t" ~subject:"x" "value %t" witness;
  check Alcotest.bool "formatter not invoked while disabled" false !formatted;
  recording (fun () ->
      Recorder.recordf ~time:2.0 ~label:"t" ~subject:"x" "value %t" witness;
      check Alcotest.bool "formatter invoked when enabled" true !formatted;
      check (Alcotest.list Alcotest.string) "formatted detail" [ "value boom" ] (details ()))

let test_trace_null_sink_counts () =
  (* Counting is independent of retention: the smallest ring still
     counts (and fingerprints) every record. *)
  recording ~retain:(Recorder.Ring 1) (fun () ->
      Recorder.record ~time:1.0 ~label:"t" ~subject:"a" ~detail:"x" ();
      Recorder.record ~time:2.0 ~label:"t" ~subject:"a" ~detail:"y" ();
      check Alcotest.int "records counted" 2 (Recorder.records ());
      check Alcotest.int "fingerprinted" 2 (Recorder.fingerprint ()).Recorder.fpr_records;
      check (Alcotest.list Alcotest.string) "only the newest retained" [ "y" ] (details ()))

let test_trace_set_sink_switches () =
  recording ~retain:Recorder.Keep_all (fun () ->
      Recorder.record ~time:1.0 ~label:"t" ~subject:"a" ~detail:"kept-nowhere" ();
      Recorder.enable ~retain:(Recorder.Ring 2) ();
      check Alcotest.int "old records dropped" 0 (List.length (Recorder.recent ()));
      Recorder.record ~time:2.0 ~label:"t" ~subject:"a" ~detail:"in-ring" ();
      check (Alcotest.list Alcotest.string) "ring records" [ "in-ring" ] (details ()))

let test_trace_clear () =
  recording (fun () ->
      Recorder.record ~time:1.0 ~label:"t" ~subject:"a" ~detail:"x" ();
      Recorder.enable ();
      check Alcotest.int "re-enabling clears" 0 (Recorder.records ()))

let prop_engine_any_schedule_order_fires_sorted =
  QCheck.Test.make ~name:"events fire in nondecreasing time order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (float_range 0.0 100.0))
    (fun times ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter (fun t -> ignore (Engine.schedule_at e t (fun () -> fired := t :: !fired))) times;
      Engine.run_until_idle e;
      let fired = List.rev !fired in
      fired = List.stable_sort compare times)

let suite =
  [
    ("time units", `Quick, test_time_units);
    ("engine time order", `Quick, test_engine_fires_in_time_order);
    ("engine fifo ties", `Quick, test_engine_fifo_at_same_time);
    ("engine schedule_after", `Quick, test_engine_schedule_after);
    ("engine rejects past", `Quick, test_engine_rejects_past);
    ("engine cancel", `Quick, test_engine_cancel);
    ("engine nested scheduling", `Quick, test_engine_nested_scheduling);
    ("engine run until horizon", `Quick, test_engine_run_until_horizon);
    ("engine periodic", `Quick, test_engine_periodic);
    ("engine periodic self-cancel", `Quick, test_engine_periodic_self_cancel);
    ("engine step", `Quick, test_engine_step);
    ("engine pending counts live events", `Quick, test_engine_pending_counts_live_events);
    ("engine pending with periodic", `Quick, test_engine_pending_periodic);
    ("engine pending periodic self-cancel", `Quick, test_engine_pending_periodic_self_cancel);
    ("engine watermarks and converged_at", `Quick, test_engine_watermarks);
    ("engine watermarks empty run", `Quick, test_engine_watermarks_empty_run);
    ("engine quiescence grace boundary", `Quick, test_engine_quiescence_grace_boundary);
    ("engine watermark ordering determinism", `Quick, test_engine_watermark_ordering);
    ("engine monitor hook", `Quick, test_engine_monitor);
    ("trace report chains and latencies", `Quick, test_trace_report_chains_and_latencies);
    ("trace basics", `Quick, test_trace_basics);
    ("trace disabled drops", `Quick, test_trace_disabled_drops);
    ("trace disabled skips formatting", `Quick, test_trace_disabled_skips_formatting);
    ("trace null sink counts", `Quick, test_trace_null_sink_counts);
    ("trace set_sink switches", `Quick, test_trace_set_sink_switches);
    ("trace clear", `Quick, test_trace_clear);
    QCheck_alcotest.to_alcotest prop_engine_any_schedule_order_fires_sorted;
  ]
