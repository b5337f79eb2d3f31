(* Tests for mcast_sim: the event engine, simulated time, tracing. *)

let check = Alcotest.check

let test_time_units () =
  check (Alcotest.float 1e-9) "minutes" 120.0 (Time.minutes 2.0);
  check (Alcotest.float 1e-9) "hours" 7200.0 (Time.hours 2.0);
  check (Alcotest.float 1e-9) "days" 172800.0 (Time.days 2.0);
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
  Engine.cancel e h;
  Engine.run_until_idle e;
  check Alcotest.bool "cancelled event does not fire" false !fired;
  (* double cancel is a no-op *)
  Engine.cancel e h

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

(* A cancelled occurrence inside the horizon heading the queue is dropped
   without firing what follows it: the drain re-checks the horizon. *)
let test_engine_run_until_cancelled_head () =
  let e = Engine.create () in
  let fired = ref [] in
  let h = Engine.schedule_at e 1.0 (fun () -> fired := 1 :: !fired) in
  Engine.cancel e h;
  ignore (Engine.schedule_at e 10.0 (fun () -> fired := 10 :: !fired));
  Engine.run ~until:5.0 e;
  check (Alcotest.list Alcotest.int) "nothing past the horizon fires" [] !fired;
  check (Alcotest.float 1e-9) "clock stops at the horizon" 5.0 (Engine.now e);
  check Alcotest.int "the later event stays pending" 1 (Engine.pending e)

let test_engine_lane_run_until_horizon () =
  let e = Engine.create () in
  let fired = ref [] in
  let lane = Engine.lane e ~delay:10.0 in
  Engine.arm_lane e lane (Engine.event (fun () -> fired := 10 :: !fired));
  ignore (Engine.schedule_at e 1.0 (fun () -> fired := 1 :: !fired));
  Engine.run ~until:5.0 e;
  check (Alcotest.list Alcotest.int) "the lane head beyond the horizon waits" [ 1 ]
    (List.rev !fired);
  check (Alcotest.float 1e-9) "clock advanced to horizon" 5.0 (Engine.now e);
  check Alcotest.int "lane occurrence still pending" 1 (Engine.pending e);
  Engine.run ~until:20.0 e;
  check (Alcotest.list Alcotest.int) "lane head fires on resume" [ 1; 10 ] (List.rev !fired);
  check (Alcotest.float 1e-9) "at its arm time + delay" 10.0 (Engine.now e)

let test_engine_lane_quiescent_skips_cancelled () =
  let e = Engine.create () in
  let fired = ref [] in
  let lane = Engine.lane e ~delay:1.0 in
  let stale = Engine.event (fun () -> fired := "stale" :: !fired) in
  Engine.arm_lane e lane stale;
  Engine.arm_lane e lane (Engine.event (fun () -> fired := "lane" :: !fired));
  ignore (Engine.schedule_at e 0.5 (fun () -> fired := "heap" :: !fired));
  Engine.cancel e stale;
  check Alcotest.int "cancelled head leaves the live count" 2 (Engine.pending e);
  Engine.run e;
  check (Alcotest.list Alcotest.string) "live events behind the cancelled head fire"
    [ "heap"; "lane" ] (List.rev !fired);
  check Alcotest.int "nothing pending" 0 (Engine.pending e);
  check Alcotest.bool "queue drained" false (Engine.step e)

let test_engine_periodic () =
  let e = Engine.create () in
  let count = ref 0 in
  let h = Engine.periodic e ~interval:1.0 (fun () -> incr count) in
  Engine.run ~until:5.5 e;
  check Alcotest.int "five firings by 5.5" 5 !count;
  Engine.cancel e h;
  Engine.run ~until:10.0 e;
  check Alcotest.int "no firings after cancel" 5 !count

let test_engine_periodic_self_cancel () =
  let e = Engine.create () in
  let count = ref 0 in
  let handle = ref None in
  let h =
    Engine.periodic e ~interval:1.0 (fun () ->
        incr count;
        if !count = 3 then Engine.cancel e (Option.get !handle))
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
  Engine.cancel e h1;
  (* The cancelled event is still in the internal queue (drained lazily)
     but must not be counted. *)
  check Alcotest.int "cancel leaves immediately" 2 (Engine.pending e);
  Engine.cancel e h1;
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
  Engine.cancel e h;
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
        if !count = 2 then Engine.cancel e (Option.get !handle))
  in
  handle := Some h;
  Engine.run ~until:10.0 e;
  check Alcotest.int "fired twice" 2 !count;
  check Alcotest.int "no pending left" 0 (Engine.pending e)

let test_engine_watermarks () =
  let e = Engine.create () in
  check (Alcotest.option (Alcotest.float 1e-9)) "no activity yet" None (Engine.converged_at e);
  List.iter
    (fun t -> ignore (Engine.schedule_at e t (fun () -> Engine.note_activity e)))
    [ 1.0; 2.0; 3.0 ];
  ignore (Engine.schedule_at e 4.0 ignore);
  Engine.run_until_idle e;
  check (Alcotest.option (Alcotest.float 1e-9)) "converged at the last state change" (Some 3.0)
    (Engine.converged_at e)

let test_engine_watermarks_empty_run () =
  (* Runs that never note activity, idle or not, have no convergence
     time. *)
  let e = Engine.create () in
  Engine.run_until_idle e;
  check (Alcotest.option (Alcotest.float 1e-9)) "idle run: no convergence" None
    (Engine.converged_at e);
  let e2 = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_at e2 1.0 (fun () -> incr fired));
  Engine.run_until_idle e2;
  check Alcotest.int "silent event fires" 1 !fired;
  check (Alcotest.option (Alcotest.float 1e-9)) "still no convergence" None
    (Engine.converged_at e2)

let test_engine_watermark_ordering () =
  (* The watermark follows firing order, not scheduling order, and a
     horizon stop reads the last note fired before it. *)
  let e = Engine.create () in
  List.iter
    (fun t -> ignore (Engine.schedule_at e t (fun () -> Engine.note_activity e)))
    [ 3.0; 1.0; 2.0 ];
  Engine.run ~until:2.5 e;
  check (Alcotest.option (Alcotest.float 1e-9)) "last note before the horizon" (Some 2.0)
    (Engine.converged_at e);
  Engine.run e;
  check (Alcotest.option (Alcotest.float 1e-9)) "latest note once drained" (Some 3.0)
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
  check (Alcotest.list Alcotest.string) "chain selects narrative and time-orders"
    [ "claim"; "acquired" ]
    (Views.chain_labels records ~id:"claim:1:224.0.0.0/24");
  (* The latency table: one row per chain kind (the trace id before its
     first ':'), in first-appearance order; the claim chain spans 1 s
     to 4 s, the single-entry group chain has zero latency. *)
  check (Alcotest.list Alcotest.string) "latencies by kind"
    [
      "kind      chains          min         mean          max";
      "claim          1       3.000s       3.000s       3.000s";
      "group          1        0.0ms        0.0ms        0.0ms";
      "";
    ]
    (String.split_on_char '\n' (Format.asprintf "%a" Trace_report.pp_latencies records));
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
      check Alcotest.int "length" 3 (Recorder.fingerprint ()).Recorder.fpr_records;
      check Alcotest.int "find by label" 2
        (List.length (List.filter (fun r -> r.Recorder.r_label = "join") (Recorder.recent ())));
      check Alcotest.string "oldest first" "detail-1" (List.hd (details ())))

let test_trace_disabled_drops () =
  Recorder.recordf ~time:1.0 ~label:"t" ~subject:"x" "dropped";
  recording (fun () ->
      check Alcotest.int "nothing recorded while disabled" 0 (Recorder.fingerprint ()).Recorder.fpr_records;
      Recorder.recordf ~time:2.0 ~label:"t" ~subject:"x" "kept %d" 42;
      check Alcotest.int "recorded again" 1 (Recorder.fingerprint ()).Recorder.fpr_records;
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

(* A call site guarded by [Recorder.is_enabled ()], as every narrative
   site in the library is, allocates nothing while the recorder is off;
   the same call unguarded formats nothing either, but builds closures
   to consume its arguments. *)
let test_trace_guarded_site_allocates_nothing () =
  let group = Ipv4.of_string "224.0.128.1" and payload = ref 7 in
  let guarded () =
    if Recorder.is_enabled () then
      Recorder.recordf ~time:1.0 ~label:"t" ~subject:"x" "%a payload %d" Ipv4.pp group !payload
  in
  let unguarded () =
    Recorder.recordf ~time:1.0 ~label:"t" ~subject:"x" "%a payload %d" Ipv4.pp group !payload
  in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let empty = words ignore in
  check (Alcotest.float 0.0) "a guarded site allocates 0 words" 0.0 (words guarded -. empty);
  check Alcotest.bool "an unguarded call allocates" true (words unguarded -. empty > 0.0)

let test_trace_null_sink_counts () =
  (* Counting is independent of retention: the smallest ring still
     counts (and fingerprints) every record. *)
  recording ~retain:(Recorder.Ring 1) (fun () ->
      Recorder.record ~time:1.0 ~label:"t" ~subject:"a" ~detail:"x" ();
      Recorder.record ~time:2.0 ~label:"t" ~subject:"a" ~detail:"y" ();
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
      check Alcotest.int "re-enabling clears" 0 (Recorder.fingerprint ()).Recorder.fpr_records)

let rejects name f =
  check Alcotest.bool (name ^ " raises Invalid_argument") true
    (try
       f ();
       false
     with Invalid_argument _ -> true)

(* NaN fails every comparison, so a range check written as "reject if
   below the bound" lets it through; each entry point must refuse it. *)
let test_engine_rejects_nan () =
  let e = Engine.create () in
  rejects "schedule_at nan" (fun () -> ignore (Engine.schedule_at e Float.nan ignore));
  rejects "schedule_after nan" (fun () -> ignore (Engine.schedule_after e Float.nan ignore));
  rejects "periodic nan" (fun () -> ignore (Engine.periodic e ~interval:Float.nan ignore));
  rejects "set_monitor nan" (fun () -> Engine.set_monitor e ~cadence:Float.nan (fun ~quiescent:_ -> ()));
  rejects "set_sampler nan" (fun () -> Engine.set_sampler e ~every:Float.nan ignore);
  check Alcotest.int "nothing was queued" 0 (Engine.pending e);
  Engine.run_until_idle e;
  check (Alcotest.float 0.0) "clock untouched" 0.0 (Engine.now e)

(* Bytes of minor-heap allocation per unit of [batch n], which does [n]
   units of work; a first batch warms lazily grown state (queue arrays)
   first.  Shared with the net tests. *)
let minor_bytes_per ~n batch =
  batch n;
  let w0 = Gc.minor_words () in
  batch n;
  let w1 = Gc.minor_words () in
  (w1 -. w0) *. float_of_int (Sys.word_size / 8) /. float_of_int n

let noop () = ()

let test_engine_one_shot_allocation () =
  (* All at the literal time 1.0, so the caller boxes no float: the
     count is the engine's own — the event record, nothing per push or
     per pop. *)
  let e = Engine.create () in
  let bytes =
    minor_bytes_per ~n:1000 (fun n ->
        for _ = 1 to n do
          ignore (Engine.schedule_at e 1.0 noop)
        done;
        Engine.run_until_idle e)
  in
  Printf.printf "engine one-shot: %.1f B\n" bytes;
  check Alcotest.bool (Printf.sprintf "schedule_at + fire allocates %.1f B <= 64 B" bytes) true
    (bytes <= 64.0)

let test_engine_rearm_drawn_delay_allocation () =
  (* One reusable event re-armed with a freshly drawn delay, as a
     request loop does.  In release the delay stays unboxed from the
     draw through [arm_after] into the queue, so the loop allocates
     nothing.  A dev build (no cross-module inlining) boxes two floats
     per arm, the drawn delay and the clock gauge: 32 B. *)
  let e = Engine.create () in
  let rng = Rng.create 7 in
  let ev = Engine.event noop in
  let bytes =
    minor_bytes_per ~n:1000 (fun n ->
        for _ = 1 to n do
          Engine.arm_after e ev (Rng.float_in rng 1.0 2.0)
        done;
        Engine.run_until_idle e)
  in
  Printf.printf "engine re-arm, drawn delay: %.1f B\n" bytes;
  let budget = if Build_profile.name = "dev" then 33.0 else 1.0 in
  check Alcotest.bool
    (Printf.sprintf "arm_after (drawn delay) + fire allocates %.1f B <= %.0f B" bytes budget)
    true (bytes <= budget)

let test_engine_lane_allocation () =
  (* One reusable event armed through a lane and fired, as a channel
     does per message, drained to idle and to a horizon.  The lane
     stores [now + delay] straight into its float ring, and the drain
     compares the head against its limit in place, so in release the
     loop allocates nothing once the ring has grown.  A dev build (no
     cross-module inlining) boxes the clock gauge per firing: 16 B. *)
  List.iter
    (fun (name, drain) ->
      let e = Engine.create () in
      let lane = Engine.lane e ~delay:0.01 in
      let ev = Engine.event noop in
      let bytes =
        minor_bytes_per ~n:1000 (fun n ->
            for _ = 1 to n do
              Engine.arm_lane e lane ev
            done;
            drain e)
      in
      Printf.printf "engine lane arm, %s: %.1f B\n" name bytes;
      let budget = if Build_profile.name = "dev" then 17.0 else 1.0 in
      check Alcotest.bool
        (Printf.sprintf "arm_lane + fire (%s) allocates %.1f B <= %.0f B" name bytes budget)
        true (bytes <= budget))
    [ ("idle", Engine.run_until_idle); ("horizon", Engine.run ~until:1e6) ]

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

(* --- Differential: the engine against a reference on Heap ------------ *)

(* A reference engine with the same contract, built the simple way:
   one record per queued occurrence in the generic [Heap], a periodic
   schedule creating a fresh record at each firing, and a handle that
   holds a stop closure.  It covers only what the programs below use. *)
module Ref_engine = struct
  type ev = { time : float; mutable dead : bool; action : unit -> unit }

  type t = { mutable now : float; q : ev Heap.t; mutable live : int; mutable note : float option }

  type handle = { mutable stop : unit -> unit }

  let create () =
    { now = 0.0; q = Heap.create ~cmp:(fun a b -> Float.compare a.time b.time); live = 0; note = None }

  let now t = t.now

  let push t time action =
    let ev = { time; dead = false; action } in
    Heap.push t.q ev;
    t.live <- t.live + 1;
    ev

  let kill t ev =
    if not ev.dead then begin
      ev.dead <- true;
      t.live <- t.live - 1
    end

  let schedule_at ?label:_ t time action =
    let ev = push t time action in
    { stop = (fun () -> kill t ev) }

  let schedule_after ?label:_ t delay action = schedule_at t (t.now +. delay) action

  let arm_fixed t delay ~times action =
    let evs = List.init times (fun _ -> push t (t.now +. delay) action) in
    { stop = (fun () -> List.iter (kill t) evs) }

  let periodic ?label:_ t ~interval action =
    let h = { stop = ignore } and stopped = ref false in
    let rec arm () =
      let ev =
        push t (t.now +. interval) (fun () ->
            action ();
            if not !stopped then arm ())
      in
      h.stop <-
        (fun () ->
          stopped := true;
          kill t ev)
    in
    arm ();
    h

  let cancel _ h = h.stop ()

  let pending t = t.live

  let note_activity t = t.note <- Some t.now

  let converged_at t = t.note

  let rec step t =
    match Heap.pop t.q with
    | None -> false
    | Some ev when ev.dead -> step t
    | Some ev ->
        ev.dead <- true;
        t.live <- t.live - 1;
        t.now <- ev.time;
        ev.action ();
        true
end

module type ENGINE = sig
  type t

  type handle

  val create : unit -> t

  val now : t -> float

  val schedule_at : ?label:string -> t -> float -> (unit -> unit) -> handle

  val schedule_after : ?label:string -> t -> float -> (unit -> unit) -> handle

  val periodic : ?label:string -> t -> interval:float -> (unit -> unit) -> handle

  val arm_fixed : t -> float -> times:int -> (unit -> unit) -> handle
  (** One event, queued [times] times [delay] from now. *)

  val cancel : t -> handle -> unit

  val pending : t -> int

  val step : t -> bool

  val note_activity : t -> unit

  val converged_at : t -> float option
end

(* The engine under test arms [arm_fixed] events through its lanes. *)
module Lane_engine = struct
  include Engine

  let arm_fixed t delay ~times action =
    let ev = Engine.event action and lane = Engine.lane t ~delay in
    for _ = 1 to times do
      Engine.arm_lane t lane ev
    done;
    ev
end

(* What a fired event does besides logging (time, label). *)
type effect = Log | Cancel_handle of int | Spawn of float | Spawn_lane of float | Note

type op =
  | At of float * effect  (* schedule_at, [dt] past now *)
  | After of float * effect
  | Every of float * effect
  | Lane of float * int * effect  (* arm_fixed: one event, queued 1 or 2 times *)
  | Cancel of int  (* the handle with this index, modulo the count *)
  | Steps of int

let pp_effect = function
  | Log -> "log"
  | Cancel_handle k -> Printf.sprintf "cancel#%d" k
  | Spawn d -> Printf.sprintf "spawn+%g" d
  | Spawn_lane d -> Printf.sprintf "spawn-lane+%g" d
  | Note -> "note"

let pp_op = function
  | At (d, f) -> Printf.sprintf "at+%g/%s" d (pp_effect f)
  | After (d, f) -> Printf.sprintf "after+%g/%s" d (pp_effect f)
  | Every (d, f) -> Printf.sprintf "every %g/%s" d (pp_effect f)
  | Lane (d, k, f) -> Printf.sprintf "lane+%gx%d/%s" d k (pp_effect f)
  | Cancel k -> Printf.sprintf "cancel#%d" k
  | Steps n -> Printf.sprintf "steps %d" n

(* Runs a program, then an event 10 s on that cancels every handle
   (ending the periodic ones), then [drain]; returns the (time, label)
   of every firing, [pending] after every op, and the final clock with
   the convergence watermark.
   Small, coarse delays make equal-time ties common, so the FIFO
   tie-break is exercised. *)
module Interp (E : ENGINE) = struct
  let run ~drain prog =
    let e = E.create () in
    let handles = ref [||] and fired = ref [] and counts = ref [] in
    let add h = handles := Array.append !handles [| h |] in
    let rec action label eff () =
      fired := (E.now e, label) :: !fired;
      match eff with
      | Log -> ()
      | Cancel_handle k ->
          let n = Array.length !handles in
          if n > 0 then E.cancel e !handles.(k mod n)
      | Spawn d -> add (E.schedule_after e d (action (label ^ "'") Log))
      | Spawn_lane d -> add (E.arm_fixed e d ~times:1 (action (label ^ "'") Log))
      | Note -> E.note_activity e
    in
    List.iteri
      (fun i op ->
        let label = string_of_int i in
        (match op with
        | At (d, eff) -> add (E.schedule_at e (E.now e +. d) (action label eff))
        | After (d, eff) -> add (E.schedule_after e d (action label eff))
        | Every (d, eff) -> add (E.periodic e ~interval:d (action label eff))
        | Lane (d, k, eff) -> add (E.arm_fixed e d ~times:k (action label eff))
        | Cancel k ->
            let n = Array.length !handles in
            if n > 0 then E.cancel e !handles.(k mod n)
        | Steps n ->
            let rec go n = if n > 0 && E.step e then go (n - 1) in
            go n);
        counts := E.pending e :: !counts)
      prog;
    ignore
      (E.schedule_at e (E.now e +. 10.0) (fun () ->
           fired := (E.now e, "end") :: !fired;
           Array.iter (E.cancel e) !handles));
    drain e;
    (List.rev !fired, List.rev !counts, (E.now e, E.converged_at e))
end

module Run_engine = Interp (Lane_engine)

module Run_ref = Interp (Ref_engine)

(* Lane delays: 1.0 is also a heap delay and a periodic interval, so
   equal-time heap and lane entries interleave by seq; 0.0 ties with
   events at the current instant. *)
let gen_program =
  let open QCheck.Gen in
  let delay = oneofl [ 0.0; 0.5; 1.0; 1.5; 3.0 ] in
  let lane_delay = oneofl [ 0.0; 1.0; 2.5 ] in
  let effect =
    frequency
      [
        (6, return Log);
        (2, map (fun k -> Cancel_handle k) (0 -- 20));
        (1, map (fun d -> Spawn d) delay);
        (1, map (fun d -> Spawn_lane d) lane_delay);
        (2, return Note);
      ]
  in
  let op =
    frequency
      [
        (4, map2 (fun d f -> At (d, f)) delay effect);
        (4, map2 (fun d f -> After (d, f)) delay effect);
        (3, map3 (fun d k f -> Lane (d, k, f)) lane_delay (1 -- 2) effect);
        (1, map2 (fun d f -> Every (d, f)) (oneofl [ 0.5; 1.0; 2.0 ]) effect);
        (2, map (fun k -> Cancel k) (0 -- 20));
        (3, map (fun n -> Steps n) (0 -- 6));
      ]
  in
  list_size (1 -- 40) op

let rec steps step e = if step e then steps step e

(* Drains an engine with a monitor (cadence 1 s) and a sampler (a
   cadence no run reaches, so it fires only at stops) that log their
   stop calls.  [drive stop] runs the engine; each [stop expect run]
   checks that [run] ends with the calls [expect ()] names: the
   monitor's [~quiescent:true] then the sampler at a drained stop, the
   sampler alone at a horizon stop, nothing from [step].  Clears [ok]
   on a mismatch. *)
let hooked ~ok drive e =
  let hooks = ref [] in
  Engine.set_monitor e ~cadence:1.0 (fun ~quiescent -> if quiescent then hooks := `Quiet :: !hooks);
  Engine.set_sampler e ~every:1e9 (fun _ -> hooks := `Sample :: !hooks);
  drive (fun expect run ->
      hooks := [];
      run e;
      if List.rev !hooks <> expect () then ok := false)

let stopped () = [ `Quiet; `Sample ]

let drain_steps ~ok = hooked ~ok (fun stop -> stop (fun () -> []) (steps Engine.step))

let drain_run ~ok = hooked ~ok (fun stop -> stop stopped Engine.run_until_idle)

(* A horizon stop leaves a live event queued: [pending] tells it from a
   drained stop. *)
let drain_slices ~ok slices e =
  hooked ~ok
    (fun stop ->
      List.iter
        (fun d ->
          stop
            (fun () -> if Engine.pending e = 0 then stopped () else [ `Sample ])
            (fun e -> Engine.run ~until:(Engine.now e +. d) e))
        slices;
      stop stopped Engine.run_until_idle)
    e

(* The engine against the reference, drained three ways: by repeated
   [step], by one [run] and by [run] in random [~until] slices.  Each
   fires exactly what the reference fires and ends on its clock and
   watermark, and every run stops with the right hooks. *)
let prop_engine_matches_heap_reference =
  let gen =
    QCheck.Gen.(pair gen_program (list_size (0 -- 8) (oneofl [ 0.0; 0.5; 1.0; 2.5; 4.0; 6.0 ])))
  in
  let print (prog, slices) =
    Printf.sprintf "%s | slices %s"
      (String.concat "; " (List.map pp_op prog))
      (String.concat " " (List.map string_of_float slices))
  in
  QCheck.Test.make ~name:"engine fires like the Heap reference engine" ~count:500
    (QCheck.make ~print gen)
    (fun (prog, slices) ->
      let ok = ref true in
      let reference = Run_ref.run ~drain:(steps Ref_engine.step) prog in
      let fires drain = Run_engine.run ~drain prog in
      fires (drain_steps ~ok) = reference
      && fires (drain_run ~ok) = reference
      && fires (drain_slices ~ok slices) = reference
      && !ok)

(* A reset engine fires what a fresh one fires: clock, seq, watermark
   and hooks rewound, heap and lanes emptied, and an event that was
   queued at the reset (a channel's arrival, say) arms from a zero
   count, so cancelling it later moves nothing. *)
let test_engine_reset_reads_like_fresh () =
  let script e fired =
    let lane = Engine.lane e ~delay:2.0 in
    let persistent = Engine.event ~label:"p" (fun () -> fired := "p" :: !fired) in
    ignore (Engine.schedule_at e 1.0 (fun () -> fired := "h1" :: !fired));
    Engine.arm_lane e lane persistent;
    ignore (Engine.schedule_at e 2.0 (fun () -> Engine.note_activity e));
    ignore (Engine.periodic e ~interval:3.0 (fun () -> fired := "tick" :: !fired));
    persistent
  in
  let e = Engine.create () in
  let fired = ref [] in
  let stale = script e fired in
  Engine.arm_lane e (Engine.lane e ~delay:2.0) stale;
  Engine.set_monitor e ~cadence:1.0 (fun ~quiescent:_ -> fired := "monitor" :: !fired);
  Engine.run ~until:1.5 e;
  Engine.reset e;
  check (Alcotest.float 0.0) "clock" 0.0 (Engine.now e);
  check Alcotest.int "nothing pending" 0 (Engine.pending e);
  check Alcotest.bool "no watermark" true (Engine.converged_at e = None);
  Engine.cancel e stale;
  check Alcotest.int "stale event counts nothing" 0 (Engine.pending e);
  let trace e fired =
    Engine.run ~until:10.0 e;
    (List.rev !fired, Engine.now e, Engine.converged_at e, Engine.pending e)
  in
  fired := [];
  ignore (script e fired);
  let reused = trace e fired in
  let e' = Engine.create () and fired' = ref [] in
  ignore (script e' fired');
  check Alcotest.bool "same run as a fresh engine" true (reused = trace e' fired')

let suite =
  [
    ("engine reset reads like fresh", `Quick, test_engine_reset_reads_like_fresh);
    ("time units", `Quick, test_time_units);
    ("engine time order", `Quick, test_engine_fires_in_time_order);
    ("engine fifo ties", `Quick, test_engine_fifo_at_same_time);
    ("engine schedule_after", `Quick, test_engine_schedule_after);
    ("engine rejects past", `Quick, test_engine_rejects_past);
    ("engine cancel", `Quick, test_engine_cancel);
    ("engine nested scheduling", `Quick, test_engine_nested_scheduling);
    ("engine run until horizon", `Quick, test_engine_run_until_horizon);
    ("engine run until skips cancelled head", `Quick, test_engine_run_until_cancelled_head);
    ("engine lane run until horizon", `Quick, test_engine_lane_run_until_horizon);
    ( "engine lane quiescence skips cancelled head",
      `Quick,
      test_engine_lane_quiescent_skips_cancelled );
    ("engine periodic", `Quick, test_engine_periodic);
    ("engine periodic self-cancel", `Quick, test_engine_periodic_self_cancel);
    ("engine step", `Quick, test_engine_step);
    ("engine pending counts live events", `Quick, test_engine_pending_counts_live_events);
    ("engine pending with periodic", `Quick, test_engine_pending_periodic);
    ("engine pending periodic self-cancel", `Quick, test_engine_pending_periodic_self_cancel);
    ("engine watermarks and converged_at", `Quick, test_engine_watermarks);
    ("engine watermarks empty run", `Quick, test_engine_watermarks_empty_run);
    ("engine watermark ordering determinism", `Quick, test_engine_watermark_ordering);
    ("engine monitor hook", `Quick, test_engine_monitor);
    ("engine rejects NaN", `Quick, test_engine_rejects_nan);
    ("engine one-shot allocation", `Quick, test_engine_one_shot_allocation);
    ("engine re-arm drawn delay allocation", `Quick, test_engine_rearm_drawn_delay_allocation);
    ("engine lane arm allocation", `Quick, test_engine_lane_allocation);
    ("trace report chains and latencies", `Quick, test_trace_report_chains_and_latencies);
    ("trace basics", `Quick, test_trace_basics);
    ("trace disabled drops", `Quick, test_trace_disabled_drops);
    ("trace disabled skips formatting", `Quick, test_trace_disabled_skips_formatting);
    ("trace null sink counts", `Quick, test_trace_null_sink_counts);
    ("trace set_sink switches", `Quick, test_trace_set_sink_switches);
    ("trace clear", `Quick, test_trace_clear);
    QCheck_alcotest.to_alcotest prop_engine_any_schedule_order_fires_sorted;
    QCheck_alcotest.to_alcotest prop_engine_matches_heap_reference;
    ("trace guarded site allocates nothing", `Quick, test_trace_guarded_site_allocates_nothing);
  ]
