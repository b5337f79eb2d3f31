(* perfbench: the benchmark of the five headline workloads (Rows.all).

   perfbench/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
     Measures one workload for S seconds.  Every repetition runs in a
     fresh child process of this executable at jobs 1, so no Par pool
     domain, leftover heap or earlier workload shares a timed process.
     A closed loop: the next repetition starts when the previous child
     has exited.  Stdout gets one JSON line per metric (median, q1, q3,
     min, max, n) and ends with a one-line run summary; stderr gets a
     table.  --trace 1 reports the per-layer metrics instead: half the
     window untraced, half with the profiler on, then the kernels.
   perfbench/run.sh
     Every workload at its pinned seed, both modes: a results file.
   perfbench/run.sh --compare OLD NEW   verdicts between two results files.
   perfbench/run.sh --describe          BENCHMARK.json, from the tables below.
   perfbench/run.sh --self-test         checks of the statistics, verdicts and tables. *)

let run_seconds = 20

let command = [ "bash"; "perfbench/run.sh" ]

let paths = [ "perfbench" ]

let metric name unit better = { Layers.name; unit; better }

(* (metric, regression bound as a share of the old median).  Host time
   on a shared 2-vCPU VM drifts by 10-20 % over minutes, so the timing
   metrics carry the largest bound; allocation and heap size are exact
   for a given seed, and their bounds are three times their spread
   across seeds.  failed_frac is not listed: it is 0 on a correct run,
   and is reported in each run's summary and judged by --compare. *)
let end_to_end =
  [
    (metric "wall_s" "s" Layers.Lower, 0.25);
    (metric "throughput" "1/s" Layers.Higher, 0.25);
    (metric "alloc_kb_per_op" "kB" Layers.Lower, 0.12);
    (metric "peak_heap_mb" "MB" Layers.Lower, 0.15);
    (metric "setup_s" "s" Layers.Lower, 0.25);
  ]

let per_layer =
  Layers.metrics
  @ [ metric "obs.trace_overhead_pct" "%" Layers.Lower ]
  @ List.map (fun n -> metric n "ns" Layers.Lower) Micro.names

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* One repetition, in a child process                                  *)
(* ------------------------------------------------------------------ *)

type mode = Setup_only | Timed | Traced

let child (Rows.Row r) ~seed ~mode =
  Par.set_jobs 1;
  let p = r.setup seed in
  print_endline "ready";
  if mode <> Setup_only then begin
    let traced = mode = Traced in
    let root = "bench." ^ r.name in
    if traced then Prof.enable ();
    let before = Metrics.snapshot Metrics.default in
    let a0 = Gc.allocated_bytes () in
    let t0 = now () in
    let res = if traced then Prof.span root (fun () -> r.call p) else r.call p in
    let wall = now () -. t0 in
    let alloc = Gc.allocated_bytes () -. a0 in
    Prof.disable ();
    let peak = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) in
    let layers =
      if traced then
        Layers.of_trace ~root (Prof.rows ())
          (Metrics.diff ~before ~after:(Metrics.snapshot Metrics.default))
      else []
    in
    let o = r.judge p res in
    print_endline
      (Flat_json.to_string
         ([
            ("wall_s", Flat_json.Num wall);
            ("alloc_mb", Num (alloc /. 1e6));
            ("peak_heap_mb", Num (peak /. 1e6));
            ("work", Num (float_of_int o.Rows.work));
            ("digest", Str o.Rows.digest);
            ("problems", Str (String.concat "; " o.Rows.problems));
          ]
         @ List.map (fun (k, v) -> (k, Flat_json.Num v)) layers))
  end

(* ------------------------------------------------------------------ *)
(* The parent: spawn, time, judge                                      *)
(* ------------------------------------------------------------------ *)

type rep = {
  mode : mode;
  setup_s : float;  (** spawn until the child reported ready *)
  elapsed_s : float;  (** spawn until exit *)
  fields : (string * Flat_json.value) list;  (** [] for a set-up probe or a crash *)
  error : string option;
}

let spawn (Rows.Row r) ~seed ~mode =
  let args =
    [ Sys.executable_name; "--child"; r.name; "--seed"; string_of_int seed ]
    @ match mode with Setup_only -> [ "--setup-only" ] | Timed -> [] | Traced -> [ "--traced" ]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let ready = In_channel.input_line ic in
  let setup_s = now () -. t0 in
  let rec last acc = match In_channel.input_line ic with Some l -> last (Some l) | None -> acc in
  let result = last None in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let elapsed_s = now () -. t0 in
  let error, fields =
    match (status, ready, result) with
    | Unix.WEXITED 0, Some "ready", None when mode = Setup_only -> (None, [])
    | Unix.WEXITED 0, Some "ready", Some line -> (
        match Flat_json.parse line with
        | fields -> (None, fields)
        | exception Flat_json.Malformed m -> (Some ("unreadable child result: " ^ m), []))
    | Unix.WEXITED c, _, _ -> (Some (Printf.sprintf "child exited with status %d" c), [])
    | (Unix.WSIGNALED s | Unix.WSTOPPED s), _, _ ->
        (Some (Printf.sprintf "child killed by signal %d" s), [])
  in
  { mode; setup_s; elapsed_s; fields; error }

let field rep k = match List.assoc_opt k rep.fields with Some (Flat_json.Num f) -> f | _ -> nan

let text rep k = match List.assoc_opt k rep.fields with Some (Flat_json.Str s) -> s | _ -> ""

type window = { reps : rep list; probes : rep list }

(* Repetitions until [until]: a new one starts only when the median
   repetition so far still fits, and at least [min_reps] run.  Each is
   preceded by [probes] set-up-only children, so set-up time is sampled
   across the whole window. *)
let repeat row ~seed ~mode ~until ~min_reps ~probes =
  let rec go w =
    let n = List.length w.reps in
    let est =
      if n = 0 then 0.0 else (Spread.of_list (List.map (fun r -> r.elapsed_s) w.reps)).median
    in
    if n >= min_reps && now () +. est > until then { w with reps = List.rev w.reps }
    else
      let p = List.init probes (fun _ -> spawn row ~seed ~mode:Setup_only) in
      go { reps = spawn row ~seed ~mode :: w.reps; probes = p @ w.probes }
  in
  go { reps = []; probes = [] }

(* A repetition fails on a crash, a failed row check, or a digest other
   than the pinned one (at the pinned seed) or the first one's. *)
let judge_reps (Rows.Row r) ~seed reps =
  let want =
    if seed = r.pinned_seed then r.pinned_digest
    else
      match List.find_opt (fun rep -> rep.fields <> []) reps with
      | Some rep -> text rep "digest"
      | None -> ""
  in
  List.map
    (fun rep ->
      let problem =
        match rep.error with
        | Some e -> Some e
        | None when text rep "problems" <> "" -> Some (text rep "problems")
        | None when text rep "digest" <> want ->
            Some (Printf.sprintf "output digest %s, want %s" (text rep "digest") want)
        | None -> None
      in
      (rep, problem))
    reps

type report = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  metrics : (Layers.metric * Spread.t) list;
}

(* The metrics of [table] that [values] has, in table order. *)
let select table values =
  List.filter_map
    (fun (m : Layers.metric) -> Option.map (fun s -> (m, s)) (List.assoc_opt m.name values))
    table

let measure row ~seed ~seconds ~trace =
  let t_start = now () in
  let deadline = t_start +. float_of_int seconds in
  (* Metrics come from the repetitions that passed; when none did, from
     every repetition that reported numbers, so a failed run still shows
     them. *)
  let good judged =
    match List.filter (fun (_, p) -> p = None) judged with
    | [] -> List.filter (fun (rep, _) -> rep.fields <> []) judged
    | ok -> ok
  in
  let spread_of reps f = Spread.of_list (List.map (fun (rep, _) -> f rep) reps) in
  let report judged metrics =
    List.iter
      (fun (_, p) ->
        Option.iter (Printf.eprintf "perfbench: %s: repetition failed: %s\n%!" (Rows.name row)) p)
      judged;
    {
      workload = Rows.name row;
      seed;
      attempted = List.length judged;
      failed = List.length (List.filter (fun (_, p) -> p <> None) judged);
      metrics;
    }
  in
  if not trace then begin
    let w = repeat row ~seed ~mode:Timed ~until:deadline ~min_reps:3 ~probes:5 in
    let reps = judge_reps row ~seed w.reps in
    let ok = good reps in
    let setup = List.map (fun r -> r.setup_s) (w.probes @ w.reps) in
    let per_rep =
      if ok = [] then []
      else
        [
          ("wall_s", spread_of ok (fun r -> field r "wall_s"));
          ("throughput", spread_of ok (fun r -> field r "work" /. field r "wall_s"));
          ("alloc_kb_per_op", spread_of ok (fun r -> field r "alloc_mb" *. 1e3 /. field r "work"));
          ("peak_heap_mb", spread_of ok (fun r -> field r "peak_heap_mb"));
        ]
    in
    report reps (select (List.map fst end_to_end) (("setup_s", Spread.of_list setup) :: per_rep))
  end
  else begin
    let phase mode until = (repeat row ~seed ~mode ~until ~min_reps:2 ~probes:0).reps in
    let plain = phase Timed (t_start +. (float_of_int seconds /. 2.0)) in
    let all = judge_reps row ~seed (plain @ phase Traced deadline) in
    let ok mode = good (List.filter (fun (rep, _) -> rep.mode = mode) all) in
    let ok_plain = ok Timed and ok_traced = ok Traced in
    let layers =
      if ok_traced = [] then []
      else
        List.map
          (fun (m : Layers.metric) -> (m.name, spread_of ok_traced (fun r -> field r m.name)))
          Layers.metrics
    in
    let overhead =
      if ok_plain = [] || ok_traced = [] then []
      else
        let wall reps = (spread_of reps (fun r -> field r "wall_s")).Spread.median in
        [
          ( "obs.trace_overhead_pct",
            Spread.of_list [ ((wall ok_traced /. wall ok_plain) -. 1.0) *. 100.0 ] );
        ]
    in
    let micro = List.map (fun (n, v) -> (n, Spread.of_list [ v ])) (Micro.run ()) in
    report all (select per_layer (layers @ overhead @ micro))
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let result_line rep ((m : Layers.metric), (s : Spread.t)) =
  Flat_json.to_string
    [
      ("workload", Str rep.workload);
      ("seed", Num (float_of_int rep.seed));
      ("metric", Str m.name);
      ("unit", Str m.unit);
      ("median", Num s.median);
      ("q1", Num s.q1);
      ("q3", Num s.q3);
      ("min", Num s.min);
      ("max", Num s.max);
      ("n", Num (float_of_int s.n));
    ]

let failed_frac rep =
  let f =
    if rep.attempted = 0 then 1.0 else float_of_int rep.failed /. float_of_int rep.attempted
  in
  ( metric "failed_frac" "fraction" Layers.Lower,
    { Spread.median = f; q1 = f; q3 = f; min = f; max = f; n = rep.attempted } )

let print_report (Rows.Row r) ~with_failed rep =
  let rows = rep.metrics @ if with_failed then [ failed_frac rep ] else [] in
  List.iter (fun row -> print_endline (result_line rep row)) rows;
  Printf.eprintf "%s (seed %d): %s\n  throughput counts %s; %d repetitions, %d failed\n" r.name
    rep.seed r.params r.work_unit rep.attempted rep.failed;
  List.iter
    (fun ((m : Layers.metric), (s : Spread.t)) ->
      Printf.eprintf "  %-30s %-8s %14.6g  [q1 %.6g, q3 %.6g, min %.6g, max %.6g, n %d]\n" m.name
        m.unit s.median s.q1 s.q3 s.min s.max s.n)
    rows;
  flush stderr

let summary_line rep =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (rep.failed = 0 && rep.attempted > 0)
    rep.attempted rep.failed;
  List.iteri
    (fun i ((m : Layers.metric), (s : Spread.t)) ->
      Printf.bprintf b "%s%s: {\"value\": %s, \"unit\": %s}"
        (if i = 0 then "" else ", ")
        (Flat_json.quote m.name) (Flat_json.number s.median) (Flat_json.quote m.unit))
    rep.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

let better_string = function Layers.Lower -> "lower" | Layers.Higher -> "higher"

let describe () =
  let q = Flat_json.quote in
  let list items = String.concat ",\n" (List.map (fun s -> "    " ^ s) items) in
  String.concat ""
    [
      "{\n";
      Printf.sprintf "  \"command\": [%s],\n" (String.concat ", " (List.map q command));
      Printf.sprintf "  \"paths\": [%s],\n" (String.concat ", " (List.map q paths));
      Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds;
      "  \"workloads\": [\n";
      list
        (List.map
           (fun (Rows.Row r) -> Printf.sprintf "{\"name\": %s, \"why\": %s}" (q r.name) (q r.why))
           Rows.all);
      "\n  ],\n  \"end_to_end\": [\n";
      list
        (List.map
           (fun ((m : Layers.metric), bound) ->
             Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %s}" (q m.name)
               (q m.unit) (q (better_string m.better)) (Flat_json.number bound))
           end_to_end);
      "\n  ],\n  \"per_layer\": [\n";
      list
        (List.map
           (fun (m : Layers.metric) ->
             Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s}" (q m.name) (q m.unit)
               (q (better_string m.better)))
           per_layer);
      "\n  ]\n}\n";
    ]

let bounds name =
  List.find_map
    (fun ((m : Layers.metric), bound) -> if m.name = name then Some (m.better, bound) else None)
    end_to_end

(* ------------------------------------------------------------------ *)
(* Self-test                                                           *)
(* ------------------------------------------------------------------ *)

let self_test () =
  let failures = ref 0 in
  let check name ok =
    if not ok then begin
      incr failures;
      Printf.eprintf "self-test: FAIL %s\n" name
    end
  in
  let spread = Spread.of_list in
  let is (s : Spread.t) (median, q1, q3) =
    Float.abs (s.median -. median) < 1e-12
    && Float.abs (s.q1 -. q1) < 1e-12
    && Float.abs (s.q3 -. q3) < 1e-12
  in
  (* Reference values: Python's statistics.median and quantiles(n=4),
     which extrapolates at n = 2; n = 1 (an error there) gives the value. *)
  check "quartiles, n = 1" (is (spread [ 7.0 ]) (7.0, 7.0, 7.0));
  check "quartiles, n = 2" (is (spread [ 2.0; 1.0 ]) (1.5, 0.75, 2.25));
  check "quartiles, n = 3" (is (spread [ 3.0; 1.0; 2.0 ]) (2.0, 1.0, 3.0));
  check "quartiles, n = 4" (is (spread [ 4.0; 1.0; 3.0; 2.0 ]) (2.5, 1.25, 3.75));
  check "quartiles, n = 5" (is (spread [ 5.0; 1.0; 4.0; 2.0; 3.0 ]) (3.0, 1.5, 4.5));
  check "quartiles, n = 6" (is (spread [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 ]) (3.5, 1.75, 5.25));
  let v ?(better = Layers.Lower) ?(bound = 0.10) old nw =
    Verdict.judge ~better ~bound ~old:(spread old) ~nw:(spread nw)
  in
  check "verdict unchanged" (v [ 1.00; 1.01; 1.02 ] [ 1.01; 1.02; 1.03 ] = Verdict.Unchanged);
  check "verdict worse" (v [ 1.00; 1.01; 1.02 ] [ 1.20; 1.21; 1.22 ] = Verdict.Worse);
  check "verdict better" (v [ 1.00; 1.01; 1.02 ] [ 0.80; 0.81; 0.82 ] = Verdict.Better);
  check "verdict higher-is-better worse"
    (v ~better:Layers.Higher [ 100.; 101.; 102. ] [ 80.; 81.; 82. ] = Verdict.Worse);
  check "verdict unresolved: wide spread"
    (v [ 1.0; 1.5; 2.0; 1.2; 1.7 ] [ 1.9; 1.2; 2.5; 1.4; 2.0 ] = Verdict.Unresolved);
  check "verdict resolved: every new repetition beats every old one"
    (v [ 1.0; 1.5; 2.0; 1.2; 1.7 ] [ 0.5; 0.6; 0.9; 0.55; 0.7 ] = Verdict.Better);
  check "failed_frac rise is worse"
    (Verdict.judge_failed ~old:(spread [ 0.0 ]) ~nw:(spread [ 0.2 ]) = Verdict.Worse);
  let malformed line =
    match Verdict.result_of_line line with _ -> false | exception Flat_json.Malformed _ -> true
  in
  check "malformed: truncated" (malformed "{\"workload\": \"fig2-alloc\", \"metric\": ");
  check "malformed: old BENCH_N.json schema" (malformed "{");
  check "malformed: nested object" (malformed "{\"methodology\": {\"warmup_runs\": 1}}");
  check "malformed: missing field"
    (malformed "{\"workload\": \"fig2-alloc\", \"metric\": \"wall_s\"}");

  let rep =
    {
      workload = "w";
      seed = 1;
      attempted = 1;
      failed = 0;
      metrics = [ (metric "m" "s" Layers.Lower, spread [ 0.1; 0.3 ]) ];
    }
  in
  check "summary line is not a result"
    (Verdict.result_of_line (summary_line rep) = None);
  check "result lines round-trip"
    (match Verdict.result_of_line (result_line rep (List.hd rep.metrics)) with
    | Some r -> r.workload = "w" && r.metric = "m" && is r.s (0.2, 0.05, 0.35)
    | None -> false);
  let name_ok n =
    String.length n <= 64
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
         n
  in
  let names =
    List.map Rows.name Rows.all @ List.map (fun ((m : Layers.metric), _) -> m.name) end_to_end
    @ List.map (fun (m : Layers.metric) -> m.name) per_layer
  in
  check "names are valid and unique"
    (List.for_all name_ok names && List.length (List.sort_uniq compare names) = List.length names);
  check "whys fit on one line"
    (List.for_all (fun (Rows.Row r) -> String.length r.why <= 200) Rows.all);
  check "BENCHMARK.json equals --describe"
    (match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | s -> s = describe ()
    | exception Sys_error _ -> false);
  if !failures = 0 then prerr_endline "self-test: ok";
  if !failures = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref None and child_of = ref None and seed = ref None in
  let seconds = ref run_seconds and trace = ref 0 and mode = ref Timed in
  let action = ref `Run and files = ref [] in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME  measure one workload");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N  input seed (default: the row's own)");
      ("--seconds", Arg.Set_int seconds, "S  measurement window per run");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--describe", Arg.Unit (fun () -> action := `Describe), " print BENCHMARK.json");
      ("--compare", Arg.Unit (fun () -> action := `Compare), " OLD NEW  compare two results files");
      ("--self-test", Arg.Unit (fun () -> action := `Self_test), " check statistics and tables");
      ("--child", Arg.String (fun s -> child_of := Some s), "NAME  (internal) run one repetition");
      ("--traced", Arg.Unit (fun () -> mode := Traced), " (internal) with the profiler on");
      ("--setup-only", Arg.Unit (fun () -> mode := Setup_only), " (internal) stop when ready");
    ]
  in
  let usage =
    "perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
     perfbench --compare OLD NEW | --describe | --self-test"
  in
  Arg.parse spec (fun f -> files := !files @ [ f ]) usage;
  let row_named n =
    match Rows.find n with
    | Some r -> r
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" n
          (String.concat ", " (List.map Rows.name Rows.all));
        exit 2
  in
  let seed_of (Rows.Row r) = Option.value !seed ~default:r.pinned_seed in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace takes 0 or 1"; exit 2);
  if !seconds < 1 then (prerr_endline "perfbench: --seconds must be at least 1"; exit 2);
  match (!action, !child_of, !workload, !files) with
  | `Describe, _, _, _ -> print_string (describe ())
  | `Self_test, _, _, _ -> exit (self_test ())
  | `Compare, _, _, [ old_file; new_file ] -> exit (Verdict.compare_files ~bounds old_file new_file)
  | `Compare, _, _, _ ->
      prerr_endline "perfbench: --compare takes two files";
      exit 2
  | `Run, _, _, extra :: _ ->
      Printf.eprintf "perfbench: unexpected argument %S\n" extra;
      exit 2
  | `Run, Some n, _, _ ->
      let row = row_named n in
      child row ~seed:(seed_of row) ~mode:!mode
  | `Run, None, Some n, _ ->
      let row = row_named n in
      let rep = measure row ~seed:(seed_of row) ~seconds:!seconds ~trace:(!trace = 1) in
      print_report row ~with_failed:(!trace = 0) rep;
      print_endline (summary_line rep);
      if rep.metrics = [] then exit 1
  | `Run, None, None, _ ->
      let failed = ref 0 in
      List.iter
        (fun row ->
          List.iter
            (fun trace ->
              let rep = measure row ~seed:(seed_of row) ~seconds:!seconds ~trace in
              print_report row ~with_failed:(not trace) rep;
              failed := !failed + rep.failed)
            [ false; true ])
        Rows.all;
      if !failed > 0 then exit 1
