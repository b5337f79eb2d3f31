(* The offline views behind the [trace] and [report] subcommands: a
   recording's narrative, two recordings' first divergence, and the
   profile / telemetry / metrics / delivery-matrix artifacts of a run.
   Loaders that cannot read their file raise [Unreadable] with a
   one-line message; the CLI prints it and exits 2. *)

exception Unreadable of string

let with_file what file f =
  try f file
  with Sys_error reason ->
    (* open_in's message already names the file; keep just the reason. *)
    let prefix = file ^ ": " in
    let reason =
      if String.starts_with ~prefix reason then
        String.sub reason (String.length prefix) (String.length reason - String.length prefix)
      else reason
    in
    raise (Unreadable (Printf.sprintf "%s %s: %s" what file reason))

(* Truncated or corrupted artifacts (a run killed mid-write, a partial
   download) should degrade loudly, not crash or silently shrink: every
   loader reports how many non-blank lines it had to skip, and a file
   whose every line is malformed is not the artifact at all.  A
   malformed last line without its newline is named as a cut, not
   counted among the others.  Returns whether the file was cut.  A file
   that cannot be read a second time (a pipe) is not called cut. *)
let warn_skipped what file ~rows n =
  if rows = 0 && n > 0 then
    raise (Unreadable (Printf.sprintf "%s %s: no valid line, %d malformed" what file n));
  let cut = n > 0 && try Jsonl.last_line_cut file with Sys_error _ -> false in
  if cut then Format.eprintf "%s %s: last line cut off mid-record@." what file;
  let others = if cut then n - 1 else n in
  if others > 0 then Format.eprintf "%s %s: %d malformed line(s) skipped@." what file others;
  cut

(* The records, and whether the file was cut off mid-record. *)
let load_recording what file =
  let records, bad = with_file what file Recorder.load_jsonl in
  (records, warn_skipped what file ~rows:(List.length records) bad)

(* --- trace ------------------------------------------------------------- *)

let run_trace ppf file id =
  let records, _ = load_recording "trace" file in
  match id with
  | Some id -> Trace_report.pp_chain_for ppf records ~id
  | None ->
      Trace_report.pp_timelines ppf records;
      Trace_report.pp_latencies ppf records

(* --- recording diff ----------------------------------------------------- *)

(* Find the first record where two recordings disagree (semantically —
   seq numbers are assigned per stream and excluded), and show an
   aligned context window plus the causal chain of both sides'
   divergent events: did these two runs execute the same event stream,
   and if not, where did they first differ and why. *)

let pp_record ppf (r : Recorder.record) =
  Format.fprintf ppf "#%-6d %14.3f  %-24s %s" r.Recorder.seq r.Recorder.r_time r.Recorder.r_label
    r.Recorder.r_subject;
  (match r.Recorder.r_detail with Some d -> Format.fprintf ppf "  %s" d | None -> ());
  match r.Recorder.r_trace_id with
  | Some id ->
      Format.fprintf ppf "  [%s%s]" id
        (match r.Recorder.r_span with Some s -> Printf.sprintf " #%d" s | None -> "")
  | None -> ()

(* Semantic equality: everything but the seq. *)
let same_record (a : Recorder.record) (b : Recorder.record) =
  { a with Recorder.seq = 0 } = { b with Recorder.seq = 0 }

(* The divergent record itself may carry no span (engine dispatch
   records do not); anchor the chain on the nearest record that does —
   backward first, then forward — so the reader still gets the causal
   neighbourhood of the divergence. *)
let pp_chain_near ppf name recs i =
  let n = Array.length recs in
  let rec scan d =
    let back = i - d and fwd = i + d in
    if back < 0 && fwd >= n then None
    else if back >= 0 && recs.(back).Recorder.r_trace_id <> None then Some back
    else if fwd < n && recs.(fwd).Recorder.r_trace_id <> None then Some fwd
    else scan (d + 1)
  in
  match scan 0 with
  | None -> Format.fprintf ppf "%s: no causal chain (no record carries a trace id)@." name
  | Some k ->
      let id = Option.get recs.(k).Recorder.r_trace_id in
      if k = i then Format.fprintf ppf "--- causal chain, %s ---@." name
      else
        Format.fprintf ppf "--- causal chain, %s (anchored on nearest spanned record, %d) ---@."
          name k;
      Trace_report.pp_chain_for ppf (Array.to_list recs) ~id

let run_diff ?(cut = (false, false)) ppf (a, ra) (b, rb) =
  let ra = Array.of_list ra and rb = Array.of_list rb in
  let na = Array.length ra and nb = Array.length rb in
  let cut_a, cut_b = cut in
  let size n cut =
    if cut then Printf.sprintf "%d records, last line cut off mid-record" n
    else Printf.sprintf "%d records" n
  in
  Format.fprintf ppf "--- diff: %s (%s) vs %s (%s) ---@." a (size na cut_a) b (size nb cut_b);
  let common = min na nb in
  let rec first_diff i =
    if i >= common then None else if same_record ra.(i) rb.(i) then first_diff (i + 1) else Some i
  in
  match first_diff 0 with
  | None when na = nb ->
      Format.fprintf ppf "recordings identical (%d records)@." na;
      0
  | None ->
      (* One stream is a strict prefix of the other: the divergence is
         the first extra record. *)
      let longer, extra, n_long = if na > nb then (a, ra, na) else (b, rb, nb) in
      let shorter, cut_short = if na > nb then (b, cut_b) else (a, cut_a) in
      if cut_short then
        Format.fprintf ppf "streams agree for all %d common records, where %s was cut off;@."
          common shorter
      else Format.fprintf ppf "streams agree for all %d common records;@." common;
      Format.fprintf ppf "%s has %d extra record(s), first:@." longer (n_long - common);
      Format.fprintf ppf "  %a@." pp_record extra.(common);
      pp_chain_near ppf longer extra common;
      1
  | Some i ->
      Format.fprintf ppf "first divergence at record %d@." i;
      let ctx = 5 in
      let lo = max 0 (i - ctx) in
      if i > 0 then begin
        Format.fprintf ppf "common context (last %d records):@." (i - lo);
        for k = lo to i - 1 do
          Format.fprintf ppf "    %a@." pp_record ra.(k)
        done
      end;
      let follow = 3 in
      let side name recs n =
        for k = i to min (n - 1) (i + follow) do
          Format.fprintf ppf "  %s %s %a@." name (if k = i then ">" else " ") pp_record recs.(k)
        done
      in
      side "A" ra na;
      side "B" rb nb;
      pp_chain_near ppf ("A = " ^ a) ra i;
      pp_chain_near ppf ("B = " ^ b) rb i;
      1

let run_diff_files ppf a b =
  let ra, cut_a = load_recording "recording" a in
  let rb, cut_b = load_recording "recording" b in
  run_diff ~cut:(cut_a, cut_b) ppf (a, ra) (b, rb)

(* --- run artifacts -------------------------------------------------------- *)

let report_profile ppf file fold =
  let rows, bad = with_file "profile" file Prof.load_jsonl_counted in
  ignore (warn_skipped "profile" file ~rows:(List.length rows) bad);
  if rows = [] then Format.fprintf ppf "profile %s: no rows@." file
  else begin
    Format.fprintf ppf "--- profile: %s ---@." file;
    Prof.pp_rows ppf rows
  end;
  match fold with
  | None -> ()
  | Some out ->
      with_file "fold" out (fun out ->
          Out_channel.with_open_bin out (fun oc -> output_string oc (Prof.folded rows)));
      Format.fprintf ppf "folded stacks written to %s@." out

let report_timeseries ppf file series =
  let points, bad = with_file "telemetry" file Timeseries.load_jsonl_counted in
  ignore (warn_skipped "telemetry" file ~rows:(List.length points) bad);
  if points = [] then Format.fprintf ppf "telemetry %s: no rows@." file
  else
    let all = Timeseries.series_of points in
    match series with
    | Some name -> (
        match List.assoc_opt name all with
        | None -> Format.fprintf ppf "series %s: not present in %s@." name file
        | Some pts ->
            Format.fprintf ppf "--- series %s (%s) ---@." name file;
            Array.iter (fun (t, v) -> Format.fprintf ppf "%14.1f %14g@." t v) pts)
    | None ->
        Format.fprintf ppf "--- telemetry: %s ---@." file;
        Format.fprintf ppf "%-26s %5s %11s %11s %12s %12s %12s %12s@." "series" "n" "t-first"
          "t-last" "first" "last" "min" "max";
        List.iter
          (fun (name, pts) ->
            let n = Array.length pts in
            let vmin = Array.fold_left (fun a (_, v) -> min a v) infinity pts in
            let vmax = Array.fold_left (fun a (_, v) -> max a v) neg_infinity pts in
            Format.fprintf ppf "%-26s %5d %11.1f %11.1f %12g %12g %12g %12g@." name n
              (fst pts.(0))
              (fst pts.(n - 1))
              (snd pts.(0))
              (snd pts.(n - 1))
              vmin vmax)
          all

(* A value as the metrics snapshot spells it (see [Metrics.to_json]). *)
let metric_text = function
  | Jsonl.Number f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.0f" f
  | Jsonl.Number f -> Printf.sprintf "%.17g" f
  | Jsonl.String s -> "\"" ^ s ^ "\""
  | Jsonl.Null -> "null"
  | Jsonl.Array _ | Jsonl.Object _ -> ""

let report_metrics ppf file =
  let doc = with_file "metrics" file (fun f -> In_channel.with_open_bin f In_channel.input_all) in
  let instruments =
    match Option.bind (Jsonl.parse doc) (Jsonl.field "metrics" (Jsonl.to_list Option.some)) with
    | Some l -> l
    | None -> raise (Unreadable (Printf.sprintf "metrics %s: not a metrics snapshot" file))
  in
  Format.fprintf ppf "--- metrics: %s ---@." file;
  let n = ref 0 in
  List.iter
    (fun m ->
      match Jsonl.field "name" Jsonl.to_string m with
      | None -> ()
      | Some name ->
          incr n;
          let kind = Option.value ~default:"?" (Jsonl.field "kind" Jsonl.to_string m) in
          let detail =
            match kind with
            | "counter" | "gauge" -> Option.fold ~none:"" ~some:metric_text (Jsonl.member "value" m)
            | "histogram" -> (
                match Jsonl.field "count" Jsonl.to_int m with
                | Some c -> Printf.sprintf "%d observations" c
                | None -> "")
            | _ -> ""
          in
          Format.fprintf ppf "%-36s %-10s %s@." name kind detail)
    instruments;
  Format.fprintf ppf "%d instrument(s)@." !n

(* The [beacon --matrix-out] view: measurement timeline from the meta
   line, the aggregate matrix summary, and the dbeacon "who can't hear
   whom" worst-pairs table. *)
let report_matrix ppf file =
  let meta, cells, bad = with_file "matrix" file Beacon_matrix.load_jsonl_counted in
  ignore (warn_skipped "matrix" file ~rows:(List.length cells + if meta = [] then 0 else 1) bad);
  if cells = [] then Format.fprintf ppf "matrix %s: no cells@." file
  else begin
    Format.fprintf ppf "--- delivery matrix: %s ---@." file;
    (match
       ( List.assoc_opt "converged_s" meta,
         List.assoc_opt "first_probe_s" meta,
         List.assoc_opt "last_harvest_s" meta )
     with
    | Some c, Some f, Some l ->
        Format.fprintf ppf
          "timeline: trees converged %.3fs, measured [%.3fs, %.3fs] (window %.3fs)@." c f l
          (l -. f)
    | _ -> ());
    List.iter
      (fun (k, v) ->
        if not (List.mem k [ "converged_s"; "first_probe_s"; "last_harvest_s" ]) then
          Format.fprintf ppf "%-14s %g@." k v)
      meta;
    let s = Beacon_matrix.summary cells in
    Format.fprintf ppf "%a@." Beacon_matrix.pp_summary s;
    let worst = Beacon_matrix.worst cells ~n:10 in
    if List.exists (fun (c : Beacon_matrix.cell) -> c.Beacon_matrix.c_loss > 0.0) worst
    then begin
      Format.fprintf ppf "--- worst pairs ---@.";
      Format.fprintf ppf "%a" Beacon_matrix.pp_cells worst
    end
    else Format.fprintf ppf "all pairs fully delivered@."
  end
