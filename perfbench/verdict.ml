(* --compare OLD NEW: per (workload, metric), the old and new medians,
   the delta, the bound and a verdict.

   A metric is unresolved when either side's interquartile range is
   wider than its bound, unless every new repetition beats every old
   one; otherwise it is worse or better when the medians differ by more
   than the bound, and unchanged when they do not.  Any rise in
   failed_frac is worse.  Metrics without a bound (per-layer) are shown
   but not judged. *)

type verdict = Better | Worse | Unchanged | Unresolved

let to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

type result = { workload : string; metric : string; unit : string; s : Spread.t }

let judge ~(better : Layers.better) ~bound ~(old : Spread.t) ~(nw : Spread.t) =
  let rel = if old.median = 0.0 then 0.0 else (nw.median -. old.median) /. Float.abs old.median in
  let worse_by = match better with Layers.Lower -> rel | Layers.Higher -> -.rel in
  let all_beat =
    match better with Layers.Lower -> nw.max < old.min | Layers.Higher -> nw.min > old.max
  in
  if (Spread.iqr_share old > bound || Spread.iqr_share nw > bound) && not all_beat then Unresolved
  else if worse_by > bound then Worse
  else if worse_by < -.bound then Better
  else Unchanged

let judge_failed ~(old : Spread.t) ~(nw : Spread.t) =
  if nw.median > old.median then Worse else if nw.median < old.median then Better else Unchanged

exception Bad_file of string

(* The one-line run summary a single-workload run ends with is not a
   result (and nests its metrics, which the flat parser rejects). *)
let result_of_line line =
  if String.starts_with ~prefix:"{\"correct\": " line then None
  else
    let fields = Flat_json.parse line in
    let f = Flat_json.num fields in
    Some
      {
        workload = Flat_json.str fields "workload";
        metric = Flat_json.str fields "metric";
        unit = Flat_json.str fields "unit";
        s =
          {
            Spread.median = f "median";
            q1 = f "q1";
            q3 = f "q3";
            min = f "min";
            max = f "max";
            n = int_of_float (f "n");
          };
      }

let load file =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad_file m)) fmt in
  let ic = try open_in file with Sys_error e -> fail "%s" e in
  let rec loop lineno acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line when String.trim line = "" -> loop (lineno + 1) acc
    | line -> (
        match result_of_line line with
        | None -> loop (lineno + 1) acc
        | Some r -> loop (lineno + 1) (r :: acc)
        | exception Flat_json.Malformed m ->
            fail
              "%s:%d: not a perfbench results line (%s); old-schema BENCH_N.json files cannot be \
               compared"
              file lineno m)
  in
  let results = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> loop 1 []) in
  if results = [] then fail "%s: no results" file;
  results

(* Prints the comparison table; returns the exit status: 1 when any
   bounded metric is worse, else 0. *)
let compare_results ~bounds ppf ~old ~nw =
  let worse = ref false in
  Format.fprintf ppf "%-18s %-28s %14s %14s %9s %7s  %s@." "workload" "metric" "old" "new" "delta"
    "bound" "verdict";
  List.iter
    (fun (n : result) ->
      match List.find_opt (fun o -> o.workload = n.workload && o.metric = n.metric) old with
      | None ->
          Format.fprintf ppf "%-18s %-28s %14s %14.6g %9s %7s  new@." n.workload n.metric "-"
            n.s.median "" ""
      | Some o ->
          let delta =
            if o.s.median = 0.0 then "-"
            else
              Printf.sprintf "%+.1f%%"
                ((n.s.median -. o.s.median) /. Float.abs o.s.median *. 100.0)
          in
          let bound, verdict =
            if n.metric = "failed_frac" then ("+0", Some (judge_failed ~old:o.s ~nw:n.s))
            else
              match bounds n.metric with
              | Some (better, bound) ->
                  ( Printf.sprintf "%.0f%%" (bound *. 100.0),
                    Some (judge ~better ~bound ~old:o.s ~nw:n.s) )
              | None -> ("-", None)
          in
          if verdict = Some Worse then worse := true;
          Format.fprintf ppf "%-18s %-28s %14.6g %14.6g %9s %7s  %s@." n.workload n.metric
            o.s.median n.s.median delta bound
            (match verdict with Some v -> to_string v | None -> "-"))
    nw;
  if !worse then 1 else 0

let compare_files ~bounds old_file new_file =
  match
    let old = load old_file in
    (old, load new_file)
  with
  | old, nw -> compare_results ~bounds Format.std_formatter ~old ~nw
  | exception Bad_file m ->
      prerr_endline ("perfbench --compare: " ^ m);
      2
