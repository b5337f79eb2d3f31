(* Per-layer numbers of one traced repetition, measured from outside the
   program: the existing Prof spans bucketed by layer, and the Metrics
   counters the stack keeps anyway.  No span is added inside the
   program; the harness only wraps the whole call in [bench.<row>],
   whose total is the traced wall clock.  Time no program span covers
   is unattributed: 100 - bench.attributed_pct.

   A layer's time is reported as its share of the traced wall clock,
   not in seconds: a workload that never enters a layer reads 0 %, and
   a share says at once what a faster layer could save. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

(* The program's span names are dot-paths; engine-dispatched events
   carry their event label (the engine's default label is "event"). *)
let layer_of_span s =
  let has_prefix p = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let has_suffix x =
    String.length s >= String.length x
    && String.sub s (String.length s - String.length x) (String.length x) = x
  in
  match String.index_opt s '.' with
  | _ when s = "event" || s = "fig2.run" -> Some "sim"
  | _ when has_prefix "bgmp.data." -> Some "bgmp.data"
  | _ when has_suffix ".topology" -> Some "topo"
  | Some i -> (
      match String.sub s 0 i with
      | "bench" -> None
      | "net" -> Some "net"
      | "bgmp" -> Some "bgmp.ctl"
      | "masc" | "alloc" | "fig2" | "kampai" | "workload" -> Some "masc"
      | "bgp" -> Some "bgp"
      | "spf" -> Some "spf"
      | "beacon" -> Some "beacon"
      | "fig4" | "fig4m" -> Some "trees"
      | "core" -> Some "core"
      | "explore" -> Some "explore"
      | _ -> Some "other")
  | None -> Some "other"

let layers =
  [
    "sim"; "net"; "masc"; "bgp"; "bgmp.ctl"; "bgmp.data"; "beacon"; "spf"; "topo"; "trees"; "core";
    "explore"; "other";
  ]

(* Counter-derived numbers: (metric, better, counters summed), with the
   ratio metrics computed below.  Names missing from a snapshot count
   as zero. *)
let counter_sums =
  [
    ("sim.events_fired", Lower, [ "sim.events_fired" ]);
    ("net.messages", Lower, [ "net.sent.masc"; "net.sent.bgp"; "net.sent.bgmp" ]);
    ("bgmp.data.messages", Lower, [ "bgmp.data_msgs_sent" ]);
    ("bgmp.data.duplicates", Lower, [ "bgmp.data.duplicates" ]);
    ("bgmp.ctl.messages", Lower, [ "bgmp.ctl_msgs_sent" ]);
    ("masc.requests", Lower, [ "allocation.requests" ]);
    ("masc.claims", Lower, [ "allocation.claims_made"; "masc.claims" ]);
    ("masc.collisions", Lower, [ "masc.collisions" ]);
    ("bgp.updates_sent", Lower, [ "bgp.advertises_sent"; "bgp.withdraws_sent" ]);
    ("spf.runs", Lower, [ "spf.bfs_runs"; "spf.dijkstra_runs"; "spf.valley_free_runs" ]);
    ("spf.inc_repairs", Lower, [ "spf.inc_repairs" ]);
    ("spf.inc_touched", Lower, [ "spf.inc_touched" ]);
    ("topo.csr_rebuilds", Lower, [ "topo.csr_rebuilds" ]);
  ]

let metrics =
  List.concat_map
    (fun l ->
      [
        { name = l ^ ".time_pct"; unit = "%"; better = Lower };
        { name = l ^ ".self_mb"; unit = "MB"; better = Lower };
        { name = l ^ ".calls"; unit = "count"; better = Lower };
      ])
    layers
  @ [
      { name = "bench.attributed_pct"; unit = "%"; better = Higher };
      { name = "bench.traced_wall_s"; unit = "s"; better = Lower };
      { name = "bgmp.data.bytes_per_call"; unit = "B"; better = Lower };
      { name = "net.drop_ratio"; unit = "fraction"; better = Lower };
      { name = "spf.cache_hit_ratio"; unit = "fraction"; better = Higher };
    ]
  @ List.map (fun (name, better, _) -> { name; unit = "count"; better }) counter_sums

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* [root] is the harness's span around the whole call.  Par shards are
   grafted under whichever span is open when they merge, so a parent's
   total can be smaller than its children's; the attributed time is
   therefore the sum of self times below the root, not the root's
   total minus its own self time. *)
let of_trace ~root (rows : Prof.row list) (counters : Metrics.snapshot) =
  let wall = match Prof.find rows [ root ] with Some r -> r.Prof.total_s | None -> 0.0 in
  let per_layer l =
    List.fold_left
      (fun (s, b, c) (r : Prof.row) ->
        match List.rev r.Prof.path with
        | leaf :: _ when layer_of_span leaf = Some l ->
            (s +. r.Prof.self_s, b +. r.Prof.self_bytes, c + r.Prof.count)
        | _ -> (s, b, c))
      (0.0, 0.0, 0) rows
  in
  let count name =
    match Metrics.find counters name with Some (Metrics.Counter_v c) -> float_of_int c | _ -> 0.0
  in
  let total names = List.fold_left (fun acc n -> acc +. count n) 0.0 names in
  let by_layer = List.map (fun l -> (l, per_layer l)) layers in
  let attributed = List.fold_left (fun acc (_, (s, _, _)) -> acc +. s) 0.0 by_layer in
  let _, (_, data_bytes, data_calls) = List.find (fun (l, _) -> l = "bgmp.data") by_layer in
  List.concat_map
    (fun (l, (s, b, c)) ->
      [
        (l ^ ".time_pct", 100.0 *. ratio s wall);
        (l ^ ".self_mb", b /. 1e6);
        (l ^ ".calls", float_of_int c);
      ])
    by_layer
  @ [
      ("bench.attributed_pct", 100.0 *. ratio attributed wall);
      ("bench.traced_wall_s", wall);
      ("bgmp.data.bytes_per_call", ratio data_bytes (float_of_int data_calls));
      ( "net.drop_ratio",
        ratio
          (total [ "net.dropped.masc"; "net.dropped.bgp"; "net.dropped.bgmp" ])
          (total [ "net.sent.masc"; "net.sent.bgp"; "net.sent.bgmp" ]) );
      ( "spf.cache_hit_ratio",
        ratio (count "spf.cache_hits") (count "spf.cache_hits" +. count "spf.cache_misses") );
    ]
  @ List.map (fun (name, _, names) -> (name, total names)) counter_sums
