type root_placement = Root_at_initiator | Root_at_source | Root_random

let m_trials = Metrics.counter "trees.trials_run"
let m_worst_uni = Metrics.gauge "trees.worst_uni"
let m_worst_bi = Metrics.gauge "trees.worst_bi"
let m_worst_hy = Metrics.gauge "trees.worst_hy"

type params = {
  nodes : int;
  group_sizes : int list;
  trials : int;
  root_placement : root_placement;
  topology : [ `Power_law | `Transit_stub ];
  check_invariants : bool;
  seed : int;
  telemetry : Timeseries.t option;
  jobs : int;
}

let default_params =
  {
    nodes = 3326;
    group_sizes = [ 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000 ];
    trials = 20;
    root_placement = Root_at_initiator;
    topology = `Power_law;
    check_invariants = false;
    seed = 1998;
    telemetry = None;
    jobs = 0;
  }

type point = {
  group_size : int;
  uni_avg : float;
  uni_max : float;
  bi_avg : float;
  bi_max : float;
  hy_avg : float;
  hy_max : float;
}

type result = {
  points : point list;
  worst_uni : float;
  worst_bi : float;
  worst_hy : float;
  invariant_violations : int;
}

let make_topology p rng =
  match p.topology with
  | `Power_law -> Gen.power_law ~rng ~n:p.nodes ~m:2
  | `Transit_stub ->
      (* Sized to land near [p.nodes] total domains. *)
      let backbones = 8 in
      let regionals = max 1 (p.nodes / (backbones * 12)) in
      let stubs = 11 in
      Gen.transit_stub ~rng ~backbones ~regionals_per_backbone:regionals
        ~stubs_per_regional:stubs

(* One trial's sampled group.  All randomness is drawn on the main
   domain before any fan-out, in exactly the draw order of the old
   sequential loop, so results are byte-identical at any job count —
   and to the sequential runs that predate the parallel layer.  The
   receivers are not kept: [sp_draw] is the generator as it stood
   before their draw, and the trial re-draws them from it. *)
type spec = { sp_source : Domain.id; sp_root : Domain.id; sp_size : int; sp_draw : Rng.t }

(* What a trial task reports back: per-tree (avg, max) ratios when any
   receiver was counted, plus its invariant-violation count.  Metrics
   and profiler spans travel separately, in the task's Obs shard. *)
type trial_out = {
  t_uni : (float * float) option;
  t_bi : (float * float) option;
  t_hy : (float * float) option;
  t_violations : int;
}

(* Trials per scheduled task.  A chunk starts with empty BFS slots, so
   it costs one BFS per trial plus one; 64 keeps that extra run under
   2% while leaving hundreds of tasks to balance across workers. *)
let chunk_trials = 64

let schedule ~nodes ends =
  let m = Array.length ends in
  (* Incidence lists, CSR-style: a trial is listed under each of its two
     endpoints, a self-loop once.  [deg] is the degree over unused
     trials, a self-loop counting 2, so its parity is the usual one. *)
  let deg = Array.make nodes 0 and row = Array.make (nodes + 1) 0 in
  Array.iter
    (fun (s, r) ->
      deg.(s) <- deg.(s) + 1;
      deg.(r) <- deg.(r) + 1;
      row.(s + 1) <- row.(s + 1) + 1;
      if r <> s then row.(r + 1) <- row.(r + 1) + 1)
    ends;
  for v = 1 to nodes do
    row.(v) <- row.(v) + row.(v - 1)
  done;
  let inc = Array.make row.(nodes) 0 and next = Array.sub row 0 nodes in
  Array.iteri
    (fun i (s, r) ->
      inc.(next.(s)) <- i;
      next.(s) <- next.(s) + 1;
      if r <> s then begin
        inc.(next.(r)) <- i;
        next.(r) <- next.(r) + 1
      end)
    ends;
  Array.blit row 0 next 0 nodes;
  let used = Array.make m false and order = Array.make m 0 and filled = ref 0 in
  let chunks = ref [] in
  (* Follow unused trials from [v] until stuck, then cut the trail into
     chunks.  [next.(v)] only moves past used entries, so the scan over
     a node's list is linear over the whole schedule. *)
  let walk v =
    let start = !filled and v = ref v in
    while deg.(!v) > 0 do
      while used.(inc.(next.(!v))) do
        next.(!v) <- next.(!v) + 1
      done;
      let i = inc.(next.(!v)) in
      let s, r = ends.(i) in
      used.(i) <- true;
      deg.(s) <- deg.(s) - 1;
      deg.(r) <- deg.(r) - 1;
      order.(!filled) <- i;
      incr filled;
      v := if s = !v then r else s
    done;
    let pos = ref start in
    while !pos < !filled do
      let len = min chunk_trials (!filled - !pos) in
      chunks := Array.sub order !pos len :: !chunks;
      pos := !pos + len
    done
  in
  (* A walk from an odd node ends at another odd one, leaving both even;
     once every degree is even, a walk ends where it started. *)
  for v = 0 to nodes - 1 do
    if deg.(v) land 1 = 1 then walk v
  done;
  for v = 0 to nodes - 1 do
    while deg.(v) > 0 do
      walk v
    done
  done;
  List.rev !chunks

let run p =
  let rng = Rng.create p.seed in
  let topo = Prof.span "fig4.topology" (fun () -> make_topology p rng) in
  let n = Topo.domain_count topo in
  (* Freeze on the main domain: the memoized snapshot must exist before
     worker domains share the topology read-only. *)
  ignore (Topo.freeze topo : Topo.csr);
  let worst_uni = ref 0.0 and worst_bi = ref 0.0 and worst_hy = ref 0.0 in
  (match p.telemetry with
  | Some ts ->
      (* The fig4 run has no engine; the series' time axis is the group
         size just finished, one row per point. *)
      Timeseries.register ts "trees.worst_uni" (fun () -> !worst_uni);
      Timeseries.register ts "trees.worst_bi" (fun () -> !worst_bi);
      Timeseries.register ts "trees.worst_hy" (fun () -> !worst_hy);
      Timeseries.register ts "trees.trials_run" (fun () ->
          float_of_int (Metrics.count m_trials))
  | None -> ());
  (* Group sizes are capped by the topology: at most n-1 receivers. *)
  let sizes = List.filter (fun s -> s <= n - 2) p.group_sizes in
  (* The main pass draws each trial's receivers into [scratch] only to
     advance the stream and place the root. *)
  let scratch = Array.make (List.fold_left max 0 sizes + 1) 0 in
  let draw_trial size =
    let source = Rng.int rng n in
    let sp_draw = Rng.copy rng in
    (* Receivers are distinct domains other than the source. *)
    Path_eval.draw_receivers_into rng ~n ~source size scratch;
    let root =
      match p.root_placement with
      | Root_at_initiator -> scratch.(0)
      | Root_at_source -> source
      | Root_random -> Rng.int rng n
    in
    { sp_source = source; sp_root = root; sp_size = size; sp_draw }
  in
  let specs = ref [] in
  List.iter (fun size -> for _ = 1 to p.trials do specs := draw_trial size :: !specs done) sizes;
  let specs = Array.of_list (List.rev !specs) in
  let run_trial ws spec =
    Metrics.incr m_trials;
    let size = spec.sp_size and source = spec.sp_source and root = spec.sp_root in
    (* Figure 4 has no engine, so the dispatch hook never fires; one
       record per trial keeps its fingerprint sensitive to the drawn
       trial set and exercises the shard merge path. *)
    if Recorder.is_enabled () then
      Recorder.record ~time:0.0 ~label:"fig4.trial"
        ~subject:(Printf.sprintf "src=%d root=%d size=%d" source root size)
        ();
    ignore (Path_eval.draw_with ws (Rng.copy spec.sp_draw) ~source size : Domain.id array);
    let paths = Path_eval.evaluate_drawn ws topo ~source ~root in
    (* Per-trial sanity predicates: a tree path can never beat the
       shortest path (every ratio >= 1), and every receiver must be
       reachable and evaluated. *)
    let pending = ref [] in
    let record label tree_paths =
      let s = Path_eval.ratios ~baseline:paths.Path_eval.spt ~receivers:size tree_paths in
      if p.check_invariants then begin
        if s.Path_eval.receivers_counted <> size then
          pending :=
            ( Printf.sprintf "%s tree: only %d of %d receivers evaluated" label
                s.Path_eval.receivers_counted size,
              None )
            :: !pending;
        if
          s.Path_eval.receivers_counted > 0
          && (s.Path_eval.avg_ratio < 0.999999 || s.Path_eval.max_ratio < 0.999999)
        then
          pending :=
            ( Printf.sprintf "%s tree: ratio below 1 (avg %.6f, max %.6f)" label
                s.Path_eval.avg_ratio s.Path_eval.max_ratio,
              None )
            :: !pending
      end;
      if s.Path_eval.receivers_counted > 0 then Some (s.Path_eval.avg_ratio, s.Path_eval.max_ratio)
      else None
    in
    let t_uni = record "unidirectional" paths.Path_eval.unidirectional in
    let t_bi = record "bidirectional" paths.Path_eval.bidirectional in
    let t_hy = record "hybrid" paths.Path_eval.hybrid in
    let t_violations =
      if p.check_invariants then begin
        let invariants = Invariant.create () in
        Invariant.register invariants ~name:"tree-ratio" (fun () -> !pending);
        List.length (Invariant.check ~quiescent:false invariants)
      end
      else 0
    in
    { t_uni; t_bi; t_hy; t_violations }
  in
  (* One task = one chunk of a trail through the trials' (source, root)
     pairs, so consecutive trials share an endpoint and its BFS tree
     stays in the worker's reusable workspace (BFS slots, shared tree,
     receiver and result buffers); a trial allocates nothing sized by
     the graph or the group.  The task empties the slots first, so the
     BFS count depends only on the spec list, not on which worker ran
     which chunk.  Each trial still runs in its own Obs shard (and,
     under [check_invariants], with its own invariant monitor). *)
  let chunks =
    schedule ~nodes:n (Array.map (fun spec -> (spec.sp_source, spec.sp_root)) specs)
  in
  let run_chunk ws chunk =
    Path_eval.forget ws;
    Array.map
      (fun i ->
        Obs.capture (fun () -> Prof.span "fig4.trial" (fun () -> run_trial ws specs.(i))))
      chunk
  in
  let jobs = if p.jobs = 0 then None else Some p.jobs in
  let chunk_outs =
    Par.map_with ?jobs ~init:(fun () -> Path_eval.make_workspace topo) run_chunk chunks
  in
  (* Each trial's output back at its index. *)
  let outs = Array.make (Array.length specs) None in
  List.iter2
    (fun chunk results -> Array.iteri (fun j i -> outs.(i) <- Some results.(j)) chunk)
    chunks chunk_outs;
  (* Sequential reduce, in trial order: Obs shards fold back and the
     per-point statistics accumulate exactly as the sequential loop
     did, so every output — stdout, --metrics, --profile, telemetry —
     is independent of scheduling. *)
  let violations = ref 0 in
  let idx = ref 0 in
  let points =
    List.map
      (fun size ->
        let ua = Stats.create () and um = Stats.create () in
        let ba = Stats.create () and bm = Stats.create () in
        let ha = Stats.create () and hm = Stats.create () in
        Prof.span "fig4.point" @@ fun () ->
        for _ = 1 to p.trials do
          let out, shard = Option.get outs.(!idx) in
          incr idx;
          Obs.merge shard;
          let fold o sa sm worst =
            match o with
            | Some (avg, mx) ->
                Stats.add sa avg;
                Stats.add sm mx;
                if mx > !worst then worst := mx
            | None -> ()
          in
          fold out.t_uni ua um worst_uni;
          fold out.t_bi ba bm worst_bi;
          fold out.t_hy ha hm worst_hy;
          violations := !violations + out.t_violations
        done;
        (match p.telemetry with
        | Some ts -> Timeseries.sample ts ~time:(float_of_int size)
        | None -> ());
        {
          group_size = size;
          uni_avg = Stats.mean ua;
          uni_max = Stats.mean um;
          bi_avg = Stats.mean ba;
          bi_max = Stats.mean bm;
          hy_avg = Stats.mean ha;
          hy_max = Stats.mean hm;
        })
      sizes
  in
  Metrics.set m_worst_uni !worst_uni;
  Metrics.set m_worst_bi !worst_bi;
  Metrics.set m_worst_hy !worst_hy;
  {
    points;
    worst_uni = !worst_uni;
    worst_bi = !worst_bi;
    worst_hy = !worst_hy;
    invariant_violations = !violations;
  }

let series_of_result r =
  let mk label f =
    {
      Stats.label;
      points = Array.of_list (List.map (fun pt -> (float_of_int pt.group_size, f pt)) r.points);
    }
  in
  [
    mk "Unidirectional Tree (ave)" (fun pt -> pt.uni_avg);
    mk "Unidirectional Tree (max)" (fun pt -> pt.uni_max);
    mk "Bidirectional Tree (ave)" (fun pt -> pt.bi_avg);
    mk "Bidirectional Tree (max)" (fun pt -> pt.bi_max);
    mk "Hybrid Tree (ave)" (fun pt -> pt.hy_avg);
    mk "Hybrid Tree (max)" (fun pt -> pt.hy_max);
  ]
