let hpim_paths ?spf ?rps topo ~rng ~levels ~source ~receivers =
  if levels < 1 then invalid_arg "Baselines.hpim_paths: need at least one RP level";
  let bfs src = match spf with Some c -> Spf.bfs_cached c src | None -> Spf.bfs topo src in
  let n = Topo.domain_count topo in
  (* Hash-placed RPs: no locality by construction (the paper's point). *)
  let rps =
    match rps with Some a -> a | None -> Array.init levels (fun _ -> Rng.int rng n)
  in
  if Array.length rps <> levels then invalid_arg "Baselines.hpim_paths: wrong RP count";
  (* The joined structure: a shared tree rooted at the top RP; the lower
     RPs join it in order, then the receivers join toward the LOWEST RP.
     A receiver's join walks toward RP1 and grafts where it meets the
     structure, mirroring HPIM's explicit-join behaviour. *)
  let top = rps.(levels - 1) in
  let tree = Shared_tree.build ~to_root:(bfs top) topo ~root:top ~members:[] in
  (* Chain the RPs bottom-up: each joins the structure. *)
  for i = levels - 2 downto 0 do
    Shared_tree.join tree rps.(i)
  done;
  let rp1 = rps.(0) in
  (* Receivers join toward RP1: walk the shortest path to RP1, stopping
     at the first on-structure node.  Shared_tree joins walk toward the
     tree ROOT, so emulate the RP1-directed walk explicitly. *)
  let to_rp1 = bfs rp1 in
  Array.iter
    (fun r ->
      let rec walk node acc =
        if Shared_tree.on_tree tree node then List.iter (Shared_tree.join tree) (List.rev acc)
        else
          match Spf.next_hop_toward topo to_rp1 node with
          | Some hop -> walk hop (node :: acc)
          | None -> List.iter (Shared_tree.join tree) (List.rev acc)
      in
      (* Join the path nodes nearest-the-structure first so the graft
         follows the receiver's RP1 path, then the receiver itself. *)
      walk r [];
      Shared_tree.join tree r)
    receivers;
  (* The sender forwards toward RP1 until it meets the structure; data
     then flows bidirectionally along the joined edges. *)
  let entry =
    let rec walk node =
      if Shared_tree.on_tree tree node then node
      else
        match Spf.next_hop_toward topo to_rp1 node with
        | Some hop -> walk hop
        | None -> node
    in
    walk source
  in
  let from_rp1_dist node = Spf.dist to_rp1 node in
  let source_to_entry = abs (from_rp1_dist source - from_rp1_dist entry) in
  Array.map (fun r -> source_to_entry + Shared_tree.tree_distance tree entry r) receivers

type hdvmrp_cost = { flood_deliveries : int; prune_messages : int; per_router_state : int }

let hdvmrp_costs topo ~senders ~groups ~members =
  let n = Topo.domain_count topo in
  if members > n then invalid_arg "Baselines.hdvmrp_costs: more members than domains";
  {
    (* Every new source's data is flooded to every region's boundary
       routers before prunes take effect. *)
    flood_deliveries = senders * groups * n;
    (* Every domain without members prunes, per source and group. *)
    prune_messages = senders * groups * (n - members);
    (* "each boundary router must maintain state for each source sending
       to each group" (§6). *)
    per_router_state = senders * groups;
  }

type comparison_point = {
  cmp_group_size : int;
  hpim_avg : float;
  hpim_max : float;
  bgmp_hybrid_avg : float;
  bgmp_hybrid_max : float;
}

(* One trial's draws, taken on the main domain in exactly the order
   the old sequential loop took them (source, receivers, then the RP
   chain inside [hpim_paths]), so results are byte-identical at any
   job count — and to the sequential runs predating the Par layer. *)
type hpim_spec = { hs_source : Domain.id; hs_receivers : Domain.id array; hs_rps : int array }

let compare_hpim ?(nodes = 1000) ?(levels = 3) ?(trials = 15) ?(sizes = [ 10; 100; 500 ])
    ?jobs ~seed () =
  let rng = Rng.create seed in
  let topo = Gen.power_law ~rng ~n:nodes ~m:2 in
  let csr = Topo.freeze topo in
  (* A trial draws a source plus [size] receivers: skip sizes that do
     not fit the topology. *)
  let sizes = List.filter (fun s -> s < nodes) sizes in
  let specs = ref [] in
  List.iter
    (fun size ->
      for _ = 1 to trials do
        let source = Rng.int rng nodes in
        let receivers =
          Array.of_list
            (List.filter
               (fun d -> d <> source)
               (Array.to_list (Rng.sample_without_replacement rng (size + 1) nodes)))
        in
        let receivers = Array.sub receivers 0 (min size (Array.length receivers)) in
        let rps = Array.init levels (fun _ -> Rng.int rng nodes) in
        specs := { hs_source = source; hs_receivers = receivers; hs_rps = rps } :: !specs
      done)
    sizes;
  let specs = List.rev !specs in
  (* One task per trial; per-task SPF cache over the worker slot's
     reusable workspace, so spf.* counts are scheduling-independent. *)
  let run_trial ws { hs_source = source; hs_receivers = receivers; hs_rps = rps } =
    let spf = Spf.make_cache_csr ~ws csr in
    let spt = Spf.bfs_cached spf source in
    let baseline = Array.map (fun r -> Spf.dist spt r) receivers in
    let hpim = hpim_paths ~spf ~rps topo ~rng ~levels ~source ~receivers in
    let bgmp =
      (Path_eval.evaluate ~from_source:spt
         ~from_root:(Spf.bfs_cached spf receivers.(0))
         topo
         { Path_eval.source; root = receivers.(0); receivers })
        .Path_eval.hybrid
    in
    let summarize paths =
      let s = Path_eval.ratios ~baseline paths in
      if s.Path_eval.receivers_counted > 0 then
        Some (s.Path_eval.avg_ratio, s.Path_eval.max_ratio)
      else None
    in
    (summarize hpim, summarize bgmp)
  in
  let outs =
    Par.map_with ?jobs
      ~init:(fun () -> Spf.make_workspace csr)
      (fun ws spec -> Par.with_shard (fun () -> run_trial ws spec))
      specs
  in
  let outs = Array.of_list outs in
  let idx = ref 0 in
  List.map
    (fun size ->
      let ha = Stats.create () and hm = Stats.create () in
      let ba = Stats.create () and bm = Stats.create () in
      for _ = 1 to trials do
        let (hpim, bgmp), shard = outs.(!idx) in
        incr idx;
        Par.merge_shard shard;
        let record stats_avg stats_max = function
          | Some (avg, mx) ->
              Stats.add stats_avg avg;
              Stats.add stats_max mx
          | None -> ()
        in
        record ha hm hpim;
        record ba bm bgmp
      done;
      {
        cmp_group_size = size;
        hpim_avg = Stats.mean ha;
        hpim_max = Stats.mean hm;
        bgmp_hybrid_avg = Stats.mean ba;
        bgmp_hybrid_max = Stats.mean bm;
      })
    sizes
