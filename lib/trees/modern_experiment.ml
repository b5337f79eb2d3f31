type mode = Incremental | Scratch

type params = {
  domains : int;
  groups : int;
  roots : int;
  events : int;
  link_every : int;
  trials : int;
  seed : int;
  mode : mode;
  jobs : int;
  check_invariants : bool;
  telemetry : Timeseries.t option;
}

let default_params =
  {
    domains = 2000;
    groups = 200;
    roots = 8;
    events = 4000;
    link_every = 500;
    trials = 2;
    seed = 1998;
    mode = Incremental;
    jobs = 0;
    check_invariants = false;
    telemetry = None;
  }

type checkpoint = {
  ck_events : int;
  ck_members : float;
  ck_entries : float;
  ck_max_router : float;
  ck_stateful : float;
  ck_grib : float;
}

type result = {
  r_domains : int;
  r_links : int;
  checkpoints : checkpoint list;
  joins : int;
  leaves : int;
  skipped : int;
  link_events : int;
  repairs : int;
  touched : int;
  invariant_violations : int;
}

(* The same transit-stub shape solver as [Tree_experiment]: 8 backbones,
   11 stubs per regional, regionals sized to land near the target. *)
let make_topology ~rng ~domains =
  let backbones = 8 in
  let regionals = max 1 (domains / (backbones * 12)) in
  Gen.transit_stub ~rng ~backbones ~regionals_per_backbone:regionals ~stubs_per_regional:11

(* What one trial reports back.  Everything is an int (or a sum of
   ints) drawn from the trial's own (seed, trial) streams, so the
   reduce is byte-identical at any job count. *)
type trial_out = {
  o_live : int array;  (* per checkpoint *)
  o_entries : int array;
  o_maxr : int array;
  o_stateful : int array;
  o_grib : int array;
  o_joins : int;
  o_leaves : int;
  o_skipped : int;
  o_linkev : int;
  o_repairs : int;
  o_touched : int;
  o_violations : int;
}

(* The state a trial writes, built once per Par worker and reset at the
   start of each trial it runs.  The reset state answers exactly as
   fresh state would, so the trial's output stays a function of the
   trial alone. *)
type worker = {
  ws : Spf.workspace;
  cache : Spf.cache;  (* borrows [ws] *)
  arena : Tree_arena.t;
  grib : Grib_arena.t;
}

let run p =
  if p.roots < 1 then invalid_arg "Modern_experiment: need at least one root";
  if p.trials < 1 then invalid_arg "Modern_experiment: need at least one trial";
  let rng = Rng.create p.seed in
  let topo = Prof.span "fig4m.topology" (fun () -> make_topology ~rng ~domains:p.domains) in
  let n = Topo.domain_count topo in
  let csr = Topo.freeze topo in
  let nlinks = Array.length csr.Topo.linkv in
  let nroots = min p.roots n in
  let roots_arr = Array.init nroots (fun i -> i * n / nroots) in
  (* Link churn toggles peer links: provider chains stay up, so stubs
     keep a route to their own cone while transit diversity flaps. *)
  let cands =
    let acc = ref [] in
    Array.iteri
      (fun lid l -> if l.Topo.rel = Topo.Peer then acc := (lid, l.Topo.a, l.Topo.b) :: !acc)
      csr.Topo.linkv;
    Array.of_list (List.rev !acc)
  in
  let cks =
    if p.events <= 0 then [||]
    else begin
      let raw = Array.init 10 (fun k -> p.events * (k + 1) / 10) in
      let out = ref [] in
      Array.iter (fun e -> if e > 0 && (match !out with x :: _ -> x <> e | [] -> true) then out := e :: !out) raw;
      Array.of_list (List.rev !out)
    end
  in
  let ncks = Array.length cks in
  let make_worker () =
    let ws = Spf.make_workspace csr in
    {
      ws;
      cache = Spf.make_cache_csr ~ws csr;
      arena = Tree_arena.create ~domains:n ();
      grib = Grib_arena.create ~domains:n ();
    }
  in
  let run_trial { ws; cache; arena; grib } trial =
    Tree_arena.clear arena;
    Grib_arena.clear grib;
    Spf.cache_reset cache;
    let lrng = Rng.create (p.seed lxor ((trial + 1) * 0x51ED2705)) in
    (* Mode plumbing: both serve the same maintained-tree queries; they
       differ only in what a link toggle costs. *)
    let scratch_alive = if p.mode = Scratch then Array.make (max 1 nlinks) true else [||] in
    let scratch_trees : Spf.paths option array =
      if p.mode = Scratch then Array.make n None else [||]
    in
    let get_tree root =
      match p.mode with
      | Incremental -> Spf.bfs_cached cache root
      | Scratch -> (
          match scratch_trees.(root) with
          | Some t -> t
          | None ->
              let t = Spf.bfs_csr ~ws ~alive:scratch_alive csr root in
              scratch_trees.(root) <- Some t;
              t)
    in
    let apply_toggle lid a b up =
      match p.mode with
      | Incremental -> Spf.cache_note_link cache ~a ~b ~up
      | Scratch ->
          scratch_alive.(lid) <- up;
          (* the retired pattern: invalidate everything, recompute every
             tree anyone is using *)
          Array.iteri
            (fun r t ->
              match t with
              | Some _ -> scratch_trees.(r) <- Some (Spf.bfs_csr ~ws ~alive:scratch_alive csr r)
              | None -> ())
            scratch_trees
    in
    let cand_up = Array.make (max 1 (Array.length cands)) true in
    let joins = ref 0 and leaves = ref 0 and skipped = ref 0 and linkev = ref 0 in
    let live = ref 0 in
    let o_live = Array.make ncks 0
    and o_entries = Array.make ncks 0
    and o_maxr = Array.make ncks 0
    and o_stateful = Array.make ncks 0
    and o_grib = Array.make ncks 0 in
    let next_ck = ref 0 in
    let buf = ref (Array.make 64 0) in
    (* Per-trial sanity predicates over the arena state, counted into
       the trial's shard (same reason each trial owns its SPF cache):
       each arena's global entry counter must agree with its per-router
       sum, live memberships must balance joins minus leaves and match
       the arena's live paths, and the G-RIB can only grow (this
       experiment never withdraws a group-range route) up to its
       (root-range x router) ceiling. *)
    let invariants = Invariant.create () in
    let pending = ref [] in
    Invariant.register invariants ~name:"state-accounting" (fun () -> !pending);
    let prev_grib = ref 0 in
    let flag fmt = Printf.ksprintf (fun s -> pending := (s, None) :: !pending) fmt in
    let sample () =
      let k = !next_ck in
      o_live.(k) <- !live;
      o_entries.(k) <- Tree_arena.entries arena;
      o_grib.(k) <- Grib_arena.entries grib;
      let mx = ref 0 and st = ref 0 and tot = ref 0 in
      for v = 0 to n - 1 do
        let e = Tree_arena.node_entries arena v in
        tot := !tot + e;
        if e > 0 then incr st;
        if e > !mx then mx := e
      done;
      o_maxr.(k) <- !mx;
      o_stateful.(k) <- !st;
      if p.check_invariants then begin
        if !tot <> o_entries.(k) then
          flag "checkpoint %d: arena counter %d <> per-router sum %d" cks.(k) o_entries.(k) !tot;
        let gtot = ref 0 in
        for v = 0 to n - 1 do
          gtot := !gtot + Grib_arena.node_entries grib v
        done;
        if !gtot <> o_grib.(k) then
          flag "checkpoint %d: G-RIB counter %d <> per-router sum %d" cks.(k) o_grib.(k) !gtot;
        if !live <> !joins - !leaves then
          flag "checkpoint %d: %d live members <> %d joins - %d leaves" cks.(k) !live !joins
            !leaves;
        if Tree_arena.live_paths arena <> !live then
          flag "checkpoint %d: arena holds %d live paths <> %d live members" cks.(k)
            (Tree_arena.live_paths arena) !live;
        if !live = 0 && o_entries.(k) <> 0 then
          flag "checkpoint %d: %d forwarding entries left with no live member" cks.(k)
            o_entries.(k);
        if o_grib.(k) < !prev_grib then
          flag "checkpoint %d: G-RIB shrank %d -> %d (routes are never withdrawn)" cks.(k)
            !prev_grib o_grib.(k);
        if o_grib.(k) > nroots * n then
          flag "checkpoint %d: G-RIB %d exceeds %d ranges x %d routers" cks.(k) o_grib.(k) nroots
            n;
        prev_grib := o_grib.(k)
      end;
      next_ck := k + 1
    in
    (* Link churn and checkpoints follow every membership event. *)
    let after_event i =
      (if p.link_every > 0 && Array.length cands > 0 && (i + 1) mod p.link_every = 0 then begin
         let j = Rng.int lrng (Array.length cands) in
         let lid, a, b = cands.(j) in
         let up = not cand_up.(j) in
         cand_up.(j) <- up;
         apply_toggle lid a b up;
         incr linkev
       end);
      if !next_ck < ncks && i + 1 = cks.(!next_ck) then sample ()
    in
    (* The arena sees the trial's group block renumbered from 0, so its
       directory is [groups] long at any trial index; the root range is
       still picked by the global id.  A join's receipt is its arena
       handle, or -1 for an unreachable member, which installs nothing. *)
    let base = trial * p.groups in
    Membership.iter_group_churn ~seed:p.seed ~shard:trial ~domains:n ~groups:p.groups
      ~events:p.events
      ~join:(fun i group m ->
        let ri = group mod nroots in
        let root = roots_arr.(ri) in
        let tree = get_tree root in
        let receipt =
          if tree.Spf.dist.(m) = max_int then begin
            incr skipped;
            -1
          end
          else begin
            let len = tree.Spf.dist.(m) + 1 in
            if len > Array.length !buf then buf := Array.make (2 * len) 0;
            let v = ref m in
            for j = 0 to len - 1 do
              !buf.(j) <- !v;
              (* install the group-range route the first time any
                 member's state touches this router *)
              if not (Grib_arena.mem grib ~group:ri ~node:!v) then
                Grib_arena.set grib ~group:ri ~node:!v tree.Spf.via.(!v);
              v := tree.Spf.via.(!v)
            done;
            incr joins;
            incr live;
            Tree_arena.join arena ~group:(group - base) ~path:!buf ~len
          end
        in
        after_event i;
        receipt)
      ~leave:(fun i group _ h ->
        if h >= 0 then begin
          Tree_arena.leave arena ~group:(group - base) h;
          incr leaves;
          decr live
        end;
        after_event i);
    let repairs, touched =
      match p.mode with Incremental -> Spf.cache_repair_stats cache | Scratch -> (0, 0)
    in
    let violations =
      if p.check_invariants then List.length (Invariant.check ~quiescent:false invariants) else 0
    in
    {
      o_live;
      o_entries;
      o_maxr;
      o_stateful;
      o_grib;
      o_joins = !joins;
      o_leaves = !leaves;
      o_skipped = !skipped;
      o_linkev = !linkev;
      o_repairs = repairs;
      o_touched = touched;
      o_violations = violations;
    }
  in
  let jobs = if p.jobs = 0 then None else Some p.jobs in
  let trial_ids = List.init p.trials (fun t -> t) in
  let outs =
    Par.map_with ?jobs ~init:make_worker
      (fun w trial ->
        Obs.capture (fun () -> Prof.span "fig4m.trial" (fun () -> run_trial w trial)))
      trial_ids
  in
  (* Reduce in trial order: shard folding and float accumulation are
     scheduling-independent. *)
  let joins = ref 0
  and leaves = ref 0
  and skipped = ref 0
  and linkev = ref 0
  and repairs = ref 0
  and touched = ref 0
  and violations = ref 0 in
  let sum_live = Array.make ncks 0
  and sum_entries = Array.make ncks 0
  and sum_maxr = Array.make ncks 0
  and sum_stateful = Array.make ncks 0
  and sum_grib = Array.make ncks 0 in
  List.iter
    (fun (o, shard) ->
      Obs.merge shard;
      joins := !joins + o.o_joins;
      leaves := !leaves + o.o_leaves;
      skipped := !skipped + o.o_skipped;
      linkev := !linkev + o.o_linkev;
      repairs := !repairs + o.o_repairs;
      touched := !touched + o.o_touched;
      violations := !violations + o.o_violations;
      for k = 0 to ncks - 1 do
        sum_live.(k) <- sum_live.(k) + o.o_live.(k);
        sum_entries.(k) <- sum_entries.(k) + o.o_entries.(k);
        sum_maxr.(k) <- sum_maxr.(k) + o.o_maxr.(k);
        sum_stateful.(k) <- sum_stateful.(k) + o.o_stateful.(k);
        sum_grib.(k) <- sum_grib.(k) + o.o_grib.(k)
      done)
    outs;
  let t = float_of_int p.trials in
  let checkpoints =
    List.init ncks (fun k ->
        {
          ck_events = cks.(k);
          ck_members = float_of_int sum_live.(k) /. t;
          ck_entries = float_of_int sum_entries.(k) /. t;
          ck_max_router = float_of_int sum_maxr.(k) /. t;
          ck_stateful = float_of_int sum_stateful.(k) /. t;
          ck_grib = float_of_int sum_grib.(k) /. t;
        })
  in
  (* Telemetry fires on the main domain after the in-order reduce, one
     row per checkpoint with the membership-event count as the time
     axis (this experiment has no engine), so the series is
     byte-identical at any job count. *)
  (match p.telemetry with
  | Some ts ->
      let cur = ref None in
      let get f = match !cur with Some ck -> f ck | None -> 0.0 in
      Timeseries.register ts "fig4m.members" (fun () -> get (fun ck -> ck.ck_members));
      Timeseries.register ts "fig4m.entries" (fun () -> get (fun ck -> ck.ck_entries));
      Timeseries.register ts "fig4m.max_router" (fun () -> get (fun ck -> ck.ck_max_router));
      Timeseries.register ts "fig4m.stateful" (fun () -> get (fun ck -> ck.ck_stateful));
      Timeseries.register ts "fig4m.grib" (fun () -> get (fun ck -> ck.ck_grib));
      List.iter
        (fun ck ->
          cur := Some ck;
          Timeseries.sample ts ~time:(float_of_int ck.ck_events))
        checkpoints
  | None -> ());
  {
    r_domains = n;
    r_links = nlinks;
    checkpoints;
    joins = !joins;
    leaves = !leaves;
    skipped = !skipped;
    link_events = !linkev;
    repairs = !repairs;
    touched = !touched;
    invariant_violations = !violations;
  }

let pp_summary ppf r =
  Format.fprintf ppf "--- fig4-modern state vs members ---@.";
  Format.fprintf ppf "%8s %10s %12s %9s %9s %10s@." "events" "members" "entries" "max/rtr"
    "routers" "grib";
  List.iter
    (fun ck ->
      Format.fprintf ppf "%8d %10.1f %12.1f %9.1f %9.1f %10.1f@." ck.ck_events ck.ck_members
        ck.ck_entries ck.ck_max_router ck.ck_stateful ck.ck_grib)
    r.checkpoints;
  Format.fprintf ppf
    "totals: %d joins, %d leaves, %d unreachable, %d link events, %d repairs touching %d labels@."
    r.joins r.leaves r.skipped r.link_events r.repairs r.touched
