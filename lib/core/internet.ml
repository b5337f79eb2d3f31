type config = {
  masc : Masc_node.config;
  bgmp : Bgmp_fabric.config;
  seed : int;
  loss : float;
}

let default_config =
  {
    masc = Masc_node.default_config;
    bgmp = Bgmp_fabric.default_config;
    seed = 1998;
    loss = 0.0;
  }

let quick_config =
  {
    default_config with
    masc =
      {
        Masc_node.default_config with
        Masc_node.claim_wait = Time.minutes 5.0;
        renew_margin = Time.hours 1.0;
      };
  }

type t = {
  mutable cfg : config;
  engine : Engine.t;
  net_topo : Topo.t;
  net : Net.t;
  bgp_net : Bgp_network.t;
  masc_net : Masc_network.t;
  bgmp_fabric : Bgmp_fabric.t;
  maases : Maas.t array;
  invariants : Invariant.t;
  pending_rebuild : (Ipv4.t, unit) Hashtbl.t;
  mutable seen_violations : Invariant.violation list;
}

let engine t = t.engine

let topo t = t.net_topo

let net t = t.net

let speaker t d = Bgp_network.speaker t.bgp_net d

let masc_node t d = Masc_network.node t.masc_net d

let fabric t = t.bgmp_fabric

let bgp t = t.bgp_net

let masc_network t = t.masc_net

(* Where the path to the group's root leaves [dom], per its G-RIB. *)
let root_route_via bgp_net dom group =
  match Speaker.lookup (Bgp_network.speaker bgp_net dom) group with
  | None -> Bgmp_fabric.Unroutable
  | Some { Route.as_path = []; _ } -> Bgmp_fabric.Root_here
  | Some { Route.as_path = nh :: _; _ } -> Bgmp_fabric.Via nh

(* The trace id a group's causal chain runs under: the span of the
   covering G-RIB route (any vantage), else a fresh group id — the same
   rule the fabric applies to joins. *)
let group_trace_id t group =
  let rec scan = function
    | [] -> Span.group_id (Ipv4.to_string group)
    | (d : Domain.t) :: rest -> (
        match Speaker.lookup (Bgp_network.speaker t.bgp_net d.Domain.id) group with
        | Some { Route.span = Some s; _ } -> s.Span.trace_id
        | _ -> scan rest)
  in
  scan (Topo.domains t.net_topo)

(* §4: sibling MASC allocations must not overlap once acquired.  An
   arena is one parent's space (its children's Up claims plus its own
   Down reservations) or the top-level mesh; its key is the parent's
   domain id, or -1 for the mesh.  A sweep visits the domains in id-list
   order and each node's claims in [all_claims] order, numbers the
   acquired ones, and chains each arena's claims forward: [ov_first] and
   [ov_last] per arena (indexed by key + 1), [ov_next] per claim.  The
   arrays are scratch reused by every check of one stack, so while the
   invariant holds a check allocates nothing: details are formatted only
   for a pair that overlaps. *)
type overlap_scratch = {
  ov_nodes : Masc_node.t array;  (** in id-list order *)
  mutable ov_n : int;  (** acquired claims numbered so far *)
  mutable ov_owner : Domain.id array;
  mutable ov_key : int array;
  mutable ov_claim : Masc_node.own_claim array;
  mutable ov_next : int array;  (** next claim of the same arena, or -1 *)
  ov_first : int array;  (** -1: no claim in the arena *)
  ov_last : int array;
  mutable ov_arenas : int;  (** distinct arena keys *)
  mutable ov_dom : Domain.id;  (** the domain being swept *)
  mutable ov_up_key : int;  (** its Up arena *)
  mutable ov_view : Address_space.t;  (** its registry *)
  mutable ov_pairs : (int * int) list;  (** overlapping pairs (later, earlier), newest first *)
  mutable ov_in_view : (string * string option) list;  (** newest first *)
}

let overlap_scratch masc_net =
  let ids = Masc_network.ids masc_net in
  let keys = 2 + List.fold_left max (-1) ids in
  {
    ov_nodes = Array.map (Masc_network.node masc_net) (Array.of_list ids);
    ov_n = 0;
    ov_owner = [||];
    ov_key = [||];
    ov_claim = [||];
    ov_next = [||];
    ov_first = Array.make keys (-1);
    ov_last = Array.make keys (-1);
    ov_arenas = 0;
    ov_dom = -1;
    ov_up_key = -1;
    ov_view = Address_space.create ();
    ov_pairs = [];
    ov_in_view = [];
  }

let grow_overlap_scratch sc (c : Masc_node.own_claim) =
  let cap = max 16 (2 * sc.ov_n) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 sc.ov_n;
    b
  in
  sc.ov_owner <- extend sc.ov_owner 0;
  sc.ov_key <- extend sc.ov_key 0;
  sc.ov_claim <- extend sc.ov_claim c;
  sc.ov_next <- extend sc.ov_next (-1)

(* One claim of the domain being swept: number it into its arena's
   chain, and check the domain's own registry against it (a registered
   sibling claim overlapping one of our acquired ranges means collision
   resolution failed to protect it). *)
let sweep_claim sc (c : Masc_node.own_claim) =
  if c.Masc_node.claim_state = Masc_node.Acquired then begin
    let key =
      match c.Masc_node.claim_arena with Masc_node.Up -> sc.ov_up_key | Masc_node.Down -> sc.ov_dom
    in
    let i = sc.ov_n in
    if i = Array.length sc.ov_owner then grow_overlap_scratch sc c;
    sc.ov_owner.(i) <- sc.ov_dom;
    sc.ov_key.(i) <- key;
    sc.ov_claim.(i) <- c;
    sc.ov_next.(i) <- -1;
    if sc.ov_first.(key + 1) < 0 then begin
      sc.ov_first.(key + 1) <- i;
      sc.ov_arenas <- sc.ov_arenas + 1
    end
    else sc.ov_next.(sc.ov_last.(key + 1)) <- i;
    sc.ov_last.(key + 1) <- i;
    sc.ov_n <- i + 1;
    let id = sc.ov_dom in
    if
      c.Masc_node.claim_arena = Masc_node.Up
      && Address_space.foreign_conflict sc.ov_view ~owner:id c.Masc_node.claim_prefix
    then
      List.iter
        (fun (p, owner) ->
          if owner <> id then
            sc.ov_in_view <-
              ( Printf.sprintf "domain %d's acquired range %s overlaps %s registered to domain %d"
                  id
                  (Prefix.to_string c.Masc_node.claim_prefix)
                  (Prefix.to_string p) owner,
                Some c.Masc_node.claim_span.Span.trace_id )
              :: sc.ov_in_view)
        (Address_space.conflicting sc.ov_view c.Masc_node.claim_prefix)
  end

(* Claim [x] against every earlier claim [y] of its arena. *)
let rec overlaps_before sc x y =
  if y <> x then begin
    if
      sc.ov_owner.(x) <> sc.ov_owner.(y)
      && Prefix.overlaps sc.ov_claim.(x).Masc_node.claim_prefix
           sc.ov_claim.(y).Masc_node.claim_prefix
    then sc.ov_pairs <- (x, y) :: sc.ov_pairs;
    overlaps_before sc x sc.ov_next.(y)
  end

let rec overlaps_in_arena sc first x =
  if x >= 0 then begin
    overlaps_before sc x first;
    overlaps_in_arena sc first sc.ov_next.(x)
  end

(* The pairs in report order, which ledgers and recordings carry and so
   must not change.  Arenas come in the reversed fold order of a stdlib
   [Hashtbl] created with size 8 and keyed by [Domain.id option] (the
   mesh is [None]): bucket index descending, then first claim
   ascending.  Within an arena: later claim ascending, then earlier
   claim ascending. *)
let overlap_reports sc =
  let buckets =
    (* 16 buckets, doubled whenever the table holds more than twice as
       many keys *)
    let rec size b = if sc.ov_arenas > 2 * b then size (2 * b) else b in
    size 16
  in
  let bucket key = Hashtbl.hash (if key < 0 then None else Some key) land (buckets - 1) in
  let rank (x, _) =
    let key = sc.ov_key.(x) in
    (-bucket key, sc.ov_first.(key + 1))
  in
  List.stable_sort (fun a b -> compare (rank a) (rank b)) (List.rev sc.ov_pairs)
  |> List.map (fun (x, y) ->
         let ca = sc.ov_claim.(x) and cb = sc.ov_claim.(y) in
         ( Printf.sprintf "domains %d and %d hold overlapping acquired ranges %s and %s"
             sc.ov_owner.(x) sc.ov_owner.(y)
             (Prefix.to_string ca.Masc_node.claim_prefix)
             (Prefix.to_string cb.Masc_node.claim_prefix),
           Some ca.Masc_node.claim_span.Span.trace_id ))

let masc_overlap_violations t =
  let sc = overlap_scratch t.masc_net in
  let visit = sweep_claim sc in
  fun () ->
    sc.ov_n <- 0;
    sc.ov_arenas <- 0;
    sc.ov_pairs <- [];
    sc.ov_in_view <- [];
    Array.fill sc.ov_first 0 (Array.length sc.ov_first) (-1);
    for k = 0 to Array.length sc.ov_nodes - 1 do
      let node = sc.ov_nodes.(k) in
      sc.ov_dom <- Masc_node.id node;
      sc.ov_up_key <- (match Masc_node.role node with Masc_node.Top -> -1 | Masc_node.Child p -> p);
      sc.ov_view <- Masc_node.space_view node;
      Masc_node.iter_claims node visit
    done;
    for k = 0 to Array.length sc.ov_first - 1 do
      let first = sc.ov_first.(k) in
      if first >= 0 then overlaps_in_arena sc first sc.ov_next.(first)
    done;
    match (sc.ov_pairs, sc.ov_in_view) with
    | [], [] -> []
    | _ -> overlap_reports sc @ List.rev sc.ov_in_view

(* Every router's (star,G) upstream must agree with the current G-RIB:
   the root domain has no upstream peer, everyone else's upstream peer
   sits in the G-RIB next-hop domain, and tree state for an unroutable
   group is stale.  Only meaningful when no rebuild is pending.  One
   group's violations come in tree-domain then router order, pushed
   onto [acc] newest first; the group's name and trace id are formatted
   only for a violation. *)
let group_nexthop_violations t acc group =
  let report fmt =
    Printf.ksprintf
      (fun detail -> acc := (detail, Some (group_trace_id t group)) :: !acc)
      fmt
  in
  List.iter
    (fun d ->
      let rr = root_route_via t.bgp_net d group in
      List.iter
        (fun r ->
          match Bgmp_router.star_entry r group with
          | None -> ()
          | Some e -> (
              match (e.Bgmp_router.parent, rr) with
              | Some (Bgmp_router.Peer p), Bgmp_fabric.Via nh ->
                  let pd = Bgmp_router.domain (Bgmp_fabric.router t.bgmp_fabric p) in
                  if pd <> nh then
                    report
                      "group %s: domain %d joins upstream via domain %d but its G-RIB next \
                       hop is %d"
                      (Ipv4.to_string group) d pd nh
              | Some (Bgmp_router.Peer p), Bgmp_fabric.Root_here ->
                  report "group %s: root domain %d still has an upstream peer (router %d)"
                    (Ipv4.to_string group) d p
              | Some (Bgmp_router.Peer p), Bgmp_fabric.Unroutable ->
                  (* Parentless local state is legitimate for a
                     partitioned member; a live upstream edge for
                     an unroutable group is stale. *)
                  report
                    "group %s: domain %d keeps upstream peer %d but the group is \
                     unroutable"
                    (Ipv4.to_string group) d p
              | _ -> ()))
        (Bgmp_fabric.routers_of t.bgmp_fabric d))
    (Bgmp_fabric.tree_domains t.bgmp_fabric ~group)

let grib_nexthop_violations t () =
  if Hashtbl.length t.pending_rebuild > 0 then []
  else begin
    let acc = ref [] in
    Bgmp_fabric.iter_active_groups t.bgmp_fabric (group_nexthop_violations t acc);
    List.rev !acc
  end

(* §2 policy, checked in the protocol rather than by a path kernel: the
   advertisement path origin -> ... -> self of every G-RIB route climbs
   customer->provider hops, crosses at most one peer link, then
   descends provider->customer hops (the Gao–Rexford rule
   [Speaker.exportable] implements), and every hop is a link.
   [as_path] lists that path nearest first, so the walk runs from self
   back to the origin and accepts the reversed pattern: descents, at
   most one peer hop, then ascents.  A hop X -> Y is an ascent when Y
   is X's provider, a descent when Y is X's customer, and a peering on
   a peer link.  The link table and the visitor are built
   once, so while every route is valley-free a sweep allocates nothing:
   details are formatted only for a route that breaks the rule. *)
type hop = Ascent | Peering | Descent

type valley_scratch = {
  vf_n : int;
  vf_hops : (int, hop) Hashtbl.t;  (** [x * n + y] -> the hop x -> y *)
  mutable vf_self : Domain.id;  (** the speaker being swept *)
  mutable vf_bad : (string * string option) list;  (** newest first *)
}

(* The first hop of [path] (nearest first, ending at the origin) that
   breaks the pattern, as (sender, receiver); (-1, -1) when the path is
   valley-free.  [descending]: no peer or ascent seen yet. *)
let rec valley_hop sc receiver descending = function
  | [] -> (-1, -1)
  | sender :: rest -> (
      match Hashtbl.find sc.vf_hops ((sender * sc.vf_n) + receiver) with
      | exception Not_found -> (sender, receiver)
      | Ascent -> valley_hop sc sender false rest
      | Descent when descending -> valley_hop sc sender true rest
      | Peering when descending -> valley_hop sc sender false rest
      | Descent | Peering -> (sender, receiver))

let visit_route sc (r : Route.t) =
  match valley_hop sc sc.vf_self true r.Route.as_path with
  | -1, _ -> ()
  | sender, receiver ->
      let path =
        String.concat " -> " (List.rev_map string_of_int (sc.vf_self :: r.Route.as_path))
      in
      let why =
        if Hashtbl.mem sc.vf_hops ((sender * sc.vf_n) + receiver) then
          "breaks the valley-free order"
        else "is not a link"
      in
      sc.vf_bad <-
        ( Printf.sprintf "domain %d's route for %s has path %s: hop %d -> %d %s" sc.vf_self
            (Prefix.to_string r.Route.prefix) path sender receiver why,
          Option.map (fun s -> s.Span.trace_id) r.Route.span )
        :: sc.vf_bad

let grib_valley_free t =
  let n = Topo.domain_count t.net_topo in
  let hops = Hashtbl.create (4 * Topo.link_count t.net_topo) in
  List.iter
    (fun (l : Topo.link) ->
      let a = l.Topo.a and b = l.Topo.b in
      match l.Topo.rel with
      | Topo.Peer ->
          Hashtbl.replace hops ((a * n) + b) Peering;
          Hashtbl.replace hops ((b * n) + a) Peering
      | Topo.Provider_customer ->
          Hashtbl.replace hops ((a * n) + b) Descent;
          Hashtbl.replace hops ((b * n) + a) Ascent)
    (Topo.links t.net_topo);
  let speakers = Array.init n (Bgp_network.speaker t.bgp_net) in
  let sc = { vf_n = n; vf_hops = hops; vf_self = -1; vf_bad = [] } in
  let visit = visit_route sc in
  fun () ->
    sc.vf_bad <- [];
    for d = 0 to n - 1 do
      sc.vf_self <- d;
      Speaker.iter_routes speakers.(d) visit
    done;
    List.rev sc.vf_bad

(* [f] summed over an array, without a closure or a ref. *)
let rec sum_over f a i acc = if i < 0 then acc else sum_over f a (i - 1) (acc + f a.(i))

let sum_versions f a () = sum_over f a (Array.length a - 1) 0

let masc_version node = Masc_node.version node + Address_space.version (Masc_node.space_view node)

(* The two cadence predicates are gated on the versions of the state
   they read (see DESIGN.md): the overlap sweep reads each node's own
   claims, role and registry; the cycle pass reads the (star,G) tables
   and, through [parent_hop]'s root route, every G-RIB.  Every counter
   only grows, so each sum moves exactly when one of its counters
   does. *)
let install_invariants t =
  let inv = t.invariants in
  let domains = Topo.domains t.net_topo in
  let nodes =
    Array.of_list (List.map (Masc_network.node t.masc_net) (Masc_network.ids t.masc_net))
  in
  let routers =
    Array.of_list
      (List.concat_map
         (fun (d : Domain.t) -> Bgmp_fabric.routers_of t.bgmp_fabric d.Domain.id)
         domains)
  in
  let speakers =
    Array.of_list
      (List.map (fun (d : Domain.t) -> Bgp_network.speaker t.bgp_net d.Domain.id) domains)
  in
  let router_versions = sum_versions Bgmp_router.version routers in
  let speaker_versions = sum_versions Speaker.version speakers in
  Invariant.register inv ~name:"masc-sibling-overlap"
    ~depends:(sum_versions masc_version nodes)
    (masc_overlap_violations t);
  Invariant.register inv ~name:"bgmp-acyclic"
    ~depends:(fun () -> router_versions () + speaker_versions ())
    (fun () -> Bgmp_fabric.cycle_violations t.bgmp_fabric);
  Invariant.register inv ~quiescent_only:true ~name:"bgmp-tree-settled" (fun () ->
      Bgmp_fabric.settle_violations t.bgmp_fabric);
  Invariant.register inv ~quiescent_only:true ~name:"grib-nexthop" (grib_nexthop_violations t);
  Invariant.register inv ~quiescent_only:true ~name:"grib-valley-free" ~depends:speaker_versions
    (grib_valley_free t)

let check_invariants ?(quiescent = true) t =
  let vs = Invariant.check ~quiescent t.invariants in
  List.iter
    (fun (v : Invariant.violation) ->
      t.seen_violations <- v :: t.seen_violations;
      if Recorder.is_enabled () then
        Recorder.recordf ~time:(Engine.now t.engine) ~label:"violation" ~subject:"invariant"
          ?trace_id:v.Invariant.trace_id "%s: %s" v.Invariant.inv v.Invariant.detail)
    vs;
  vs

let enable_invariant_checks t =
  Engine.set_monitor t.engine ~cadence:(Time.hours 1.0) (fun ~quiescent -> ignore (check_invariants ~quiescent t))

(* Telemetry: register the stack's convergence-curve sources on [ts] and
   drive them from the engine's sampler hook, mirroring how invariant
   checks ride the monitor — no events of its own, so sampling never
   changes scheduling order or keeps a drained run alive. *)
let enable_sampling ?(every = Time.minutes 1.0) t ts =
  Timeseries.register ts "engine.pending" (fun () -> float_of_int (Engine.pending t.engine));
  List.iter
    (fun proto ->
      Timeseries.register ts ("net.inflight." ^ proto) (fun () ->
          float_of_int (Net.in_flight t.net ~protocol:proto)))
    [ "masc"; "bgp"; "bgmp" ];
  let domains () = Topo.domains t.net_topo in
  Timeseries.register ts "grib.routes" (fun () ->
      List.fold_left
        (fun acc (d : Domain.t) ->
          acc +. float_of_int (Speaker.grib_size (Bgp_network.speaker t.bgp_net d.Domain.id)))
        0.0 (domains ()));
  Timeseries.register ts "masc.claims_outstanding" (fun () ->
      List.fold_left
        (fun acc id ->
          acc +. float_of_int (List.length (Masc_node.all_claims (Masc_network.node t.masc_net id))))
        0.0
        (Masc_network.ids t.masc_net));
  Timeseries.register ts "bgmp.tree_entries" (fun () ->
      List.fold_left
        (fun acc (d : Domain.t) ->
          List.fold_left
            (fun acc r -> acc +. float_of_int (Bgmp_router.entry_count r))
            acc
            (Bgmp_fabric.routers_of t.bgmp_fabric d.Domain.id))
        0.0 (domains ()));
  Engine.set_sampler t.engine ~every (fun time -> Timeseries.sample ts ~time)

let invariant_violations t = List.rev t.seen_violations

let invariants t = t.invariants

(* The one transport under all three protocols: link state (failures,
   partitions, loss) has a single source of truth.  The loss seed is
   decorrelated from the MASC rng (same [config.seed]) so enabling loss
   never replays MASC's claim randomness. *)
let net_config config =
  { Net.loss_rate = config.loss; loss_seed = config.seed lxor 0x6e6574 }

let create ?(config = default_config) net_topo =
  let engine = Engine.create () in
  let rng = Rng.create config.seed in
  let net = Net.create ~engine ~config:(net_config config) () in
  let bgp_net = Bgp_network.create ~engine ~net ~topo:net_topo () in
  let masc_net =
    Masc_network.of_topo ~engine ~rng ~config:config.masc ~net net_topo
  in
  (* MASC -> BGP glue: acquired ranges become group routes injected at
     their root domain; lost ranges are withdrawn (§4.2).  The route
     carries a child of the claim's acquisition span so G-RIB changes
     and the joins they enable stay on the claim's causal chain. *)
  List.iter
    (fun id ->
      let node = Masc_network.node masc_net id in
      Masc_node.add_on_acquired node (fun prefix ~lifetime_end ~span ->
          Bgp_network.originate ~lifetime_end ~span:(Span.child span) bgp_net id prefix);
      Masc_node.add_on_replaced node (fun ~old_prefix ~by:_ ->
          Bgp_network.withdraw bgp_net id old_prefix);
      Masc_node.add_on_lost node (fun prefix -> Bgp_network.withdraw bgp_net id prefix))
    (Masc_network.ids masc_net);
  (* BGP -> BGMP glue: the G-RIB answers where the root domain lies. *)
  let route_to_root dom group = root_route_via bgp_net dom group in
  let span_of_group dom group =
    Option.bind (Speaker.lookup (Bgp_network.speaker bgp_net dom) group) (fun r ->
        r.Route.span)
  in
  let bgmp_fabric =
    Bgmp_fabric.create ~engine ~topo:net_topo ~net ~config:config.bgmp
      ~span_of_group ~route_to_root ()
  in
  let maases =
    Array.init (Topo.domain_count net_topo) (fun d ->
        Maas.create ~engine ~node:(Masc_network.node masc_net d))
  in
  (* BGP -> BGMP repair glue: a change to any domain's best route for a
     covering prefix makes the affected groups' trees stale; rebuild
     them under the new routes.  Rebuilds are coalesced per group within
     an engine tick so an update storm triggers one repair. *)
  let pending_rebuild = Hashtbl.create 8 in
  let schedule_rebuild group =
    if not (Hashtbl.mem pending_rebuild group) then begin
      Hashtbl.replace pending_rebuild group ();
      ignore
        (Engine.schedule_after ~label:"core.rebuild" engine Time.zero (fun () ->
             Hashtbl.remove pending_rebuild group;
             Bgmp_fabric.rebuild_group bgmp_fabric ~group))
    end
  in
  List.iter
    (fun (d : Domain.t) ->
      let speaker = Bgp_network.speaker bgp_net d.Domain.id in
      Speaker.set_on_grib_change speaker (fun prefix ->
          (* This replaces the hook Bgp_network installed, so keep its
             convergence watermark. *)
          Engine.note_activity engine;
          if Recorder.is_enabled () then begin
            let route =
              List.find_opt (fun (p, _) -> Prefix.equal p prefix) (Speaker.best_routes speaker)
            in
            let span = Option.bind route (fun (_, r) -> Option.map Span.child r.Route.span) in
            Recorder.recordf ~time:(Engine.now engine) ~label:"grib-update"
              ~subject:(Printf.sprintf "bgp-%d" d.Domain.id) ?span "%a %s" Prefix.pp prefix
              (if Option.is_none route then "withdrawn" else "installed")
          end;
          Bgmp_fabric.iter_active_groups bgmp_fabric (fun group ->
              if Prefix.mem group prefix then schedule_rebuild group)))
    (Topo.domains net_topo);
  let t =
    {
      cfg = config;
      engine;
      net_topo;
      net;
      bgp_net;
      masc_net;
      bgmp_fabric;
      maases;
      invariants = Invariant.create ();
      pending_rebuild;
      seen_violations = [];
    }
  in
  install_invariants t;
  t

(* Every layer rewinds in place (see each [reset]); the hooks and
   predicates [create] installed stay. *)
let reset t ~seed =
  let config = { t.cfg with seed } in
  t.cfg <- config;
  Engine.reset t.engine;
  let net_cfg = net_config config in
  Net.reset t.net ~loss_rate:net_cfg.Net.loss_rate ~loss_seed:net_cfg.Net.loss_seed;
  Bgp_network.reset t.bgp_net;
  Masc_network.reset t.masc_net ~seed;
  Bgmp_fabric.reset t.bgmp_fabric;
  Array.iter Maas.reset t.maases;
  Invariant.reset t.invariants;
  Hashtbl.reset t.pending_rebuild;
  t.seen_violations <- []

let start t = Masc_network.start t.masc_net

let rebuild_all_groups t =
  Bgmp_fabric.iter_active_groups t.bgmp_fabric (fun group ->
      Bgmp_fabric.rebuild_group t.bgmp_fabric ~group)

let fail_link t a b =
  if Topo.link_between t.net_topo a b = None then
    invalid_arg "Internet.fail_link: no such link";
  (* One transport call takes the link down for every protocol at once:
     the BGP sessions drop via the net's link-change listener
     (withdrawals ripple, alternates get selected) and in-flight
     messages of all three protocols are lost. *)
  Net.fail_link t.net a b;
  (* Rebuild once the withdrawals settle; the grib-change hook also
     fires rebuilds during reconvergence, but a group whose routes are
     unaffected can still have tree edges over the dead link. *)
  ignore
    (Engine.schedule_after ~label:"core.rebuild" t.engine (Time.seconds 1.0) (fun () ->
         rebuild_all_groups t))

let restore_link t a b =
  if Topo.link_between t.net_topo a b = None then
    invalid_arg "Internet.restore_link: no such link";
  Net.restore_link t.net a b;
  ignore
    (Engine.schedule_after ~label:"core.rebuild" t.engine (Time.seconds 1.0) (fun () ->
         rebuild_all_groups t))

let run_for t duration = Engine.run ~until:(Engine.now t.engine +. duration) t.engine

let request_address t dom = Maas.allocate t.maases.(dom)

let rec request_address_retry t dom ~every ~attempts =
  match request_address t dom with
  | Some _ as alloc -> alloc
  | None when attempts <= 1 -> None
  | None ->
      run_for t every;
      request_address_retry t dom ~every ~attempts:(attempts - 1)

let request_address_with_fallback t dom =
  match Maas.allocate t.maases.(dom) with
  | Some a -> Some (a, dom)
  | None -> (
      match Masc_node.role (Masc_network.node t.masc_net dom) with
      | Masc_node.Top -> None
      | Masc_node.Child parent -> (
          match Maas.allocate t.maases.(parent) with
          | Some a ->
              if Recorder.is_enabled () then
                Recorder.recordf ~time:(Engine.now t.engine) ~label:"fallback-alloc"
                  ~subject:(Printf.sprintf "maas-%d" dom) "%a from parent %d" Ipv4.pp
                  a.Maas.address parent;
              Some (a, parent)
          | None -> None))

let release_address t dom alloc = Maas.release t.maases.(dom) alloc

let root_domain_of t group =
  (* Aggregation can hide the most specific route from distant vantage
     points (§4.3.2): a backbone may only carry its own covering range.
     Follow origins — each origin's G-RIB holds the next more-specific
     route — until a domain names itself, which is the root. *)
  let n = Topo.domain_count t.net_topo in
  let rec scan d =
    if d >= n then None
    else
      match Speaker.lookup (Bgp_network.speaker t.bgp_net d) group with
      | Some route -> Some route.Route.origin
      | None -> scan (d + 1)
  in
  let rec follow d depth =
    if depth > n then Some d
    else
      match Speaker.lookup (Bgp_network.speaker t.bgp_net d) group with
      | Some route when route.Route.origin <> d -> follow route.Route.origin (depth + 1)
      | Some _ | None -> Some d
  in
  Option.bind (scan 0) (fun d -> follow d 0)

let join t ~host ~group = Bgmp_fabric.host_join t.bgmp_fabric ~host ~group

let leave t ~host ~group = Bgmp_fabric.host_leave t.bgmp_fabric ~host ~group

let send t ~source ~group = Bgmp_fabric.send t.bgmp_fabric ~source ~group

let deliveries t ~payload = Bgmp_fabric.deliveries t.bgmp_fabric ~payload
