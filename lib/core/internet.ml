type config = {
  masc : Masc_node.config;
  bgmp : Bgmp_fabric.config;
  maas_block : int;
  seed : int;
  loss : float;
}

let default_config =
  {
    masc = Masc_node.default_config;
    bgmp = Bgmp_fabric.default_config;
    maas_block = 256;
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
  cfg : config;
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

let maas t d = t.maases.(d)

let fabric t = t.bgmp_fabric

let bgp t = t.bgp_net

let masc_network t = t.masc_net

(* Where the path to the group's root leaves [dom], per its G-RIB. *)
let root_route_via bgp_net dom group =
  match Speaker.lookup (Bgp_network.speaker bgp_net dom) group with
  | None -> Bgmp_fabric.Unroutable
  | Some route -> (
      match Route.next_hop route with
      | None -> Bgmp_fabric.Root_here
      | Some nh -> Bgmp_fabric.Via nh)

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

let domain_of_router t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (d : Domain.t) ->
      List.iter
        (fun r -> Hashtbl.replace tbl (Bgmp_router.id r) d.Domain.id)
        (Bgmp_fabric.routers_of t.bgmp_fabric d.Domain.id))
    (Topo.domains t.net_topo);
  fun rid -> Hashtbl.find_opt tbl rid

(* §4: sibling MASC allocations must not overlap once acquired.  An
   arena is one parent's space (its children's Up claims plus its own
   Down reservations) or the top-level mesh. *)
let masc_overlap_violations t () =
  let arenas = Hashtbl.create 8 in
  let add key entry =
    Hashtbl.replace arenas key (entry :: Option.value ~default:[] (Hashtbl.find_opt arenas key))
  in
  List.iter
    (fun id ->
      let node = Masc_network.node t.masc_net id in
      let sibling_key =
        match Masc_node.role node with Masc_node.Top -> None | Masc_node.Child p -> Some p
      in
      List.iter
        (fun (c : Masc_node.own_claim) ->
          if c.Masc_node.claim_state = Masc_node.Acquired then
            match c.Masc_node.claim_arena with
            | Masc_node.Up -> add sibling_key (id, c)
            | Masc_node.Down -> add (Some id) (id, c))
        (Masc_node.all_claims node))
    (Masc_network.ids t.masc_net);
  let cross_node =
    Hashtbl.fold
      (fun _ entries acc ->
        let rec pairs acc = function
          | [] -> acc
          | (a, (ca : Masc_node.own_claim)) :: rest ->
              let acc =
                List.fold_left
                  (fun acc (b, (cb : Masc_node.own_claim)) ->
                    if
                      a <> b && Prefix.overlaps ca.Masc_node.claim_prefix cb.Masc_node.claim_prefix
                    then
                      ( Printf.sprintf
                          "domains %d and %d hold overlapping acquired ranges %s and %s" a b
                          (Prefix.to_string ca.Masc_node.claim_prefix)
                          (Prefix.to_string cb.Masc_node.claim_prefix),
                        Some ca.Masc_node.claim_span.Span.trace_id )
                      :: acc
                    else acc)
                  acc rest
              in
              pairs acc rest
        in
        pairs acc entries)
      arenas []
  in
  (* Each node's own registry must agree: a registered sibling claim
     overlapping one of our acquired ranges means collision resolution
     failed to protect it. *)
  let in_view =
    List.concat_map
      (fun id ->
        let node = Masc_network.node t.masc_net id in
        let view = Masc_node.space_view node in
        List.concat_map
          (fun (c : Masc_node.own_claim) ->
            if c.Masc_node.claim_state = Masc_node.Acquired && c.Masc_node.claim_arena = Masc_node.Up
            then
              List.filter_map
                (fun (p, owner) ->
                  if owner <> id then
                    Some
                      ( Printf.sprintf
                          "domain %d's acquired range %s overlaps %s registered to domain %d" id
                          (Prefix.to_string c.Masc_node.claim_prefix) (Prefix.to_string p) owner,
                        Some c.Masc_node.claim_span.Span.trace_id )
                  else None)
                (Address_space.conflicting view c.Masc_node.claim_prefix)
            else [])
          (Masc_node.all_claims node))
      (Masc_network.ids t.masc_net)
  in
  cross_node @ in_view

(* Every router's (star,G) upstream must agree with the current G-RIB:
   the root domain has no upstream peer, everyone else's upstream peer
   sits in the G-RIB next-hop domain, and tree state for an unroutable
   group is stale.  Only meaningful when no rebuild is pending. *)
let grib_nexthop_violations t () =
  if Hashtbl.length t.pending_rebuild > 0 then []
  else
    let dom_of = domain_of_router t in
    List.concat_map
      (fun group ->
        let tid = Some (group_trace_id t group) in
        let g = Ipv4.to_string group in
        List.concat_map
          (fun d ->
            let rr = root_route_via t.bgp_net d group in
            List.concat_map
              (fun r ->
                match Bgmp_router.star_entry r group with
                | None -> []
                | Some e -> (
                    match (e.Bgmp_router.parent, rr) with
                    | Some (Bgmp_router.Peer p), Bgmp_fabric.Via nh -> (
                        match dom_of p with
                        | Some pd when pd <> nh ->
                            [
                              ( Printf.sprintf
                                  "group %s: domain %d joins upstream via domain %d but its \
                                   G-RIB next hop is %d"
                                  g d pd nh,
                                tid );
                            ]
                        | _ -> [])
                    | Some (Bgmp_router.Peer p), Bgmp_fabric.Root_here ->
                        [
                          ( Printf.sprintf
                              "group %s: root domain %d still has an upstream peer (router %d)" g
                              d p,
                            tid );
                        ]
                    | Some (Bgmp_router.Peer p), Bgmp_fabric.Unroutable ->
                        (* Parentless local state is legitimate for a
                           partitioned member; a live upstream edge for
                           an unroutable group is stale. *)
                        [
                          ( Printf.sprintf
                              "group %s: domain %d keeps upstream peer %d but the group is \
                               unroutable"
                              g d p,
                            tid );
                        ]
                    | _ -> []))
              (Bgmp_fabric.routers_of t.bgmp_fabric d))
          (Bgmp_fabric.tree_domains t.bgmp_fabric ~group))
      (Bgmp_fabric.active_groups t.bgmp_fabric)

let install_invariants t =
  let inv = t.invariants in
  Invariant.register inv ~name:"masc-sibling-overlap" (masc_overlap_violations t);
  Invariant.register inv ~name:"bgmp-acyclic" (fun () ->
      Bgmp_fabric.tree_violations t.bgmp_fabric ~quiescent:false);
  Invariant.register inv ~quiescent_only:true ~name:"bgmp-tree-settled" (fun () ->
      (* tree_violations ~quiescent:true repeats the acyclicity sweep;
         report only the quiescent-only findings under this name. *)
      let base = Bgmp_fabric.tree_violations t.bgmp_fabric ~quiescent:false in
      List.filter
        (fun v -> not (List.mem v base))
        (Bgmp_fabric.tree_violations t.bgmp_fabric ~quiescent:true));
  Invariant.register inv ~quiescent_only:true ~name:"grib-nexthop" (grib_nexthop_violations t)

let check_invariants ?(quiescent = true) t =
  let vs = Invariant.check ~quiescent t.invariants in
  List.iter
    (fun (v : Invariant.violation) ->
      t.seen_violations <- v :: t.seen_violations;
      Recorder.recordf ~time:(Engine.now t.engine) ~label:"violation" ~subject:"invariant"
        ?trace_id:v.Invariant.trace_id "%s: %s" v.Invariant.inv v.Invariant.detail)
    vs;
  vs

let enable_invariant_checks ?(cadence = Time.hours 1.0) t =
  Engine.set_monitor t.engine ~cadence (fun ~quiescent -> ignore (check_invariants ~quiescent t))

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

let create ?(config = default_config) ?migp_style net_topo =
  let engine = Engine.create () in
  let rng = Rng.create config.seed in
  (* The one transport under all three protocols: link state (failures,
     partitions, loss) has a single source of truth.  The loss seed is
     decorrelated from the MASC rng (same [config.seed]) so enabling
     loss never replays MASC's claim randomness. *)
  let net =
    Net.create ~engine
      ~config:
        {
          Net.loss_rate = config.loss;
          Net.loss_seed = config.seed lxor 0x6e6574;
          Net.delay_override = None;
        }
      ()
  in
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
    Bgmp_fabric.create ~engine ~topo:net_topo ~net ~config:config.bgmp ?migp_style
      ~span_of_group ~route_to_root ()
  in
  let maases =
    Array.init (Topo.domain_count net_topo) (fun d ->
        Maas.create ~engine ~node:(Masc_network.node masc_net d) ~block_size:config.maas_block)
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
          Engine.note_activity engine "bgp";
          if Recorder.is_enabled () then begin
            let route =
              List.find_opt (fun (p, _) -> Prefix.equal p prefix) (Speaker.best_routes speaker)
            in
            let span = Option.bind route (fun (_, r) -> Option.map Span.child r.Route.span) in
            Recorder.recordf ~time:(Engine.now engine) ~label:"grib-update"
              ~subject:(Printf.sprintf "bgp-%d" d.Domain.id) ?span "%a %s" Prefix.pp prefix
              (if Option.is_none route then "withdrawn" else "installed")
          end;
          List.iter
            (fun group -> if Prefix.mem group prefix then schedule_rebuild group)
            (Bgmp_fabric.active_groups bgmp_fabric)))
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

let start t = Masc_network.start t.masc_net

let rebuild_all_groups t =
  List.iter
    (fun group -> Bgmp_fabric.rebuild_group t.bgmp_fabric ~group)
    (Bgmp_fabric.active_groups t.bgmp_fabric)

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

(* Above the 48 h collision wait (so graduation storms count as
   activity, not silence), below the ~30 d renewal cycle (so steady
   renewals do not keep the run alive forever). *)
let settle ?(quiet_for = Time.days 7.0) t = Engine.run_until_quiescent ~grace:quiet_for t.engine

let request_address t dom = Maas.allocate t.maases.(dom) ()

let rec request_address_retry t dom ~every ~attempts =
  match request_address t dom with
  | Some _ as alloc -> alloc
  | None when attempts <= 1 -> None
  | None ->
      run_for t every;
      request_address_retry t dom ~every ~attempts:(attempts - 1)

let request_address_in t ~initiator ~root =
  let alloc = Maas.allocate t.maases.(root) () in
  (match alloc with
  | Some a when Recorder.is_enabled () ->
      Recorder.recordf ~time:(Engine.now t.engine) ~label:"remote-alloc"
        ~subject:(Printf.sprintf "maas-%d" root) "%a for initiator %d" Ipv4.pp a.Maas.address
        initiator
  | Some _ | None -> ());
  alloc

let request_address_with_fallback t dom =
  match Maas.allocate t.maases.(dom) () with
  | Some a -> Some (a, dom)
  | None -> (
      match Masc_node.role (Masc_network.node t.masc_net dom) with
      | Masc_node.Top -> None
      | Masc_node.Child parent -> (
          match Maas.allocate t.maases.(parent) () with
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
