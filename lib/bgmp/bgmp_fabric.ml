type root_route = Root_here | Via of Domain.id | Unroutable

let m_ctl_msgs = Metrics.counter "bgmp.ctl_msgs_sent"
let m_data_msgs = Metrics.counter "bgmp.data_msgs_sent"

type config = { branching : bool }

let default_config = { branching = true }

(* One payload's deliveries: arrivals newest first, and the hosts
   already served, keyed by [Host_ref.key]. *)
type payload_log = {
  mutable arrivals : (Host_ref.t * int) list;
  served : Packed_map.t;
}

type t = {
  engine : Engine.t;
  topo : Topo.t;
  net : Net.t;
  cfg : config;
  route_to_root : Domain.id -> Ipv4.t -> root_route;
  span_of_group : Domain.id -> Ipv4.t -> Span.t option;
      (** causal span of the G-RIB route a domain uses for a group, so
          joins continue the originating claim's chain *)
  migps : Migp.t array;
  routers : Bgmp_router.t array;
  domain_routers : int list array;  (** router ids per domain *)
  router_neighbor : Domain.id array;  (** the domain across router i's link *)
  mutable peer_chan : Bgmp_msg.t Net.channel array;
      (** router i's transport lane to its external peer across the link *)
  toward_tbl : (Domain.id * Domain.id, int) Hashtbl.t;  (** (dom, neighbor) -> router id *)
  ucast_cache : (Domain.id, Spf.paths) Hashtbl.t;  (** BFS from a target domain *)
  delivered : (int, payload_log) Hashtbl.t;
  payload_spans : (int, Span.t) Hashtbl.t;
      (** causal span a payload travels under, kept only for payloads
          sent with one (probes while recording) *)
  mutable on_delivery :
    (group:Ipv4.t -> source:Host_ref.t -> payload:int -> host:Host_ref.t -> hops:int -> unit)
    option;
  mutable dup_count : int;
  mutable next_payload : int;
  mutable ctl_msgs : int;
  mutable data_msgs : int;
  (* Data-plane instruments, created per fabric (find-or-create by
     name) so fabric-free runs keep their metric key sets unchanged. *)
  m_data_delivered : Metrics.counter;
  m_data_dup : Metrics.counter;
  m_data_dropped : Metrics.counter;
  m_ctl_dropped : Metrics.counter;
}

let peer_of rid = rid lxor 1

(* A domain's root next hop as cached while distributing one packet:
   a neighbour domain id, or one of these two sentinels. *)
let via_unknown = -2
let via_none = -1

(* Narrative records in the ambient recorder, subject a border router
   or a domain; while the recorder is off a call is one flag test — no
   subject is built and nothing is formatted. *)
let router_trace t rid tag ?span fmt =
  if Recorder.is_enabled () then
    Recorder.recordf ~time:(Engine.now t.engine) ~label:tag
      ~subject:(Bgmp_router.name t.routers.(rid)) ?span fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let domain_trace t dom tag ?span fmt =
  if Recorder.is_enabled () then
    Recorder.recordf ~time:(Engine.now t.engine) ~label:tag
      ~subject:(Printf.sprintf "bgmp-d%d" dom) ?span fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

(* The trace id a group's causal chain lives under: the originating
   claim's when a G-RIB route (with span) exists, else the group's own. *)
let group_trace_id t dom group =
  match t.span_of_group dom group with
  | Some s -> s.Span.trace_id
  | None -> Span.group_id (Ipv4.to_string group)

(* The span a fresh join minted at [dom] starts from. *)
let join_root_span t dom group =
  match t.span_of_group dom group with
  | Some route_span -> Span.child route_span
  | None -> Span.root (Span.group_id (Ipv4.to_string group))

(* Unicast next hop from [dom] toward [target_dom]: predecessor pointers
   of a BFS rooted at the target (memoized per target). *)
let ucast_next_hop t ~from ~target =
  if from = target then None
  else begin
    let paths =
      match Hashtbl.find_opt t.ucast_cache target with
      | Some p -> p
      | None ->
          let p = Spf.bfs t.topo target in
          Hashtbl.replace t.ucast_cache target p;
          p
    in
    Spf.next_hop_toward t.topo paths from
  end

let router_toward_id t dom neighbor = Hashtbl.find_opt t.toward_tbl (dom, neighbor)

(* The border router a domain uses to reach the root of [group]. *)
let exit_router_for_group t dom group =
  match t.route_to_root dom group with
  | Root_here | Unroutable -> None
  | Via nd -> router_toward_id t dom nd

(* The border router on the unicast shortest path toward a domain. *)
let exit_router_for_domain t dom target =
  match ucast_next_hop t ~from:dom ~target with
  | None -> None
  | Some nd -> router_toward_id t dom nd

(* Does the domain's interior still need the group once [excluding]
   (typically the exit router being pruned) is set aside?  Interior
   interest = local members, or another border router whose shared-tree
   parent runs through the MIGP (a transit branch like C4 serving a
   customer domain). *)
let interior_interest t dom group ~excluding =
  Migp.has_members t.migps.(dom) ~group
  || List.exists
       (fun rid ->
         rid <> excluding
         &&
         match Bgmp_router.star_entry t.routers.(rid) group with
         | Some e -> e.Bgmp_router.parent = Some Bgmp_router.Migp_target
         | None -> false)
       t.domain_routers.(dom)

let classify_root_for t rid group =
  let dom = Bgmp_router.domain t.routers.(rid) in
  match t.route_to_root dom group with
  | Root_here -> Bgmp_router.Root_here
  | Unroutable -> Bgmp_router.Unroutable
  | Via nd -> (
      if t.router_neighbor.(rid) = nd then Bgmp_router.External (peer_of rid)
      else
        match router_toward_id t dom nd with
        | Some exit -> Bgmp_router.Internal exit
        | None -> Bgmp_router.Unroutable)

let classify_source_for t rid source_dom =
  let dom = Bgmp_router.domain t.routers.(rid) in
  if dom = source_dom then Bgmp_router.Root_here
  else
    match ucast_next_hop t ~from:dom ~target:source_dom with
    | None -> Bgmp_router.Unroutable
    | Some nd -> (
        if t.router_neighbor.(rid) = nd then Bgmp_router.External (peer_of rid)
        else
          match router_toward_id t dom nd with
          | Some exit -> Bgmp_router.Internal exit
          | None -> Bgmp_router.Unroutable)

(* ------------------------------------------------------------------ *)
(* Action execution                                                    *)
(* ------------------------------------------------------------------ *)

let record_delivery t ~group ~source ~payload ~host ~hops =
  let log =
    match Hashtbl.find t.delivered payload with
    | log -> log
    | exception Not_found ->
        let log = { arrivals = []; served = Packed_map.create ~initial:4 () } in
        Hashtbl.replace t.delivered payload log;
        log
  in
  let key = Host_ref.key host in
  if Packed_map.mem log.served key then begin
    t.dup_count <- t.dup_count + 1;
    Metrics.incr t.m_data_dup
  end
  else begin
    Packed_map.set log.served key 0;
    log.arrivals <- (host, hops) :: log.arrivals;
    Metrics.incr t.m_data_delivered;
    match t.on_delivery with
    | Some f -> f ~group ~source ~payload ~host ~hops
    | None -> ()
  end

let rec deliver_members t ~group ~source ~payload ~hops = function
  | [] -> ()
  | host :: rest ->
      record_delivery t ~group ~source ~payload ~host ~hops;
      deliver_members t ~group ~source ~payload ~hops rest

(* The border routers in [rids], bar [entry_rid], that take a copy of a
   packet from the domain's interior: those with state for it, and the
   one whose link is the next hop toward the group's root.  That next
   hop is the same for every router of the domain, so it is looked up
   at most once per packet ([root_via] carries it once known), and only
   when some router has no state. *)
let rec interested_routers t ~dom ~group ~source ~entry_rid ~root_via = function
  | [] -> []
  | rid :: rest when rid = entry_rid ->
      interested_routers t ~dom ~group ~source ~entry_rid ~root_via rest
  | rid :: rest ->
      let r = t.routers.(rid) in
      if Bgmp_router.on_tree r group || Bgmp_router.has_sg r source group then
        rid :: interested_routers t ~dom ~group ~source ~entry_rid ~root_via rest
      else begin
        let root_via =
          if root_via <> via_unknown then root_via
          else
            match t.route_to_root dom group with
            | Via nd -> nd
            | Root_here | Unroutable -> via_none
        in
        let others = interested_routers t ~dom ~group ~source ~entry_rid ~root_via rest in
        if t.router_neighbor.(rid) = root_via then rid :: others else others
      end

let rec exec_actions t rid = function
  | [] -> ()
  | action :: rest ->
      exec_action t rid action;
      exec_actions t rid rest

and exec_action t rid action =
  match action with
  | Bgmp_router.To_peer (_, msg) ->
      (match msg with
      | Bgmp_msg.Data _ ->
          t.data_msgs <- t.data_msgs + 1;
          Metrics.incr m_data_msgs
      | Bgmp_msg.Join _ | Bgmp_msg.Prune _ | Bgmp_msg.Join_sg _ | Bgmp_msg.Prune_sg _ ->
          t.ctl_msgs <- t.ctl_msgs + 1;
          Metrics.incr m_ctl_msgs);
      (* The peer target is always the external peer across router
         [rid]'s link — exactly where its fixed transport lane goes. *)
      let span =
        match msg with
        | Bgmp_msg.Join { span; _ } -> span
        | Bgmp_msg.Data { payload; _ } ->
            if Hashtbl.length t.payload_spans = 0 then None
            else Hashtbl.find_opt t.payload_spans payload
        | Bgmp_msg.Prune _ | Bgmp_msg.Join_sg _ | Bgmp_msg.Prune_sg _ -> None
      in
      Net.send t.peer_chan.(rid) ?span msg
  | Bgmp_router.Migp_join { group; span } -> (
      let dom = Bgmp_router.domain t.routers.(rid) in
      match exit_router_for_group t dom group with
      | Some exit when exit <> rid ->
          Engine.note_activity t.engine "bgmp";
          router_trace t exit "join-hop" ?span "%a via interior" Ipv4.pp group;
          exec_actions t exit
            (Bgmp_router.handle_join t.routers.(exit) ~group ?span ~from:Bgmp_router.Migp_target)
      | Some _ | None -> ())
  | Bgmp_router.Migp_prune group -> (
      let dom = Bgmp_router.domain t.routers.(rid) in
      match exit_router_for_group t dom group with
      | Some exit when exit <> rid && not (interior_interest t dom group ~excluding:exit) ->
          exec_actions t exit
            (Bgmp_router.handle_prune t.routers.(exit) ~group ~from:Bgmp_router.Migp_target)
      | Some _ | None -> ())
  | Bgmp_router.To_internal (peer_rid, msg) ->
      (* Intra-domain hand-off between internal BGMP peers: immediate
         (interior latency is below our modelling grain) and addressed,
         not flooded. *)
      dispatch t ~to_:peer_rid ~from:(Bgmp_router.Internal_router rid) msg
  | Bgmp_router.Migp_data { group; source; payload; hops } ->
      internal_distribute t
        ~dom:(Bgmp_router.domain t.routers.(rid))
        ~entry:(Some rid) ~group ~source ~payload ~hops

(* Deliver a BGMP message to router [to_].  [from] is the sending
   router: its external peer across the link ([Peer]) or another border
   router of the same domain ([Internal_router]). *)
and dispatch t ~to_ ~from msg =
  let router = t.routers.(to_) in
  let actions =
    match msg with
    | Bgmp_msg.Join { group; span } ->
        Engine.note_activity t.engine "bgmp";
        router_trace t to_ "join-hop" ?span "%a from %s" Ipv4.pp group
          (match from with
          | Bgmp_router.Peer r | Bgmp_router.Internal_router r -> Bgmp_router.name t.routers.(r)
          | Bgmp_router.Migp_target -> "migp");
        Bgmp_router.handle_join router ~group ?span ~from
    | Bgmp_msg.Prune group ->
        Engine.note_activity t.engine "bgmp";
        Bgmp_router.handle_prune router ~group ~from
    | Bgmp_msg.Join_sg { source; group } ->
        Engine.note_activity t.engine "bgmp";
        Bgmp_router.handle_join_sg router ~source ~group ~from
    | Bgmp_msg.Prune_sg { source; group } ->
        Engine.note_activity t.engine "bgmp";
        Bgmp_router.handle_prune_sg router ~source ~group ~from
    | Bgmp_msg.Data { group; source; payload; hops } -> (
        match from with
        | Bgmp_router.Peer _ ->
            (* The inter-domain hop count ticks here: a peer arrival is
               the one place a packet crosses a domain boundary. *)
            let forward () =
              Bgmp_router.handle_data router ~group ~source ~payload ~hops:(hops + 1) ~from
            in
            if Prof.is_enabled () then Prof.span "bgmp.data.forward" forward else forward ()
        | Bgmp_router.Internal_router from_rid
          when (not (Bgmp_router.on_tree router group))
               && not (Bgmp_router.has_sg router source group) ->
            (* Stale chain: the receiver lost its state; tell the sender
               to stop instead of default-forwarding source traffic. *)
            [ Bgmp_router.To_internal (from_rid, Bgmp_msg.Prune_sg { source; group }) ]
        | Bgmp_router.Internal_router _ | Bgmp_router.Migp_target ->
            Bgmp_router.handle_data router ~group ~source ~payload ~hops ~from)
  in
  exec_actions t to_ actions

(* Distribute a packet inside a domain: deliver to local members, apply
   the MIGP's RPF/encapsulation behaviour, and hand copies to the border
   routers that need them (§5.2).  [entry = None] means the packet
   originates at a local host. *)
and internal_distribute t ~dom ~entry ~group ~source ~payload ~hops =
  if Prof.is_enabled () then
    Prof.span "bgmp.data.distribute" (fun () ->
        internal_distribute_impl t ~dom ~entry ~group ~source ~payload ~hops)
  else internal_distribute_impl t ~dom ~entry ~group ~source ~payload ~hops

and internal_distribute_impl t ~dom ~entry ~group ~source ~payload ~hops =
  let migp = t.migps.(dom) in
  let style = Migp.style migp in
  let members = Migp.members migp ~group in
  let source_local = source.Host_ref.host_domain = dom in
  (* Interior RPF toward a LOCAL source: a packet of our own source
     re-entering from a border router fails every interior RPF check
     (the source's interfaces point the other way) and is dropped —
     everything inside was already served at the original injection.
     Without this, a source-specific branch crossing back into the
     source domain would cycle tree and branch forever. *)
  if source_local && entry <> None then ()
  else begin
    (* RPF handling for strict MIGPs: data that entered at the wrong
       border router is tunnelled to the RPF router (counted), which may
       then grow a source-specific branch to stop the encapsulation. *)
    if
      members <> [] && (not source_local) && Migp.strict_rpf style
      && t.cfg.branching
    then begin
      match (entry, exit_router_for_domain t dom source.Host_ref.host_domain) with
      | Some entry_rid, Some rpf_rid when entry_rid <> rpf_rid ->
          Migp.note_encapsulation migp;
          exec_actions t rpf_rid
            (Bgmp_router.initiate_branch t.routers.(rpf_rid) ~source ~group
               ~shared_entry_router:entry_rid)
      | (Some _ | None), (Some _ | None) -> ()
    end
    else if members <> [] && (not source_local) && Migp.strict_rpf style then begin
      match (entry, exit_router_for_domain t dom source.Host_ref.host_domain) with
      | Some entry_rid, Some rpf_rid when entry_rid <> rpf_rid -> Migp.note_encapsulation migp
      | (Some _ | None), (Some _ | None) -> ()
    end;
    deliver_members t ~group ~source ~payload ~hops members;
    let entry_rid = match entry with Some rid -> rid | None -> -1 in
    let routers = t.domain_routers.(dom) in
    let wanted =
      interested_routers t ~dom ~group ~source ~entry_rid ~root_via:via_unknown routers
    in
    if Migp.floods_data style then begin
      (* The flood reaches every border router; those without interest
         prune themselves off. *)
      let all = List.filter (fun rid -> rid <> entry_rid) routers in
      Migp.note_flood_delivery migp (List.length all);
      for _ = 1 to List.length all - List.length wanted do
        Migp.note_internal_prune migp
      done;
      hand_to_routers t ~group ~source ~payload ~hops all
    end
    else hand_to_routers t ~group ~source ~payload ~hops wanted
  end

and hand_to_routers t ~group ~source ~payload ~hops = function
  | [] -> ()
  | rid :: rest ->
      exec_actions t rid
        (Bgmp_router.handle_data t.routers.(rid) ~group ~source ~payload ~hops
           ~from:Bgmp_router.Migp_target);
      hand_to_routers t ~group ~source ~payload ~hops rest

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ~engine ~topo ?net ?(config = default_config) ?(migp_style = fun _ -> Migp.Dvmrp)
    ?(span_of_group = fun _ _ -> None) ~route_to_root () =
  let net = match net with Some n -> n | None -> Net.create ~engine () in
  let n = Topo.domain_count topo in
  let links = Topo.links topo in
  let router_count = 2 * List.length links in
  let migps = Array.init n (fun d -> Migp.create (migp_style d) ~domain:d) in
  let domain_routers = Array.make n [] in
  let router_neighbor = Array.make router_count (-1) in
  let router_delay = Array.make router_count Time.zero in
  let toward_tbl = Hashtbl.create router_count in
  let per_domain_counter = Array.make n 0 in
  let routers =
    Array.make router_count (Bgmp_router.create ~id:0 ~domain:0 ~name:"placeholder")
  in
  List.iteri
    (fun k (l : Topo.link) ->
      let make_end rid dom other =
        per_domain_counter.(dom) <- per_domain_counter.(dom) + 1;
        let name =
          Printf.sprintf "%s%d" (Topo.domain topo dom).Domain.name per_domain_counter.(dom)
        in
        routers.(rid) <- Bgmp_router.create ~id:rid ~domain:dom ~name;
        domain_routers.(dom) <- domain_routers.(dom) @ [ rid ];
        router_neighbor.(rid) <- other;
        router_delay.(rid) <- l.Topo.delay;
        Hashtbl.replace toward_tbl (dom, other) rid
      in
      make_end (2 * k) l.Topo.a l.Topo.b;
      make_end ((2 * k) + 1) l.Topo.b l.Topo.a)
    links;
  let t =
    {
      engine;
      topo;
      net;
      cfg = config;
      route_to_root;
      span_of_group;
      migps;
      routers;
      domain_routers;
      router_neighbor;
      peer_chan = [||];
      toward_tbl;
      ucast_cache = Hashtbl.create 16;
      delivered = Hashtbl.create 64;
      payload_spans = Hashtbl.create 16;
      on_delivery = None;
      dup_count = 0;
      next_payload = 0;
      ctl_msgs = 0;
      data_msgs = 0;
      m_data_delivered = Metrics.counter "bgmp.data.delivered";
      m_data_dup = Metrics.counter "bgmp.data.duplicates";
      m_data_dropped = Metrics.counter "bgmp.data.dropped";
      m_ctl_dropped = Metrics.counter "bgmp.ctl.dropped";
    }
  in
  Array.iteri
    (fun rid router ->
      Bgmp_router.set_classify_root router (fun group -> classify_root_for t rid group);
      Bgmp_router.set_classify_source router (fun sd -> classify_source_for t rid sd))
    routers;
  (* One transport lane per router, to its external peer across the
     link (delivered there as coming from [rid]). *)
  let classify_drop msg =
    match msg with
    | Bgmp_msg.Data _ -> Metrics.incr t.m_data_dropped
    | Bgmp_msg.Join _ | Bgmp_msg.Prune _ | Bgmp_msg.Join_sg _ | Bgmp_msg.Prune_sg _ ->
        Metrics.incr t.m_ctl_dropped
  in
  t.peer_chan <-
    Array.init router_count (fun rid ->
        let from = Bgmp_router.Peer rid in
        let ch =
          Net.channel net ~protocol:"bgmp"
            ~src:(Bgmp_router.domain routers.(rid))
            ~dst:router_neighbor.(rid) ~delay:router_delay.(rid)
            ~recv:(fun msg -> dispatch t ~to_:(peer_of rid) ~from msg)
        in
        Net.set_on_drop ch classify_drop;
        ch);
  (* Domain-Wide-Report wiring: first member in a domain sends a join
     via the best exit router; last member leaving sends the prune. *)
  Array.iteri
    (fun dom migp ->
      Migp.set_on_group_active migp (fun ~group ~active ->
          (match exit_router_for_group t dom group with
          | None -> ()
          | Some exit ->
              let router = t.routers.(exit) in
              if active then begin
                (* A Domain-Wide Report starts a join chain: continue the
                   G-RIB route's causal chain when one is known. *)
                let span = join_root_span t dom group in
                Engine.note_activity t.engine "bgmp";
                domain_trace t dom "join" ~span "%a via %s" Ipv4.pp group
                  (Bgmp_router.name router);
                exec_actions t exit
                  (Bgmp_router.handle_join router ~group ~span ~from:Bgmp_router.Migp_target)
              end
              else if not (interior_interest t dom group ~excluding:exit) then begin
                Engine.note_activity t.engine "bgmp";
                exec_actions t exit
                  (Bgmp_router.handle_prune router ~group ~from:Bgmp_router.Migp_target)
              end);
          (* Last member gone: tear down the (S,G) branches this domain's
             routers grew on the members' behalf, so no orphaned branch
             keeps pulling (or re-injecting) the sources' traffic. *)
          if (not active) && not (Migp.has_members migp ~group) then
            List.iter
              (fun rid ->
                let router = t.routers.(rid) in
                List.iter
                  (fun (source, (v : Bgmp_router.sg_view)) ->
                    if
                      List.exists
                        (Bgmp_router.target_equal Bgmp_router.Migp_target)
                        v.Bgmp_router.view_added
                    then
                      exec_actions t rid
                        (Bgmp_router.handle_prune_sg router ~source ~group
                           ~from:Bgmp_router.Migp_target))
                  (Bgmp_router.sg_for_group router group);
                (* With the branches gone, stale negative state at this
                   domain's on-tree routers would starve remaining transit
                   customers of the sources' shared-tree copies: lift it. *)
                List.iter
                  (fun (source, (v : Bgmp_router.sg_view)) ->
                    if v.Bgmp_router.view_removed <> [] || v.Bgmp_router.view_targets = [] then
                      exec_actions t rid
                        (Bgmp_router.cancel_suppression router ~source ~group))
                  (Bgmp_router.sg_for_group router group))
              t.domain_routers.(dom)))
    migps;
  t

let host_join t ~host ~group =
  Migp.host_join t.migps.(host.Host_ref.host_domain) ~group ~host

let host_leave t ~host ~group =
  Migp.host_leave t.migps.(host.Host_ref.host_domain) ~group ~host

let next_payload_id t = t.next_payload

let send ?span t ~source ~group =
  let payload = t.next_payload in
  t.next_payload <- t.next_payload + 1;
  (match span with Some s -> Hashtbl.replace t.payload_spans payload s | None -> ());
  internal_distribute t ~dom:source.Host_ref.host_domain ~entry:None ~group ~source ~payload
    ~hops:0;
  payload

let set_on_delivery t f = t.on_delivery <- f

let group_span t dom group = join_root_span t dom group

let deliveries t ~payload =
  match Hashtbl.find_opt t.delivered payload with
  | Some log -> List.rev log.arrivals
  | None -> []

let forget_payload t ~payload =
  Hashtbl.remove t.delivered payload;
  Hashtbl.remove t.payload_spans payload

let duplicate_deliveries t = t.dup_count

let migp_of t dom = t.migps.(dom)

let routers_of t dom = List.map (fun rid -> t.routers.(rid)) t.domain_routers.(dom)

let router t rid = t.routers.(rid)

let router_toward t dom neighbor =
  Option.map (fun rid -> t.routers.(rid)) (router_toward_id t dom neighbor)

let tree_domains t ~group =
  let doms = ref [] in
  Array.iteri
    (fun dom rids ->
      if List.exists (fun rid -> Bgmp_router.on_tree t.routers.(rid) group) rids then
        doms := dom :: !doms)
    t.domain_routers;
  List.sort compare !doms

let net t = t.net

let fail_link t a b =
  if Topo.link_between t.topo a b = None then invalid_arg "Bgmp_fabric.fail_link: no such link";
  Net.fail_link t.net a b

let restore_link t a b = Net.restore_link t.net a b

let active_groups t =
  let acc = Hashtbl.create 8 in
  Array.iter
    (fun r -> List.iter (fun g -> Hashtbl.replace acc g ()) (Bgmp_router.star_groups r))
    t.routers;
  Array.iter (fun m -> List.iter (fun g -> Hashtbl.replace acc g ()) (Migp.groups m)) t.migps;
  List.sort compare (Hashtbl.fold (fun g () l -> g :: l) acc [])

let rebuild_group t ~group =
  Array.iter (fun r -> Bgmp_router.clear_group r group) t.routers;
  Engine.note_activity t.engine "bgmp";
  Array.iteri
    (fun dom migp ->
      if Migp.has_members migp ~group then
        match exit_router_for_group t dom group with
        | Some exit ->
            let span = join_root_span t dom group in
            domain_trace t dom "join" ~span "%a rebuild via %s" Ipv4.pp group
              (Bgmp_router.name t.routers.(exit));
            exec_actions t exit
              (Bgmp_router.handle_join t.routers.(exit) ~group ~span
                 ~from:Bgmp_router.Migp_target)
        | None -> ())
    t.migps

let control_messages t = t.ctl_msgs

let data_messages t = t.data_msgs

(* ------------------------------------------------------------------ *)
(* Live invariants                                                     *)
(* ------------------------------------------------------------------ *)

(* The next router a (star,G) parent pointer leads to; [None] when the
   pointer terminates inside this domain (root reached, or nothing
   further to forward to). *)
let parent_hop t rid group =
  match Bgmp_router.star_entry t.routers.(rid) group with
  | None -> None
  | Some e -> (
      match e.Bgmp_router.parent with
      | None -> None
      | Some (Bgmp_router.Peer p) -> Some p
      | Some (Bgmp_router.Internal_router r) -> Some r
      | Some Bgmp_router.Migp_target -> (
          let dom = Bgmp_router.domain t.routers.(rid) in
          match exit_router_for_group t dom group with
          | Some exit when exit <> rid -> Some exit
          | Some _ | None -> None))

let tree_violations t ~quiescent =
  let violations = ref [] in
  let add group fmt =
    Format.kasprintf
      (fun detail -> violations := (detail, Some (group_trace_id t 0 group)) :: !violations)
      fmt
  in
  let router_count = Array.length t.routers in
  List.iter
    (fun group ->
      let on_tree rid = Bgmp_router.on_tree t.routers.(rid) group in
      (* Acyclicity: following parent pointers from any on-tree router
         must terminate within [router_count] hops. *)
      Array.iteri
        (fun rid _ ->
          if on_tree rid then begin
            let steps = ref 0 and cur = ref (Some rid) in
            while !cur <> None && !steps <= router_count do
              incr steps;
              cur := parent_hop t (Option.get !cur) group
            done;
            if !cur <> None then
              add group "tree cycle for %a via parent pointers from %s" Ipv4.pp group
                (Bgmp_router.name t.routers.(rid))
          end)
        t.routers;
      if quiescent then begin
        (* Parent/child symmetry across peer links: a join sent upstream
           must have been installed as a child at the upstream peer. *)
        Array.iteri
          (fun rid _ ->
            match Bgmp_router.star_entry t.routers.(rid) group with
            | Some { Bgmp_router.parent = Some (Bgmp_router.Peer p); _ } -> (
                match Bgmp_router.star_entry t.routers.(p) group with
                | Some up
                  when List.exists
                         (Bgmp_router.target_equal (Bgmp_router.Peer rid))
                         up.Bgmp_router.children ->
                    ()
                | Some _ | None ->
                    add group "%s's parent %s lacks the matching child entry for %a"
                      (Bgmp_router.name t.routers.(rid))
                      (Bgmp_router.name t.routers.(p))
                      Ipv4.pp group)
            | Some _ | None -> ())
          t.routers;
        (* Join state subset of tree membership: a non-root domain with
           members must sit on the group's tree. *)
        Array.iteri
          (fun dom migp ->
            if
              Migp.has_members migp ~group
              && t.route_to_root dom group <> Root_here
              && not (List.exists on_tree t.domain_routers.(dom))
            then
              add group "domain %d has members of %a but no tree state" dom Ipv4.pp group)
          t.migps
      end)
    (active_groups t);
  List.rev !violations

let total_entries t =
  Array.fold_left (fun acc r -> acc + Bgmp_router.entry_count r) 0 t.routers
