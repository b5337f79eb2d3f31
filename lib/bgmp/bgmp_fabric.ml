type root_route = Root_here | Via of Domain.id | Unroutable

exception Data_loop of { payload : int; group : Ipv4.t; source : Host_ref.t; domain : Domain.id }

let m_ctl_msgs = Metrics.counter "bgmp.ctl_msgs_sent"
let m_data_msgs = Metrics.counter "bgmp.data_msgs_sent"

type config = { branching : bool }

let default_config = { branching = true }

(* One payload's deliveries: the first arrival at each host in arrival
   order, as ([Host_ref.key], hops) pairs flattened into one int array,
   and the hosts already served, one bit per host number (see
   [host_number]).  Logs are pooled: a forgotten payload's log is
   cleared and kept for the next payload, so a long soak allocates logs
   only for its widest window.

   The bitset's size follows the fabric's host count H, not the width
   of the payload's group: H/8 bytes per log.  A per-log [Packed_map]
   starts at 16 slots (256 B) and grows by 16 B a slot with the group.
   So the bitset is never larger while H <= 2048, and is much smaller
   for wide groups (a 200-host group: 50 B against the map's 8 kB at
   H = 400).  Past 2048 hosts, payloads of narrow groups pay H/8 bytes
   each where a map would cost 256 B. *)
type payload_log = {
  mutable arrivals : int array;  (** key, hops, key, hops, ... *)
  mutable n_arrivals : int;
  mutable served : Bytes.t;  (** bit [i]: host number [i] was served *)
}

(* Scratch of the group scans, created on first use and reused by every
   later one: a colour per router and the routers of the current walk
   (the acyclicity pass), and the groups to visit, kept sorted without
   duplicates. *)
type cycle_scratch = {
  colour : Bytes.t;
  walk : int array;
  mutable groups : Ipv4.t array;
  mutable ngroups : int;
  mutable add_group : 'a. Ipv4.t -> 'a -> unit;
      (** [insert_group] on this scratch, built once; it ignores its
          second argument, so it serves as the callback of both a
          (star,G) table walk and a MIGP membership walk *)
}

let insert_group cs g =
  let lo = ref 0 and hi = ref cs.ngroups in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cs.groups.(mid) < g then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  if i = cs.ngroups || cs.groups.(i) <> g then begin
    if cs.ngroups = Array.length cs.groups then begin
      let grown = Array.make (max 8 (2 * cs.ngroups)) 0 in
      Array.blit cs.groups 0 grown 0 cs.ngroups;
      cs.groups <- grown
    end;
    Array.blit cs.groups i cs.groups (i + 1) (cs.ngroups - i);
    cs.groups.(i) <- g;
    cs.ngroups <- cs.ngroups + 1
  end

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
  mutable spare_logs : payload_log array;  (** the first [n_spare] are cleared, for reuse *)
  mutable n_spare : int;
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
  host_numbers : Packed_map.t;  (** [Host_ref.key] -> host number *)
  mutable n_hosts : int;  (** hosts numbered so far *)
  mutable cycles : cycle_scratch option;  (** see [cycle_scratch] *)
  work : Bgmp_router.work;  (** the data plane's pending copies; see [drain] *)
  internal : Bgmp_router.target array;  (** [Internal_router rid] for each router *)
}

let peer_of rid = rid lxor 1

(* A domain's next hop toward a root or source: a neighbour domain id,
   [via_none] when there is none, or, while distributing one packet,
   [via_unknown] until it is looked up. *)
let via_unknown = -2
let via_none = -1

(* Narrative records in the ambient recorder, subject a border router
   or a domain.  Every call is guarded by [Recorder.is_enabled ()], so
   while the recorder is off a site is one flag test: no argument is
   built and nothing is formatted. *)
let router_trace t rid tag ?span fmt =
  Recorder.recordf ~time:(Engine.now t.engine) ~label:tag
    ~subject:(Bgmp_router.name t.routers.(rid)) ?span fmt

let domain_trace t dom tag ?span fmt =
  Recorder.recordf ~time:(Engine.now t.engine) ~label:tag
    ~subject:(Printf.sprintf "bgmp-d%d" dom) ?span fmt

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

(* The neighbour domain a domain's path toward the root of [group], or
   toward domain [target], leaves by; [via_none] when there is none. *)
let root_hop t dom group =
  match t.route_to_root dom group with Via nd -> nd | Root_here | Unroutable -> via_none

let source_hop t dom target =
  match ucast_next_hop t ~from:dom ~target with Some nd -> nd | None -> via_none

(* The border router of [dom] on its link to next hop [nd]. *)
let exit_via t dom nd = if nd = via_none then None else router_toward_id t dom nd

let exit_router_for_group t dom group = exit_via t dom (root_hop t dom group)

let exit_router_for_domain t dom target = exit_via t dom (source_hop t dom target)

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

(* How router [rid] of domain [dom] reaches next hop [nd]: across its
   own link, or through the domain's border router on that link. *)
let class_via t rid dom nd =
  if nd = via_none then Bgmp_router.Unroutable
  else if t.router_neighbor.(rid) = nd then Bgmp_router.External (peer_of rid)
  else
    match router_toward_id t dom nd with
    | Some exit -> Bgmp_router.Internal exit
    | None -> Bgmp_router.Unroutable

let classify_root_for t rid group =
  let dom = Bgmp_router.domain t.routers.(rid) in
  match t.route_to_root dom group with
  | Root_here -> Bgmp_router.Root_here
  | Via nd -> class_via t rid dom nd
  | Unroutable -> Bgmp_router.Unroutable

let classify_source_for t rid source_dom =
  let dom = Bgmp_router.domain t.routers.(rid) in
  if dom = source_dom then Bgmp_router.Root_here
  else class_via t rid dom (source_hop t dom source_dom)

(* ------------------------------------------------------------------ *)
(* Action execution                                                    *)
(* ------------------------------------------------------------------ *)

(* Hosts are numbered 0, 1, ... in the order the fabric first sees them
   (a join, or a delivery to a host joined behind its back), so a
   payload's served set is a bitset over the host count. *)
let host_number t host =
  let key = Host_ref.key host in
  match Packed_map.find t.host_numbers key with
  | -1 ->
      let n = t.n_hosts in
      Packed_map.set t.host_numbers key n;
      t.n_hosts <- n + 1;
      n
  | n -> n

(* A cleared log: a spare one when the pool has one.  A new log's bitset
   covers every host numbered so far. *)
let fresh_log t =
  if t.n_spare = 0 then
    { arrivals = Array.make 8 0; n_arrivals = 0; served = Bytes.make ((t.n_hosts + 7) / 8) '\000' }
  else begin
    t.n_spare <- t.n_spare - 1;
    t.spare_logs.(t.n_spare)
  end

(* Mark host number [n] served; whether it was not yet.  The bitset
   grows (zero-filled) when hosts joined after the log was made. *)
let mark_served log n =
  let i = n lsr 3 and bit = 1 lsl (n land 7) in
  let len = Bytes.length log.served in
  if i >= len then begin
    let grown = Bytes.make (max (i + 1) (2 * len)) '\000' in
    Bytes.blit log.served 0 grown 0 len;
    log.served <- grown
  end;
  let b = Bytes.get_uint8 log.served i in
  if b land bit <> 0 then false
  else begin
    Bytes.set_uint8 log.served i (b lor bit);
    true
  end

(* Clear a log and put it in the pool. *)
let recycle t _ log =
  Bytes.fill log.served 0 (Bytes.length log.served) '\000';
  log.n_arrivals <- 0;
  if t.n_spare = Array.length t.spare_logs then begin
    let grown = Array.make (max 8 (2 * t.n_spare)) log in
    Array.blit t.spare_logs 0 grown 0 t.n_spare;
    t.spare_logs <- grown
  end;
  t.spare_logs.(t.n_spare) <- log;
  t.n_spare <- t.n_spare + 1

let log_arrival log key hops =
  let i = 2 * log.n_arrivals in
  if i = Array.length log.arrivals then begin
    let grown = Array.make (2 * i) 0 in
    Array.blit log.arrivals 0 grown 0 i;
    log.arrivals <- grown
  end;
  log.arrivals.(i) <- key;
  log.arrivals.(i + 1) <- hops;
  log.n_arrivals <- log.n_arrivals + 1

let record_delivery t ~group ~source ~payload ~host ~hops =
  let log =
    match Hashtbl.find t.delivered payload with
    | log -> log
    | exception Not_found ->
        let log = fresh_log t in
        Hashtbl.replace t.delivered payload log;
        log
  in
  if not (mark_served log (host_number t host)) then begin
    t.dup_count <- t.dup_count + 1;
    Metrics.incr t.m_data_dup
  end
  else begin
    log_arrival log (Host_ref.key host) hops;
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

let rec exec_actions t rid = function
  | [] -> ()
  | action :: rest ->
      exec_action t rid action;
      exec_actions t rid rest

(* Router [rid] sends [msg] toward [target]: the only choice made here
   is which router receives it. *)
and exec_action t rid (target, msg) =
  match target with
  | Bgmp_router.Peer _ ->
      t.ctl_msgs <- t.ctl_msgs + 1;
      Metrics.incr m_ctl_msgs;
      (* The peer target is always the external peer across router
         [rid]'s link — exactly where its fixed transport lane goes. *)
      let span =
        match msg with
        | Bgmp_msg.Join { span; _ } -> span
        | Bgmp_msg.Prune _ | Bgmp_msg.Join_sg _ | Bgmp_msg.Prune_sg _ | Bgmp_msg.Data _ -> None
      in
      Net.send t.peer_chan.(rid) ?span msg
  | Bgmp_router.Internal_router r ->
      (* Intra-domain hand-off between internal BGMP peers: immediate
         (interior latency is below our modelling grain) and addressed,
         not flooded. *)
      arrive t r ~from:t.internal.(rid) msg
  | Bgmp_router.Migp_target -> to_interior t (Bgmp_router.domain t.routers.(rid)) ~sender:rid msg

(* A (star,G) join or prune handed to domain [dom]'s MIGP component by
   border router [sender] ([-1]: by the MIGP itself, a Domain-Wide
   Report): it reaches the domain's exit router toward the group's
   root, a prune only once nothing else inside the domain needs the
   group. *)
and to_interior t dom ~sender msg =
  match msg with
  | Bgmp_msg.Join { group; _ } -> (
      match exit_router_for_group t dom group with
      | Some exit when exit <> sender -> arrive t exit ~from:Bgmp_router.Migp_target msg
      | Some _ | None -> ())
  | Bgmp_msg.Prune group -> (
      match exit_router_for_group t dom group with
      | Some exit when exit <> sender && not (interior_interest t dom group ~excluding:exit) ->
          arrive t exit ~from:Bgmp_router.Migp_target msg
      | Some _ | None -> ())
  | Bgmp_msg.Join_sg _ | Bgmp_msg.Prune_sg _ | Bgmp_msg.Data _ -> ()

(* A control message reaching router [rid] from another router: its
   external peer ([Peer]), another border router of the domain
   ([Internal_router]) or the interior ([Migp_target]).  A join's
   arrival is the tree hop the recorder narrates. *)
and arrive t rid ~from msg =
  (match msg with
  | Bgmp_msg.Join { group; span } when Recorder.is_enabled () -> (
      match from with
      | Bgmp_router.Peer r | Bgmp_router.Internal_router r ->
          router_trace t rid "join-hop" ?span "%a from %s" Ipv4.pp group
            (Bgmp_router.name t.routers.(r))
      | Bgmp_router.Migp_target ->
          router_trace t rid "join-hop" ?span "%a via interior" Ipv4.pp group)
  | Bgmp_msg.Join _ | Bgmp_msg.Prune _ | Bgmp_msg.Join_sg _ | Bgmp_msg.Prune_sg _
  | Bgmp_msg.Data _ ->
      ());
  apply t rid ~from msg

(* The one place a router handles a control message: router [rid]
   handles [msg] from [from], the change is noted for the convergence
   watermark, and the router's resulting messages are sent. *)
and apply t rid ~from msg =
  let router = t.routers.(rid) in
  Engine.note_activity t.engine;
  exec_actions t rid
    (match msg with
    | Bgmp_msg.Join { group; span } -> Bgmp_router.handle_join router ~group ?span ~from
    | Bgmp_msg.Prune group -> Bgmp_router.handle_prune router ~group ~from
    | Bgmp_msg.Join_sg { source; group } -> Bgmp_router.handle_join_sg router ~source ~group ~from
    | Bgmp_msg.Prune_sg { source; group } ->
        Bgmp_router.handle_prune_sg router ~source ~group ~from
    | Bgmp_msg.Data _ -> invalid_arg "Bgmp_fabric.apply: a data packet is not a control message")

(* ------------------------------------------------------------------ *)
(* Data plane                                                          *)
(* ------------------------------------------------------------------ *)

(* A packet walks a domain as one loop over the work stack [t.work]:
   each step pops an item and pushes its copies last to first, so they
   leave in order, each copy's walk ending before the next one starts.
   An item's sender is a border router, or [interior], handing the
   packet to router r (target [Internal_router r]).  Every item of a
   walk has the same hop count. *)
let interior = -1

(* Router [rid] forwards a packet that arrived from [from]: its copies
   go on the stack, and the §5.3 branch prune it reports is sent before
   any of them.  Inlined: a separate call measurably slowed interior
   floods (release build, 2-vCPU host). *)
let[@inline] forward_at t rid ~from ~group ~source ~level =
  let prune = Bgmp_router.forward t.routers.(rid) t.work ~group ~source ~level ~from in
  if prune >= 0 then exec_action t rid (t.internal.(prune), Bgmp_msg.Prune_sg { source; group })

(* Push, last to first, the interior's hand-offs to the routers in
   [rids] bar [entry] that take a copy: those with state for the packet
   and the one whose link is the domain's next hop toward the group's
   root, looked up once ([root_via]) and only when some router has no
   state.  A flooding MIGP reaches the others too, but a border router
   without state off the root link forwards nothing ([default_target]
   from the interior), so no hand-off is pushed for them. *)
let rec hand_offs t ~dom ~group ~source ~entry ~root_via ~level = function
  | [] -> ()
  | rid :: rest when rid = entry ->
      hand_offs t ~dom ~group ~source ~entry ~root_via ~level rest
  | rid :: rest ->
      let r = t.routers.(rid) in
      let stateful = Bgmp_router.on_tree r group || Bgmp_router.has_sg r source group in
      let root_via =
        if stateful || root_via <> via_unknown then root_via else root_hop t dom group
      in
      let takes = stateful || t.router_neighbor.(rid) = root_via in
      hand_offs t ~dom ~group ~source ~entry ~root_via ~level rest;
      if takes then Bgmp_router.push t.work interior t.internal.(rid) ~level

(* Distribute a packet inside domain [dom]: deliver to local members,
   apply the MIGP's RPF/encapsulation behaviour, and push the hand-offs
   to the border routers that need it (§5.2).  [entry] is the border
   router the packet came in by, [-1] when it originates at a local
   host; [level] counts the distributions this one is nested in. *)
let distribute t ~dom ~entry ~group ~source ~payload ~hops ~level =
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
  if source_local && entry >= 0 then ()
  else if level > Array.length t.routers then
    (* Each level is an interior distribution entered from a border
       router, so a loop-free walk passes at most one per router. *)
    raise (Data_loop { payload; group; source; domain = dom })
  else begin
    (* RPF handling for strict MIGPs: data that entered at the wrong
       border router is tunnelled to the RPF router (counted), which may
       then grow a source-specific branch to stop the encapsulation. *)
    if members <> [] && (not source_local) && entry >= 0 && Migp.strict_rpf style then begin
      match exit_router_for_domain t dom source.Host_ref.host_domain with
      | Some rpf_rid when entry <> rpf_rid ->
          Migp.note_encapsulation migp;
          if t.cfg.branching then
            exec_actions t rpf_rid
              (Bgmp_router.initiate_branch t.routers.(rpf_rid) ~source ~group
                 ~shared_entry_router:entry)
      | Some _ | None -> ()
    end;
    deliver_members t ~group ~source ~payload ~hops members;
    (* The routers taking a copy are fixed before the first hand-off:
       a hand-off can change another router's (S,G) state. *)
    hand_offs t ~dom ~group ~source ~entry ~root_via:via_unknown ~level:(level + 1)
      t.domain_routers.(dom)
  end

(* Run the items above [base], one packet's, until none is left. *)
let drain t ~group ~source ~payload ~hops base =
  let w = t.work in
  while w.top > base do
    let i = w.top - 1 in
    w.top <- i;
    let sender = w.senders.(i) and level = w.levels.(i) in
    match w.targets.(i) with
    | Bgmp_router.Peer _ ->
        (* The one thing the data path allocates: the message the
           sender's transport lane carries. *)
        t.data_msgs <- t.data_msgs + 1;
        Metrics.incr m_data_msgs;
        let span =
          if Hashtbl.length t.payload_spans = 0 then None
          else Hashtbl.find_opt t.payload_spans payload
        in
        Net.send t.peer_chan.(sender) ?span (Bgmp_msg.Data { group; source; payload; hops })
    | Bgmp_router.Internal_router r when sender = interior ->
        forward_at t r ~from:Bgmp_router.Migp_target ~group ~source ~level
    | Bgmp_router.Internal_router r ->
        let router = t.routers.(r) in
        if Bgmp_router.on_tree router group || Bgmp_router.has_sg router source group then
          forward_at t r ~from:t.internal.(sender) ~group ~source ~level
        else
          (* Stale chain: the receiver lost its state; tell the sender to
             stop instead of default-forwarding source traffic. *)
          exec_action t r (t.internal.(sender), Bgmp_msg.Prune_sg { source; group })
    | Bgmp_router.Migp_target ->
        let dom = Bgmp_router.domain t.routers.(sender) in
        if Prof.is_enabled () then
          Prof.span "bgmp.data.distribute" (fun () ->
              distribute t ~dom ~entry:sender ~group ~source ~payload ~hops ~level)
        else distribute t ~dom ~entry:sender ~group ~source ~payload ~hops ~level
  done

(* A packet reaching router [rid] from its external peer: it crossed a
   domain boundary, the one place its inter-domain hop count ticks.  A
   loop-free path enters each domain at most once, so a count past the
   domain count is a packet circling between domains. *)
let forward_from_peer t rid ~from ~group ~source ~payload ~hops =
  let hops = hops + 1 in
  if hops > Topo.domain_count t.topo then
    raise (Data_loop { payload; group; source; domain = Bgmp_router.domain t.routers.(rid) });
  let base = t.work.top in
  forward_at t rid ~from ~group ~source ~level:0;
  drain t ~group ~source ~payload ~hops base

(* A packet a host of its source's domain sends. *)
let originate t ~group ~source ~payload =
  let base = t.work.top in
  distribute t ~dom:source.Host_ref.host_domain ~entry:(-1) ~group ~source ~payload ~hops:0
    ~level:0;
  drain t ~group ~source ~payload ~hops:0 base

(* Router [rid] receives [msg] from its external peer [from]. *)
let receive t rid ~from msg =
  match msg with
  | Bgmp_msg.Data { group; source; payload; hops } ->
      if Prof.is_enabled () then
        Prof.span "bgmp.data.forward" (fun () ->
            forward_from_peer t rid ~from ~group ~source ~payload ~hops)
      else forward_from_peer t rid ~from ~group ~source ~payload ~hops
  | Bgmp_msg.Join _ | Bgmp_msg.Prune _ | Bgmp_msg.Join_sg _ | Bgmp_msg.Prune_sg _ ->
      arrive t rid ~from msg

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Everything but the shape (routers, MIGPs, channels, installed
   closures), the log pool and the scratch.  Reading a data-plane handle
   registers its instrument in the current registry, as creating it
   did. *)
let reset t =
  Array.iter Bgmp_router.reset t.routers;
  Array.iter Migp.reset t.migps;
  Hashtbl.reset t.ucast_cache;
  Hashtbl.iter (recycle t) t.delivered;
  Hashtbl.reset t.delivered;
  Hashtbl.reset t.payload_spans;
  t.dup_count <- 0;
  t.next_payload <- 0;
  t.ctl_msgs <- 0;
  t.data_msgs <- 0;
  List.iter
    (fun c -> ignore (Metrics.count c))
    [ t.m_data_delivered; t.m_data_dup; t.m_data_dropped; t.m_ctl_dropped ];
  Packed_map.clear t.host_numbers;
  t.n_hosts <- 0;
  t.work.top <- 0

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
      delivered = Hashtbl.create 16;
      spare_logs = [||];
      n_spare = 0;
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
      host_numbers = Packed_map.create ();
      n_hosts = 0;
      cycles = None;
      work = Bgmp_router.create_work ();
      internal = Array.init router_count (fun rid -> Bgmp_router.Internal_router rid);
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
            ~recv:(fun msg -> receive t (peer_of rid) ~from msg)
        in
        Net.set_on_drop ch classify_drop;
        ch);
  (* Domain-Wide-Report wiring: first member in a domain sends a join
     via the best exit router; last member leaving sends the prune. *)
  Array.iteri
    (fun dom migp ->
      Migp.set_on_group_active migp (fun ~group ~active ->
          if active then begin
            match exit_router_for_group t dom group with
            | None -> ()
            | Some exit ->
                (* A Domain-Wide Report starts a join chain: continue the
                   G-RIB route's causal chain when one is known. *)
                let span = join_root_span t dom group in
                if Recorder.is_enabled () then
                  domain_trace t dom "join" ~span "%a via %s" Ipv4.pp group
                    (Bgmp_router.name t.routers.(exit));
                apply t exit ~from:Bgmp_router.Migp_target
                  (Bgmp_msg.Join { group; span = Some span })
          end
          else begin
            to_interior t dom ~sender:(-1) (Bgmp_msg.Prune group);
            (* Last member gone: tear down the (S,G) branches this
               domain's routers grew on the members' behalf, so no
               orphaned branch keeps pulling (or re-injecting) the
               sources' traffic. *)
            if not (Migp.has_members migp ~group) then
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
                        apply t rid ~from:Bgmp_router.Migp_target
                          (Bgmp_msg.Prune_sg { source; group }))
                    (Bgmp_router.sg_for_group router group);
                  (* With the branches gone, stale negative state at this
                     domain's on-tree routers would starve remaining
                     transit customers of the sources' shared-tree copies:
                     lift it. *)
                  List.iter
                    (fun (source, (v : Bgmp_router.sg_view)) ->
                      if v.Bgmp_router.view_removed <> [] || v.Bgmp_router.view_targets = [] then
                        exec_actions t rid (Bgmp_router.cancel_suppression router ~source ~group))
                    (Bgmp_router.sg_for_group router group))
                t.domain_routers.(dom)
          end))
    migps;
  reset t;
  t

let host_join t ~host ~group =
  Migp.host_join t.migps.(host.Host_ref.host_domain) ~group ~host;
  ignore (host_number t host)

let host_leave t ~host ~group =
  Migp.host_leave t.migps.(host.Host_ref.host_domain) ~group ~host

let next_payload_id t = t.next_payload

let send ?span t ~source ~group =
  let payload = t.next_payload in
  t.next_payload <- t.next_payload + 1;
  (match span with Some s -> Hashtbl.replace t.payload_spans payload s | None -> ());
  if Prof.is_enabled () then
    Prof.span "bgmp.data.distribute" (fun () -> originate t ~group ~source ~payload)
  else originate t ~group ~source ~payload;
  payload

let set_on_delivery t f = t.on_delivery <- f

let group_span t dom group = join_root_span t dom group

let deliveries t ~payload =
  match Hashtbl.find_opt t.delivered payload with
  | Some log ->
      let acc = ref [] in
      for i = log.n_arrivals - 1 downto 0 do
        acc := (Host_ref.of_key log.arrivals.(2 * i), log.arrivals.((2 * i) + 1)) :: !acc
      done;
      !acc
  | None -> []

let forget_payload t ~payload =
  (match Hashtbl.find_opt t.delivered payload with
  | Some log ->
      Hashtbl.remove t.delivered payload;
      recycle t payload log
  | None -> ());
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

let rebuild_group t ~group =
  Array.iter (fun r -> Bgmp_router.clear_group r group) t.routers;
  Engine.note_activity t.engine;
  Array.iteri
    (fun dom migp ->
      if Migp.has_members migp ~group then
        match exit_router_for_group t dom group with
        | Some exit ->
            let span = join_root_span t dom group in
            if Recorder.is_enabled () then
              domain_trace t dom "join" ~span "%a rebuild via %s" Ipv4.pp group
                (Bgmp_router.name t.routers.(exit));
            apply t exit ~from:Bgmp_router.Migp_target (Bgmp_msg.Join { group; span = Some span })
        | None -> ())
    t.migps

let control_messages t = t.ctl_msgs

let data_messages t = t.data_msgs

(* ------------------------------------------------------------------ *)
(* Live invariants                                                     *)
(* ------------------------------------------------------------------ *)

let rec router_across t nd = function
  | [] -> -1
  | rid :: rest -> if t.router_neighbor.(rid) = nd then rid else router_across t nd rest

(* The next router a (star,G) parent pointer leads to; -1 when the
   pointer terminates inside this domain (root reached, or nothing
   further to forward to). *)
let parent_hop t rid group =
  match Bgmp_router.star_parent t.routers.(rid) group with
  | None -> -1
  | Some (Bgmp_router.Peer p) -> p
  | Some (Bgmp_router.Internal_router r) -> r
  | Some Bgmp_router.Migp_target -> (
      let dom = Bgmp_router.domain t.routers.(rid) in
      match t.route_to_root dom group with
      | Root_here | Unroutable -> -1
      | Via nd ->
          (* [exit_router_for_group]'s router, found without building
             the (domain, neighbour) key: links are unique, so it is the
             one router of [dom] across from [nd]. *)
          let exit = router_across t nd t.domain_routers.(dom) in
          if exit <> rid then exit else -1)

let report t group acc fmt =
  Format.kasprintf (fun detail -> (detail, Some (group_trace_id t 0 group)) :: acc) fmt

(* Router colours of the acyclicity pass. *)
let unseen = '\000'
let on_walk = '\001'
let reaches_root = '\002'
let reaches_cycle = '\003'

let cycle_scratch t =
  match t.cycles with
  | Some cs -> cs
  | None ->
      let n = Array.length t.routers in
      let cs =
        {
          colour = Bytes.make n unseen;
          walk = Array.make n 0;
          groups = [||];
          ngroups = 0;
          add_group = (fun _ _ -> ());
        }
      in
      cs.add_group <- (fun g _ -> insert_group cs g);
      t.cycles <- Some cs;
      cs

(* The active groups, ascending and without duplicates, into the
   scratch: the groups of the (star,G) tables and of the MIGP
   memberships. *)
let fill_active_groups t =
  let cs = cycle_scratch t in
  cs.ngroups <- 0;
  for rid = 0 to Array.length t.routers - 1 do
    Bgmp_router.iter_star t.routers.(rid) cs.add_group
  done;
  for dom = 0 to Array.length t.migps - 1 do
    Migp.iter_groups t.migps.(dom) cs.add_group
  done;
  cs

let iter_active_groups t f =
  let cs = fill_active_groups t in
  for i = 0 to cs.ngroups - 1 do
    f cs.groups.(i)
  done

(* Acyclicity of one group's parent pointers: every on-tree router's
   chain must reach a router with no further hop.  One walk per router
   not yet coloured follows the chain until it ends (reaches a root),
   meets a router coloured by an earlier walk (inherits its colour), or
   meets a router of this walk (a cycle); every router on the walk then
   gets the result.  So each router is walked at most once, and a router
   is reported exactly when following its pointers never terminates. *)
let group_cycles t cs group acc =
  Bytes.fill cs.colour 0 (Bytes.length cs.colour) unseen;
  let acc = ref acc in
  for rid = 0 to Array.length t.routers - 1 do
    if Bgmp_router.on_tree t.routers.(rid) group then begin
      if Bytes.get cs.colour rid = unseen then begin
        let len = ref 0 and cur = ref rid and result = ref unseen in
        while !result = unseen do
          if !cur < 0 then result := reaches_root
          else
            let c = Bytes.get cs.colour !cur in
            if c = on_walk then result := reaches_cycle
            else if c <> unseen then result := c
            else begin
              Bytes.set cs.colour !cur on_walk;
              cs.walk.(!len) <- !cur;
              incr len;
              cur := parent_hop t !cur group
            end
        done;
        for i = 0 to !len - 1 do
          Bytes.set cs.colour cs.walk.(i) !result
        done
      end;
      if Bytes.get cs.colour rid = reaches_cycle then
        acc :=
          report t group !acc "tree cycle for %a via parent pointers from %s" Ipv4.pp group
            (Bgmp_router.name t.routers.(rid))
    end
  done;
  !acc

(* The quiescent-only checks of one group. *)
let group_settle t group acc =
  let acc = ref acc in
  (* Parent/child symmetry across peer links: a join sent upstream
     must have been installed as a child at the upstream peer. *)
  for rid = 0 to Array.length t.routers - 1 do
    match Bgmp_router.star_parent t.routers.(rid) group with
    | Some (Bgmp_router.Peer p) -> (
        match Bgmp_router.star_entry t.routers.(p) group with
        | Some up
          when List.exists
                 (Bgmp_router.target_equal (Bgmp_router.Peer rid))
                 up.Bgmp_router.children ->
            ()
        | Some _ | None ->
            acc :=
              report t group !acc "%s's parent %s lacks the matching child entry for %a"
                (Bgmp_router.name t.routers.(rid))
                (Bgmp_router.name t.routers.(p))
                Ipv4.pp group)
    | Some _ | None -> ()
  done;
  (* Join state subset of tree membership: a non-root domain with
     members must sit on the group's tree. *)
  Array.iteri
    (fun dom migp ->
      if
        Migp.has_members migp ~group
        && t.route_to_root dom group <> Root_here
        && not
             (List.exists
                (fun rid -> Bgmp_router.on_tree t.routers.(rid) group)
                t.domain_routers.(dom))
      then
        acc :=
          report t group !acc "domain %d has members of %a but no tree state" dom Ipv4.pp group)
    t.migps;
  !acc

(* A group with no on-tree router has no parent pointers, so the cycle
   pass only needs the groups of the routers' (star,G) tables: gathered
   sorted and deduplicated into the scratch. *)
let cycle_violations t =
  let cs = cycle_scratch t in
  cs.ngroups <- 0;
  for rid = 0 to Array.length t.routers - 1 do
    Bgmp_router.iter_star t.routers.(rid) cs.add_group
  done;
  let acc = ref [] in
  for i = 0 to cs.ngroups - 1 do
    acc := group_cycles t cs cs.groups.(i) !acc
  done;
  List.rev !acc

let settle_violations t =
  let cs = fill_active_groups t in
  let acc = ref [] in
  for i = 0 to cs.ngroups - 1 do
    acc := group_settle t cs.groups.(i) !acc
  done;
  List.rev !acc

let tree_violations t ~quiescent =
  let cs = fill_active_groups t in
  let acc = ref [] in
  for i = 0 to cs.ngroups - 1 do
    let group = cs.groups.(i) in
    acc := group_cycles t cs group !acc;
    if quiescent then acc := group_settle t group !acc
  done;
  List.rev !acc
