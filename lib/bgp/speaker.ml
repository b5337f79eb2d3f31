type peer_relation = To_customer | To_provider | To_peer

let m_advertises = Metrics.counter "bgp.advertises_sent"
let m_withdraws = Metrics.counter "bgp.withdraws_sent"
let m_grib_max = Metrics.gauge "bgp.grib_size_max"

type t = {
  self : Domain.id;
  peers : (Domain.id, peer_relation) Hashtbl.t;
  mutable peer_order : Domain.id list;  (** insertion order, for determinism *)
  adj_in : (Domain.id, (Prefix.t, Route.t) Hashtbl.t) Hashtbl.t;
  originated_tbl : (Prefix.t, Route.t) Hashtbl.t;
  grib : Route.t Prefix_trie.t;
  exported : (Domain.id * Prefix.t, Route.t) Hashtbl.t;
      (** what each peer last heard from us, keyed (peer, prefix) *)
  down_peers : (Domain.id, unit) Hashtbl.t;
      (** peers whose session is down: nothing is exported (or recorded
          as exported) to them until {!peer_up} *)
  mutable send : dst:Domain.id -> Update.t -> unit;
  mutable extra_filter : dst:Domain.id -> Route.t -> bool;
  mutable on_grib_change : Prefix.t -> unit;
  mutable version : int;  (** bumped whenever a best route changes *)
}

(* Peerings, hooks and the per-peer Adj-RIB-In tables stay; every
   table goes back to its initial size, so folds over it (session
   flushes, aggregation sweeps) visit in a fresh speaker's order. *)
let reset t =
  Hashtbl.iter (fun _ tbl -> Hashtbl.reset tbl) t.adj_in;
  Hashtbl.reset t.originated_tbl;
  Prefix_trie.reset t.grib;
  Hashtbl.reset t.exported;
  Hashtbl.reset t.down_peers;
  t.version <- 0

let create ~id =
  let t =
    {
      self = id;
      peers = Hashtbl.create 8;
      peer_order = [];
      adj_in = Hashtbl.create 8;
      originated_tbl = Hashtbl.create 4;
      grib = Prefix_trie.create ();
      exported = Hashtbl.create 16;
      down_peers = Hashtbl.create 2;
      send = (fun ~dst:_ _ -> ());
      extra_filter = (fun ~dst:_ _ -> true);
      on_grib_change = (fun _ -> ());
      version = 0;
    }
  in
  reset t;
  t

let version t = t.version

let add_peer t peer rel =
  if Hashtbl.mem t.peers peer then invalid_arg "Speaker.add_peer: duplicate peer";
  Hashtbl.replace t.peers peer rel;
  t.peer_order <- t.peer_order @ [ peer ];
  Hashtbl.replace t.adj_in peer (Hashtbl.create 8)

let set_send t f = t.send <- f

let set_export_filter t f = t.extra_filter <- f

let set_on_grib_change t f = t.on_grib_change <- f

(* The default export rule (Gao–Rexford, §2 "Routing policies"): a route
   is exported to a peer iff we originated it or learned it from a
   customer; routes learned from providers or peers are only exported to
   customers.  Aggregation: learned routes covered by one of our own
   originated prefixes stay local (§4.3.2).  Never echo a route to the
   peer it came from. *)
let exportable t ~dst route =
  let rel_to_dst = Hashtbl.find t.peers dst in
  let learned_from = Route.next_hop route in
  let self_originated = learned_from = None in
  if learned_from = Some dst then false
  else if Route.contains_loop route dst then false
  else begin
    let aggregated =
      (not self_originated)
      && Hashtbl.fold
           (fun own _ acc -> acc || Prefix.subsumes own route.Route.prefix)
           t.originated_tbl false
    in
    if aggregated then false
    else begin
      let policy_ok =
        if self_originated then true
        else begin
          let from_rel =
            match learned_from with
            | Some peer -> Hashtbl.find t.peers peer
            | None -> To_customer
          in
          match from_rel with
          | To_customer -> true
          | To_provider | To_peer -> rel_to_dst = To_customer
        end
      in
      policy_ok && t.extra_filter ~dst route
    end
  end

(* Re-run the decision process for one prefix and push any change to the
   G-RIB and to peers.  [desired] per peer is what that peer should hear
   from us; diffing against [exported] yields the minimal update. *)
let reconsider_impl t prefix =
  let candidates =
    let own =
      match Hashtbl.find_opt t.originated_tbl prefix with
      | Some r -> [ r ]
      | None -> []
    in
    List.fold_left
      (fun acc peer ->
        match Hashtbl.find_opt (Hashtbl.find t.adj_in peer) prefix with
        | Some r -> r :: acc
        | None -> acc)
      own t.peer_order
  in
  let best =
    match candidates with
    | [] -> None
    | first :: rest -> Some (List.fold_left Route.prefer first rest)
  in
  let previous_best = Prefix_trie.find_exact t.grib prefix in
  (match best with
  | None -> Prefix_trie.remove t.grib prefix
  | Some r -> Prefix_trie.add t.grib prefix r);
  let changed =
    match (previous_best, best) with
    | None, None -> false
    | Some a, Some b -> not (Route.equal a b)
    | None, Some _ | Some _, None -> true
  in
  if changed then begin
    t.version <- t.version + 1;
    Metrics.set_max m_grib_max (float_of_int (Prefix_trie.cardinal t.grib));
    t.on_grib_change prefix
  end;
  let export () =
    List.iter
      (fun peer ->
        if Hashtbl.mem t.down_peers peer then ()
        else
        let desired =
          match best with
          | Some r when exportable t ~dst:peer r -> Some (Route.through r t.self)
          | Some _ | None -> None
        in
        let previous = Hashtbl.find_opt t.exported (peer, prefix) in
        match (previous, desired) with
        | None, None -> ()
        | Some old_r, Some new_r when Route.equal old_r new_r -> ()
        | _, Some new_r ->
            Hashtbl.replace t.exported (peer, prefix) new_r;
            Metrics.incr m_advertises;
            t.send ~dst:peer (Update.Advertise new_r)
        | Some _, None ->
            Hashtbl.remove t.exported (peer, prefix);
            Metrics.incr m_withdraws;
            t.send ~dst:peer (Update.Withdraw prefix))
      t.peer_order
  in
  if Prof.is_enabled () then Prof.span "bgp.export" export else export ()

let reconsider t prefix =
  if Prof.is_enabled () then Prof.span "bgp.decide" (fun () -> reconsider_impl t prefix)
  else reconsider_impl t prefix

let originate ?lifetime_end ?span t prefix =
  let r = Route.originate ?lifetime_end ?span t.self prefix in
  (match Hashtbl.find_opt t.originated_tbl prefix with
  | Some existing
    when Route.equal existing r
         && existing.Route.lifetime_end = lifetime_end
         && existing.Route.span = span -> ()
  | Some _ | None ->
      Hashtbl.replace t.originated_tbl prefix r;
      reconsider t prefix;
      (* A freshly covering aggregate makes previously exported more
         specific routes redundant; withdraw them. *)
      let covered =
        Hashtbl.fold
          (fun (peer, p) _ acc ->
            if Prefix.subsumes prefix p && not (Prefix.equal prefix p) then (peer, p) :: acc
            else acc)
          t.exported []
      in
      List.iter (fun (_, p) -> reconsider t p) (List.sort_uniq compare covered))

let withdraw_origin t prefix =
  if Hashtbl.mem t.originated_tbl prefix then begin
    Hashtbl.remove t.originated_tbl prefix;
    reconsider t prefix;
    (* Routes we were aggregating may now need to be exported. *)
    let uncovered =
      Hashtbl.fold
        (fun peer tbl acc ->
          ignore peer;
          Hashtbl.fold
            (fun p _ acc -> if Prefix.subsumes prefix p && not (Prefix.equal prefix p) then p :: acc else acc)
            tbl acc)
        t.adj_in []
    in
    List.iter (reconsider t) (List.sort_uniq Prefix.compare uncovered)
  end

let peer_down t peer =
  let tbl =
    match Hashtbl.find_opt t.adj_in peer with
    | Some tbl -> tbl
    | None -> invalid_arg "Speaker.peer_down: unknown peer"
  in
  Hashtbl.replace t.down_peers peer ();
  let prefixes = Hashtbl.fold (fun p _ acc -> p :: acc) tbl [] in
  Hashtbl.reset tbl;
  (* Also forget what we exported to the dead session; a fresh session
     starts from an empty view. *)
  let exported_here =
    Hashtbl.fold (fun (q, p) _ acc -> if q = peer then (q, p) :: acc else acc) t.exported []
  in
  List.iter (Hashtbl.remove t.exported) exported_here;
  List.iter (reconsider t) (List.sort_uniq Prefix.compare prefixes)

let peer_up t peer =
  if not (Hashtbl.mem t.peers peer) then invalid_arg "Speaker.peer_up: unknown peer";
  Hashtbl.remove t.down_peers peer;
  (* Re-run the decision for everything we know; the export diff against
     the (empty) session state re-sends the full table. *)
  let known =
    Hashtbl.fold (fun p _ acc -> p :: acc) t.originated_tbl []
    @ Prefix_trie.fold t.grib ~init:[] ~f:(fun p _ acc -> p :: acc)
  in
  List.iter (reconsider t) (List.sort_uniq Prefix.compare known)

let receive t ~from_ update =
  let tbl =
    match Hashtbl.find_opt t.adj_in from_ with
    | Some tbl -> tbl
    | None -> invalid_arg "Speaker.receive: unknown peer"
  in
  match update with
  | Update.Advertise r ->
      if Route.contains_loop r t.self then begin
        (* Loop-rejected advertisement acts as an implicit withdraw of any
           previous route for the prefix from this peer. *)
        if Hashtbl.mem tbl r.Route.prefix then begin
          Hashtbl.remove tbl r.Route.prefix;
          reconsider t r.Route.prefix
        end
      end
      else begin
        Hashtbl.replace tbl r.Route.prefix r;
        reconsider t r.Route.prefix
      end
  | Update.Withdraw p ->
      if Hashtbl.mem tbl p then begin
        Hashtbl.remove tbl p;
        reconsider t p
      end

let lookup t addr = Prefix_trie.find_longest t.grib addr

let best_routes t = Prefix_trie.to_list t.grib

let grib_size t = Prefix_trie.cardinal t.grib

let iter_routes t f = Prefix_trie.iter_values t.grib f
