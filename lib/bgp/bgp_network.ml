type t = {
  engine : Engine.t;
  topo : Topo.t;
  net : Net.t;
  speakers : Speaker.t array;
  channels : (Domain.id * Domain.id, Update.t Net.channel) Hashtbl.t;
}

let relation_from_link ~self ~(link : Topo.link) =
  match link.Topo.rel with
  | Topo.Peer -> Speaker.To_peer
  | Topo.Provider_customer ->
      if link.Topo.a = self then Speaker.To_customer else Speaker.To_provider

let update_span = function
  | Update.Advertise r -> r.Route.span
  | Update.Withdraw _ -> None

let create ~engine ?net ~topo () =
  let net = match net with Some n -> n | None -> Net.create ~engine () in
  let n = Topo.domain_count topo in
  let speakers = Array.init n (fun id -> Speaker.create ~id) in
  let t = { engine; topo; net; speakers; channels = Hashtbl.create (2 * n) } in
  let add_channel src dst delay =
    Hashtbl.add t.channels (src, dst)
      (Net.channel net ~protocol:"bgp" ~src ~dst ~delay ~recv:(fun update ->
           Speaker.receive speakers.(dst) ~from_:src update))
  in
  List.iter
    (fun (link : Topo.link) ->
      let sa = speakers.(link.Topo.a) and sb = speakers.(link.Topo.b) in
      Speaker.add_peer sa link.Topo.b (relation_from_link ~self:link.Topo.a ~link);
      Speaker.add_peer sb link.Topo.a (relation_from_link ~self:link.Topo.b ~link);
      add_channel link.Topo.a link.Topo.b link.Topo.delay;
      add_channel link.Topo.b link.Topo.a link.Topo.delay)
    (Topo.links topo);
  (* Peering sessions follow the transport's link state: when a link
     with a topology peering fails, both sessions drop (routes learned
     over it flush and withdrawals ripple out); on restore they re-form
     and exchange full tables.  Overlay pairs (MASC's) have no session
     to drop. *)
  Net.on_link_change net (fun a b ~up ->
      if a < n && b < n && Topo.link_between topo a b <> None then
        if up then begin
          Speaker.peer_up t.speakers.(a) b;
          Speaker.peer_up t.speakers.(b) a
        end
        else begin
          Speaker.peer_down t.speakers.(a) b;
          Speaker.peer_down t.speakers.(b) a
        end);
  Array.iteri
    (fun src speaker ->
      (* Convergence watermark: a G-RIB change is the BGP layer's
         durable state change.  [Internet] replaces this hook and keeps
         the same watermark. *)
      Speaker.set_on_grib_change speaker (fun _ -> Engine.note_activity engine);
      Speaker.set_send speaker (fun ~dst update ->
          match Hashtbl.find_opt t.channels (src, dst) with
          | Some ch -> Net.send ch ?span:(update_span update) update
          | None -> invalid_arg "Bgp_network: send to non-adjacent domain"))
    speakers;
  t

let reset t = Array.iter Speaker.reset t.speakers

let speaker t id = t.speakers.(id)

let originate ?lifetime_end ?span t id prefix =
  Speaker.originate ?lifetime_end ?span t.speakers.(id) prefix

let withdraw t id prefix = Speaker.withdraw_origin t.speakers.(id) prefix

let converge t = Engine.run_until_idle t.engine

