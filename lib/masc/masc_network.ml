type t = {
  net : Net.t;
  nodes : (Domain.id, Masc_node.t) Hashtbl.t;
  node_ids : Domain.id list;
  (* MASC talks along overlay edges (parent/child, top-sibling) that
     need not be topology links; channels are created on first use per
     directed pair. *)
  channels : (Domain.id * Domain.id, Masc_message.t Net.channel) Hashtbl.t;
  delay : Time.t;
  rng : Rng.t;  (** the generator the node RNGs are split from *)
  node_rngs : Rng.t array;  (** in [node_ids] order *)
  parent_of : Domain.id -> Domain.id option;
}

let message_span = function
  | Masc_message.Claim_announce { span; _ } | Masc_message.Collision_announce { span; _ } -> span
  | Masc_message.Space_advertise _ | Masc_message.Claim_release _ | Masc_message.Need_space _ ->
      None

let channel_to t ~src ~dst =
  match Hashtbl.find_opt t.channels (src, dst) with
  | Some ch -> ch
  | None ->
      let ch =
        Net.channel t.net ~protocol:"masc" ~src ~dst ~delay:t.delay ~recv:(fun msg ->
            match Hashtbl.find_opt t.nodes dst with
            | Some receiver -> Masc_node.receive receiver ~from_:src msg
            | None -> ())
      in
      Hashtbl.add t.channels (src, dst) ch;
      ch

(* Children lists, top meshes and bootstrap space, from [parent_of]. *)
let wire t =
  let tops = List.filter (fun id -> t.parent_of id = None) t.node_ids in
  List.iter
    (fun id ->
      let node = Hashtbl.find t.nodes id in
      Masc_node.set_children node (List.filter (fun c -> t.parent_of c = Some id) t.node_ids);
      match Masc_node.role node with
      | Masc_node.Top ->
          Masc_node.bootstrap_top node Prefix.class_d;
          Masc_node.set_top_siblings node (List.filter (fun s -> s <> id) tops)
      | Masc_node.Child _ -> ())
    t.node_ids

let create ~engine ~rng ?(config = Masc_node.default_config) ?net ~parent_of ~ids () =
  let net = match net with Some n -> n | None -> Net.create ~engine () in
  let t =
    {
      net;
      nodes = Hashtbl.create (List.length ids);
      node_ids = ids;
      channels = Hashtbl.create 16;
      delay = Time.seconds 0.05;
      rng;
      node_rngs = Array.of_list (List.map (fun _ -> Rng.split rng) ids);
      parent_of;
    }
  in
  List.iteri
    (fun i id ->
      let role =
        match parent_of id with
        | Some p -> Masc_node.Child p
        | None -> Masc_node.Top
      in
      let node = Masc_node.create ~id ~role ~config ~engine ~rng:t.node_rngs.(i) in
      Masc_node.set_transport node (fun ~dst msg ->
          Net.send (channel_to t ~src:id ~dst) ?span:(message_span msg) msg);
      Hashtbl.replace t.nodes id node)
    ids;
  wire t;
  t

let reset t ~seed =
  Rng.reseed t.rng seed;
  Array.iter (Rng.split_into t.rng) t.node_rngs;
  List.iter (fun id -> Masc_node.reset (Hashtbl.find t.nodes id)) t.node_ids;
  wire t

let of_topo ~engine ~rng ?config ?net topo =
  let parent_of id =
    match Topo.providers_of topo id with
    | [] -> None
    | p :: _ -> Some p
  in
  let ids = List.map (fun d -> d.Domain.id) (Topo.domains topo) in
  create ~engine ~rng ?config ?net ~parent_of ~ids ()

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> raise Not_found

let ids t = t.node_ids

let start t =
  (* Tops first so their space advertisements precede child activity. *)
  let tops, rest =
    List.partition (fun id -> Masc_node.role (node t id) = Masc_node.Top) t.node_ids
  in
  List.iter (fun id -> Masc_node.start (node t id)) tops;
  List.iter (fun id -> Masc_node.start (node t id)) rest

let reparent t ~child ~new_parent =
  let child_node = node t child in
  let parent_node =
    match Hashtbl.find_opt t.nodes new_parent with
    | Some n -> n
    | None -> invalid_arg "Masc_network.reparent: unknown parent"
  in
  (match Masc_node.role child_node with
  | Masc_node.Top -> invalid_arg "Masc_network.reparent: child is top-level"
  | Masc_node.Child old_parent -> (
      match Hashtbl.find_opt t.nodes old_parent with
      | Some old_node ->
          Masc_node.set_children old_node
            (List.filter
               (fun c -> c <> child)
               (List.filter_map
                  (fun id ->
                    match Masc_node.role (node t id) with
                    | Masc_node.Child p when p = old_parent -> Some id
                    | Masc_node.Child _ | Masc_node.Top -> None)
                  t.node_ids))
      | None -> ()));
  Masc_node.reparent child_node ~new_parent;
  let siblings =
    List.filter_map
      (fun id ->
        match Masc_node.role (node t id) with
        | Masc_node.Child p when p = new_parent -> Some id
        | Masc_node.Child _ | Masc_node.Top -> None)
      t.node_ids
  in
  Masc_node.set_children parent_node siblings;
  Masc_node.start parent_node;
  (* Push the new parent's space to all its children (including the
     newcomer) right away — over the transport, like any other
     advertisement. *)
  Net.send
    (channel_to t ~src:new_parent ~dst:child)
    (Masc_message.Space_advertise (Address_space.covers (Masc_node.children_view parent_node)))

let partition t a b = Net.fail_link t.net a b

let heal t a b = Net.restore_link t.net a b

let messages_dropped t = Net.dropped t.net ~protocol:"masc"

let total_collisions t =
  List.fold_left (fun acc id -> acc + Masc_node.collisions_suffered (node t id)) 0 t.node_ids
