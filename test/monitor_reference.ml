(* The cadence monitor's predicates in their straightforward form, kept
   as the differential oracle for the scratch-based sweeps in
   [Internet] and [Bgmp_fabric]:

   - the active groups are gathered into a [Hashtbl] from every
     router's (star,G) table and every MIGP's membership, then sorted;
   - BGMP acyclicity walks each on-tree router's parent chain for up to
     [router_count] hops, per active group;
   - the settle checks are the quiescent sweep minus the acyclicity
     findings;
   - MASC sibling overlap groups acquired claims per arena in a
     [Hashtbl] of lists and pairs them up, then scans each node's
     registry with a filter over all of its claims.

   Everything here goes through public accessors only. *)

(* Groups with (star,G) state or local members anywhere, ascending: the
   order [Bgmp_fabric.iter_active_groups] must visit. *)
let active_groups fabric ~topo =
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (d : Domain.t) ->
      List.iter
        (fun r -> Bgmp_router.iter_star r (fun g _ -> Hashtbl.replace acc g ()))
        (Bgmp_fabric.routers_of fabric d.Domain.id);
      Migp.iter_groups (Bgmp_fabric.migp_of fabric d.Domain.id) (fun g _ ->
          Hashtbl.replace acc g ()))
    (Topo.domains topo);
  List.sort compare (Hashtbl.fold (fun g () l -> g :: l) acc [])

(* Where the path to the group's root leaves [dom]: the integrated
   stack answers from the domain's G-RIB. *)
let internet_route_to_root inet dom group =
  match Speaker.lookup (Internet.speaker inet dom) group with
  | None -> Bgmp_fabric.Unroutable
  | Some route -> (
      match Route.next_hop route with
      | None -> Bgmp_fabric.Root_here
      | Some nh -> Bgmp_fabric.Via nh)

let internet_span_of_group inet dom group =
  Option.bind (Speaker.lookup (Internet.speaker inet dom) group) (fun r -> r.Route.span)

let group_trace_id ~span_of_group group =
  match span_of_group 0 group with
  | Some s -> s.Span.trace_id
  | None -> Span.group_id (Ipv4.to_string group)

let parent_hop fabric ~route_to_root rid group =
  let r = Bgmp_fabric.router fabric rid in
  match Bgmp_router.star_entry r group with
  | None -> None
  | Some e -> (
      match e.Bgmp_router.parent with
      | None -> None
      | Some (Bgmp_router.Peer p) -> Some p
      | Some (Bgmp_router.Internal_router r) -> Some r
      | Some Bgmp_router.Migp_target -> (
          let dom = Bgmp_router.domain r in
          let exit =
            match route_to_root dom group with
            | Bgmp_fabric.Root_here | Bgmp_fabric.Unroutable -> None
            | Bgmp_fabric.Via nd ->
                Option.map Bgmp_router.id (Bgmp_fabric.router_toward fabric dom nd)
          in
          match exit with Some exit when exit <> rid -> Some exit | Some _ | None -> None))

let tree_violations fabric ~topo ~route_to_root ~span_of_group ~quiescent =
  let violations = ref [] in
  let add group fmt =
    Format.kasprintf
      (fun detail ->
        violations := (detail, Some (group_trace_id ~span_of_group group)) :: !violations)
      fmt
  in
  let router_count = 2 * List.length (Topo.links topo) in
  let router rid = Bgmp_fabric.router fabric rid in
  List.iter
    (fun group ->
      let on_tree rid = Bgmp_router.on_tree (router rid) group in
      for rid = 0 to router_count - 1 do
        if on_tree rid then begin
          let steps = ref 0 and cur = ref (Some rid) in
          while !cur <> None && !steps <= router_count do
            incr steps;
            cur := parent_hop fabric ~route_to_root (Option.get !cur) group
          done;
          if !cur <> None then
            add group "tree cycle for %a via parent pointers from %s" Ipv4.pp group
              (Bgmp_router.name (router rid))
        end
      done;
      if quiescent then begin
        for rid = 0 to router_count - 1 do
          match Bgmp_router.star_entry (router rid) group with
          | Some { Bgmp_router.parent = Some (Bgmp_router.Peer p); _ } -> (
              match Bgmp_router.star_entry (router p) group with
              | Some up
                when List.exists
                       (Bgmp_router.target_equal (Bgmp_router.Peer rid))
                       up.Bgmp_router.children ->
                  ()
              | Some _ | None ->
                  add group "%s's parent %s lacks the matching child entry for %a"
                    (Bgmp_router.name (router rid))
                    (Bgmp_router.name (router p))
                    Ipv4.pp group)
          | Some _ | None -> ()
        done;
        for dom = 0 to Topo.domain_count topo - 1 do
          if
            Migp.has_members (Bgmp_fabric.migp_of fabric dom) ~group
            && route_to_root dom group <> Bgmp_fabric.Root_here
            && not
                 (List.exists
                    (fun r -> Bgmp_router.on_tree r group)
                    (Bgmp_fabric.routers_of fabric dom))
          then add group "domain %d has members of %a but no tree state" dom Ipv4.pp group
        done
      end)
    (active_groups fabric ~topo);
  List.rev !violations

(* The two BGMP predicates as registered: "bgmp-acyclic" is the
   non-quiescent sweep, "bgmp-tree-settled" what the quiescent sweep
   adds to it. *)
let acyclic fabric ~topo ~route_to_root ~span_of_group =
  tree_violations fabric ~topo ~route_to_root ~span_of_group ~quiescent:false

let settled fabric ~topo ~route_to_root ~span_of_group =
  let base = acyclic fabric ~topo ~route_to_root ~span_of_group in
  List.filter
    (fun v -> not (List.mem v base))
    (tree_violations fabric ~topo ~route_to_root ~span_of_group ~quiescent:true)

let internet_acyclic inet =
  acyclic (Internet.fabric inet) ~topo:(Internet.topo inet)
    ~route_to_root:(internet_route_to_root inet) ~span_of_group:(internet_span_of_group inet)

let internet_settled inet =
  settled (Internet.fabric inet) ~topo:(Internet.topo inet)
    ~route_to_root:(internet_route_to_root inet) ~span_of_group:(internet_span_of_group inet)

(* "masc-sibling-overlap". *)
let masc_overlap inet =
  let masc = Internet.masc_network inet in
  let arenas = Hashtbl.create 8 in
  let add key entry =
    Hashtbl.replace arenas key (entry :: Option.value ~default:[] (Hashtbl.find_opt arenas key))
  in
  List.iter
    (fun id ->
      let node = Masc_network.node masc id in
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
    (Masc_network.ids masc);
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
  let in_view =
    List.concat_map
      (fun id ->
        let node = Masc_network.node masc id in
        let view = Masc_node.space_view node in
        List.concat_map
          (fun (c : Masc_node.own_claim) ->
            if
              c.Masc_node.claim_state = Masc_node.Acquired
              && c.Masc_node.claim_arena = Masc_node.Up
            then
              List.filter_map
                (fun (p, owner) ->
                  if owner <> id && Prefix.overlaps p c.Masc_node.claim_prefix then
                    Some
                      ( Printf.sprintf
                          "domain %d's acquired range %s overlaps %s registered to domain %d" id
                          (Prefix.to_string c.Masc_node.claim_prefix) (Prefix.to_string p) owner,
                        Some c.Masc_node.claim_span.Span.trace_id )
                  else None)
                (Address_space.claims view)
            else [])
          (Masc_node.all_claims node))
      (Masc_network.ids masc)
  in
  cross_node @ in_view
