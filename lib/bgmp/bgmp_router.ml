type target = Peer of int | Migp_target | Internal_router of int

let m_joins = Metrics.counter "bgmp.joins_rcvd"
let m_prunes = Metrics.counter "bgmp.prunes_rcvd"
let m_sg_joins = Metrics.counter "bgmp.sg_joins_rcvd"
let m_sg_prunes = Metrics.counter "bgmp.sg_prunes_rcvd"
let m_entries_max = Metrics.gauge "bgmp.tree_entries_max"

let target_equal a b =
  match (a, b) with
  | Peer x, Peer y -> x = y
  | Migp_target, Migp_target -> true
  | Internal_router x, Internal_router y -> x = y
  | (Peer _ | Migp_target | Internal_router _), _ -> false

let pp_target ppf = function
  | Peer p -> Format.fprintf ppf "peer-%d" p
  | Migp_target -> Format.pp_print_string ppf "migp"
  | Internal_router r -> Format.fprintf ppf "internal-%d" r

type route_class = Root_here | External of int | Internal of int | Unroutable

type action = target * Bgmp_msg.t

type entry = { mutable parent : target option; mutable children : target list }

(* (S,G) state is stored as a DELTA against the live (star,G) entry:
   [added] holds grafted branch children, [removed] holds shared-tree
   targets pruned for this source.  The effective outgoing set is
   computed at forwarding time from the current (star,G) targets, so
   shared-tree growth after the (S,G) entry was created is never lost
   (a frozen copy would silently starve later joiners). *)
type sg_state = {
  mutable sg_parent : target option;  (** join/prune propagation direction *)
  mutable sg_rpf : target option;  (** where S's packets must arrive from *)
  mutable added : target list;
  mutable removed : target list;
}

type sg_view = {
  view_parent : target option;
  view_rpf : target option;
  view_added : target list;
  view_removed : target list;
  view_targets : target list;
}

type t = {
  rid : int;
  rdomain : Domain.id;
  rname : string;
  star : (Ipv4.t, entry) Hashtbl.t;
  sg : (Host_ref.t * Ipv4.t, sg_state) Hashtbl.t;
  pending_branch_prune : (Host_ref.t * Ipv4.t, int) Hashtbl.t;
      (** branches we initiated: same-domain router whose shared-tree
          copies to prune once (S,G) data arrives from the branch parent *)
  mutable classify_root : Ipv4.t -> route_class;
  mutable classify_source : Domain.id -> route_class;
  mutable version : int;  (** bumped when a (star,G) entry or its children change *)
  mutable toward_peer : target option;  (** see [toward_peer] *)
}

let reset t =
  Hashtbl.reset t.star;
  Hashtbl.reset t.sg;
  Hashtbl.reset t.pending_branch_prune;
  t.version <- 0;
  t.toward_peer <- None

let create ~id ~domain ~name =
  let t =
    {
      rid = id;
      rdomain = domain;
      rname = name;
      star = Hashtbl.create 8;
      sg = Hashtbl.create 4;
      pending_branch_prune = Hashtbl.create 2;
      classify_root = (fun _ -> Unroutable);
      classify_source = (fun _ -> Unroutable);
      version = 0;
      toward_peer = None;
    }
  in
  reset t;
  t

let id t = t.rid

let domain t = t.rdomain

let name t = t.rname

let version t = t.version

let bump t = t.version <- t.version + 1

let set_classify_root t f = t.classify_root <- f

let set_classify_source t f = t.classify_source <- f

let star_entry t group = Hashtbl.find_opt t.star group

let star_targets_now t group =
  match Hashtbl.find_opt t.star group with
  | Some e -> (match e.parent with Some p -> [ p ] | None -> []) @ e.children
  | None -> []

let minus l r = List.filter (fun x -> not (List.exists (target_equal x) r)) l

(* The effective outgoing set of an (S,G) entry: live shared-tree
   targets minus the pruned ones and the RPF side, plus grafted branch
   children. *)
let sg_targets_now t group st =
  let tree = star_targets_now t group in
  let rpf = match st.sg_rpf with Some r -> [ r ] | None -> [] in
  let tree_part = minus tree (st.removed @ rpf) in
  tree_part @ minus st.added (tree_part @ rpf)

let view_of t group st =
  {
    view_parent = st.sg_parent;
    view_rpf = st.sg_rpf;
    view_added = st.added;
    view_removed = st.removed;
    view_targets = sg_targets_now t group st;
  }

let sg_entry t source group =
  Option.map (view_of t group) (Hashtbl.find_opt t.sg (source, group))

let has_sg t source group = Hashtbl.length t.sg > 0 && Hashtbl.mem t.sg (source, group)

let sg_for_group t group =
  Hashtbl.fold
    (fun (s, g) st acc -> if Ipv4.equal g group then (s, view_of t group st) :: acc else acc)
    t.sg []

let on_tree t group = Hashtbl.mem t.star group

let star_parent t group =
  if Hashtbl.mem t.star group then (Hashtbl.find t.star group).parent else None

let iter_star t f = Hashtbl.iter f t.star

let entry_count t = Hashtbl.length t.star + Hashtbl.length t.sg

(* High-water mark of tree state held by any single router. *)
let note_entries t = Metrics.set_max m_entries_max (float_of_int (entry_count t))

(* The parent target toward a group's root domain: a (star,G) join
   leaves through this router's own link, or else through the MIGP,
   which carries it to the domain's exit router (§5.1). *)
let root_target = function
  | Root_here | Internal _ -> Some Migp_target
  | External p -> Some (Peer p)
  | Unroutable -> None

let toward parent msg = match parent with Some p -> [ (p, msg) ] | None -> []

(* Source-specific messages go only to a router, never to the MIGP
   component: the source domain's interior has no one to tell. *)
let toward_router parent msg =
  match parent with
  | Some ((Peer _ | Internal_router _) as p) -> [ (p, msg) ]
  | Some Migp_target | None -> []

let add_child t e target =
  if not (List.exists (target_equal target) e.children) then begin
    e.children <- e.children @ [ target ];
    bump t
  end

let remove_child t e target =
  if List.exists (target_equal target) e.children then begin
    e.children <- List.filter (fun c -> not (target_equal c target)) e.children;
    bump t
  end

let handle_join_impl ?span t ~group ~from =
  Metrics.incr m_joins;
  match Hashtbl.find_opt t.star group with
  | Some e ->
      (* Already on the tree: just add the new branch.  A join from our
         own parent would be a routing anomaly; ignore it. *)
      if e.parent <> None && target_equal (Option.get e.parent) from then []
      else begin
        add_child t e from;
        []
      end
  | None ->
      let join = Bgmp_msg.Join { group; span = Option.map Span.child span } in
      let parent = root_target (t.classify_root group) in
      let e = { parent; children = [ from ] } in
      Hashtbl.replace t.star group e;
      bump t;
      note_entries t;
      toward parent join

let handle_join ?span t ~group ~from =
  if Prof.is_enabled () then Prof.span "bgmp.join" (fun () -> handle_join_impl ?span t ~group ~from)
  else handle_join_impl ?span t ~group ~from

let handle_prune_impl t ~group ~from =
  Metrics.incr m_prunes;
  match Hashtbl.find_opt t.star group with
  | None -> []
  | Some e ->
      remove_child t e from;
      if e.children = [] then begin
        (* [remove_child] just bumped: the last child went. *)
        Hashtbl.remove t.star group;
        (* Also drop dependent (S,G) state for this group. *)
        let dead =
          Hashtbl.fold (fun (s, g) _ acc -> if Ipv4.equal g group then (s, g) :: acc else acc) t.sg []
        in
        List.iter (Hashtbl.remove t.sg) dead;
        List.iter (Hashtbl.remove t.pending_branch_prune) dead;
        toward e.parent (Bgmp_msg.Prune group)
      end
      else []

(* The toward-source target for (S,G) state: where S's packets are
   expected to arrive from (the RPF side), and where its joins and
   prunes go.  Chains address the internal next-hop router explicitly,
   so their traffic never rides the interior flood. *)
let rpf_target_for t source =
  match t.classify_source source.Host_ref.host_domain with
  | Root_here -> Some Migp_target
  | External p -> Some (Peer p)
  | Internal r -> Some (Internal_router r)
  | Unroutable -> None

(* Does the (S,G) entry still forward to any downstream target (the
   emptiness test driving prune propagation)?  Downstream = live tree
   CHILDREN minus removed, plus grafted children — the tree parent does
   not count ("F1 has no other child targets ... it propagates the
   prune up", §5.3). *)
let sg_downstream_empty t group st =
  let tree_children =
    match Hashtbl.find_opt t.star group with
    | Some e -> e.children
    | None -> []
  in
  minus tree_children st.removed = [] && minus st.added st.removed = []

let handle_prune t ~group ~from =
  if Prof.is_enabled () then Prof.span "bgmp.prune" (fun () -> handle_prune_impl t ~group ~from)
  else handle_prune_impl t ~group ~from

let handle_join_sg_impl t ~source ~group ~from =
  Metrics.incr m_sg_joins;
  match Hashtbl.find_opt t.sg (source, group) with
  | Some st ->
      (* A graft: cancel a previous prune of this target, or add a new
         branch child. *)
      if List.exists (target_equal from) st.removed then
        st.removed <- List.filter (fun x -> not (target_equal x from)) st.removed
      else if not (List.exists (target_equal from) st.added) then
        st.added <- st.added @ [ from ];
      []
  | None -> (
      match Hashtbl.find_opt t.star group with
      | Some star_e ->
          (* On the shared tree: graft the branch child; the outgoing set
             tracks the live (star,G) targets.  The join is not
             propagated further (§5.3). *)
          let st =
            {
              sg_parent = star_e.parent;
              sg_rpf = rpf_target_for t source;
              added = [ from ];
              removed = [];
            }
          in
          Hashtbl.replace t.sg (source, group) st;
          note_entries t;
          []
      | None ->
          let parent = rpf_target_for t source in
          let st = { sg_parent = parent; sg_rpf = parent; added = [ from ]; removed = [] } in
          Hashtbl.replace t.sg (source, group) st;
          note_entries t;
          toward_router parent (Bgmp_msg.Join_sg { source; group }))

let handle_join_sg t ~source ~group ~from =
  if Prof.is_enabled () then
    Prof.span "bgmp.join_sg" (fun () -> handle_join_sg_impl t ~source ~group ~from)
  else handle_join_sg_impl t ~source ~group ~from

let handle_prune_sg t ~source ~group ~from =
  Metrics.incr m_sg_prunes;
  let propagate_if_empty st =
    if sg_downstream_empty t group st then begin
      match (Hashtbl.find_opt t.star group, st.sg_parent) with
      | None, Some ((Peer _ | Internal_router _) as p) ->
          (* A pure branch with no children left: tear it down. *)
          Hashtbl.remove t.sg (source, group);
          Hashtbl.remove t.pending_branch_prune (source, group);
          [ (p, Bgmp_msg.Prune_sg { source; group }) ]
      | Some star_e, _ -> (
          (* Negative state on the shared tree: stop upstream copies. *)
          match star_e.parent with
          | Some (Peer _ as p) -> [ (p, Bgmp_msg.Prune_sg { source; group }) ]
          | Some (Migp_target | Internal_router _) | None -> [])
      | None, (Some Migp_target | None) -> []
    end
    else []
  in
  match Hashtbl.find_opt t.sg (source, group) with
  | Some st ->
      let changed = ref false in
      if List.exists (target_equal from) st.added then begin
        st.added <- List.filter (fun x -> not (target_equal x from)) st.added;
        changed := true
      end
      else if not (List.exists (target_equal from) st.removed) then begin
        st.removed <- st.removed @ [ from ];
        changed := true
      end;
      (* A pruned target turns the entry into suppression state: S's
         remaining copies are expected from the shared-tree parent. *)
      (if st.removed <> [] then
         match Hashtbl.find_opt t.star group with
         | Some star_e -> st.sg_rpf <- star_e.parent
         | None -> ());
      if !changed then propagate_if_empty st else []
  | None -> (
      (* Prune of S's shared-tree copies at an on-tree router: install
         negative (S,G) state.  The expected arrival side for S's
         shared-tree copies is the (star,G) parent (PIM's (S,G)Rpt
         semantics); data arriving from anywhere else — e.g. branch
         re-injections through the interior — is dropped, never pushed
         back up the tree. *)
      match Hashtbl.find_opt t.star group with
      | None -> []
      | Some star_e ->
          let st =
            { sg_parent = star_e.parent; sg_rpf = star_e.parent; added = []; removed = [ from ] }
          in
          Hashtbl.replace t.sg (source, group) st;
          note_entries t;
          propagate_if_empty st)

type work = {
  mutable senders : int array;
  mutable targets : target array;
  mutable levels : int array;
  mutable top : int;
}

let create_work () =
  let ints () = Array.make 16 0 in
  { senders = ints (); targets = Array.make 16 Migp_target; levels = ints (); top = 0 }

let push w sender target ~level =
  let i = w.top in
  if i = Array.length w.senders then begin
    (* Doubled: the copied upper halves are written before they are read. *)
    w.senders <- Array.append w.senders w.senders;
    w.targets <- Array.append w.targets w.targets;
    w.levels <- Array.append w.levels w.levels
  end;
  w.senders.(i) <- sender;
  w.targets.(i) <- target;
  w.levels.(i) <- level;
  w.top <- i + 1

(* This router's copies toward [targets], skipping the arrival side,
   pushed last to first so that they pop first to last. *)
let rec push_rev w t targets ~level ~from =
  match targets with
  | [] -> ()
  | tgt :: rest ->
      push_rev w t rest ~level ~from;
      if not (target_equal tgt from) then push w t.rid tgt ~level

(* [Some (Peer p)], reusing the last one this router built: a router
   has one external peer, so the default rule allocates it once. *)
let toward_peer t p =
  match t.toward_peer with
  | Some (Peer q) as tgt when q = p -> tgt
  | Some (Peer _ | Migp_target | Internal_router _) | None ->
      let tgt = Some (Peer p) in
      t.toward_peer <- tgt;
      tgt

(* The §5.2 default rule, used when no (star,G) entry applies: the next
   target toward the group's root domain, if the packet goes on. *)
let default_target t ~group ~from =
  match t.classify_root group with
  | Root_here | Internal _ -> (
      match from with
      | Migp_target | Internal_router _ -> None  (* nowhere further to go *)
      | Peer _ -> Some Migp_target)
  | External p -> (
      match from with
      | Peer q when q = p -> None
      | Peer _ | Migp_target | Internal_router _ -> toward_peer t p)
  | Unroutable -> None

(* The targets of a packet under its (S,G) entry, in order; [push_rev]
   skips the arrival side among them.  Three flavours of (S,G) state, distinguished live:
   - a pure BRANCH (no (star,G) here): strictly RPF-gated — S's packets
     are accepted only from the toward-source side and flow down the
     grafted children; anything else is dropped (this is what makes
     branch re-injections loop-free);
   - NEGATIVE state on the shared tree (some tree target was pruned for
     S): gated on the side S's shared-tree copies arrive from,
     forwarding to the surviving children — its whole point is
     suppression, so off-gate arrivals drop;
   - a GRAFT on the shared tree (branch children added, nothing pruned):
     behaves exactly like the bidirectional (star,G) entry plus the
     extra children — gating it to one side would starve tree
     neighbours whose copies flow through us. *)
let sg_targets t st ~group ~from =
  match (Hashtbl.find_opt t.star group, st.removed) with
  | None, _ -> (
      match st.sg_rpf with
      | Some r when not (target_equal from r) -> []
      | Some _ | None -> (
          (* A branch hop at an off-tree router must not swallow the
             packet: besides the grafted children, the data still flows
             toward the root domain (the branch is an ADDITION to the
             shared-tree distribution, §5.3).  Skip the default when it
             duplicates a branch child. *)
          match default_target t ~group ~from with
          | Some d when not (List.exists (target_equal d) st.added) -> st.added @ [ d ]
          | Some _ | None -> st.added))
  | Some star_e, _ :: _ -> (
      match st.sg_rpf with
      | Some r when not (target_equal from r) -> []
      | Some _ | None ->
          minus star_e.children st.removed @ minus st.added st.removed)
  | Some star_e, [] ->
      let tree = (match star_e.parent with Some p -> [ p ] | None -> []) @ star_e.children in
      let acceptable =
        List.exists (target_equal from) tree
        || (match st.sg_rpf with Some r -> target_equal from r | None -> false)
      in
      if not acceptable then [] else tree @ minus st.added tree

let forward t w ~group ~source ~level ~from =
  (* Most routers hold no (S,G) state at all: skip the keyed lookup. *)
  match if Hashtbl.length t.sg = 0 then None else Hashtbl.find_opt t.sg (source, group) with
  | None ->
      (match Hashtbl.find t.star group with
      | e -> (
          (* A (star,G) entry forwards bidirectionally: parent first,
             then the children, never back to the arrival side. *)
          push_rev w t e.children ~level ~from;
          match e.parent with
          | Some p when not (target_equal p from) -> push w t.rid p ~level
          | Some _ | None -> ())
      | exception Not_found -> (
          match default_target t ~group ~from with
          | Some tgt -> push w t.rid tgt ~level
          | None -> ()));
      -1
  | Some st ->
      (* A branch we initiated becomes live when (S,G) data arrives from
         its RPF side: time to prune the duplicate shared-tree copies
         (§5.3).  Deliberately NOT consumed: membership churn can lift
         the shared-tree suppression while this branch lives on, and the
         un-suppressed tree copy plus the branch would cycle; asserting
         the prune on every branch arrival keeps the pair consistent
         (the prune is idempotent and precedes the forwards).  The
         targets are settled here, before the caller sends the prune,
         since the prune can change this router's (S,G) state. *)
      let prune =
        match Hashtbl.find_opt t.pending_branch_prune (source, group) with
        | Some shared_router
          when (match st.sg_rpf with Some r -> target_equal r from | None -> false) ->
            shared_router
        | Some _ | None -> -1
      in
      push_rev w t (sg_targets t st ~group ~from) ~level ~from;
      prune

let branch_prune t ~source ~group = Hashtbl.find_opt t.pending_branch_prune (source, group)

let clear_group t group =
  if Hashtbl.mem t.star group then begin
    Hashtbl.remove t.star group;
    bump t
  end;
  let dead_sg =
    Hashtbl.fold (fun (s, g) _ acc -> if Ipv4.equal g group then (s, g) :: acc else acc) t.sg []
  in
  List.iter (Hashtbl.remove t.sg) dead_sg;
  let dead_pending =
    Hashtbl.fold
      (fun (s, g) _ acc -> if Ipv4.equal g group then (s, g) :: acc else acc)
      t.pending_branch_prune []
  in
  List.iter (Hashtbl.remove t.pending_branch_prune) dead_pending

let cancel_suppression t ~source ~group =
  match (Hashtbl.find_opt t.sg (source, group), Hashtbl.find_opt t.star group) with
  | Some _, Some star_e ->
      Hashtbl.remove t.sg (source, group);
      (match star_e.parent with
      | Some (Peer _ as p) -> [ (p, Bgmp_msg.Join_sg { source; group }) ]
      | Some (Migp_target | Internal_router _) | None -> [])
  | (Some _ | None), (Some _ | None) -> []

let initiate_branch t ~source ~group ~shared_entry_router =
  match Hashtbl.find_opt t.sg (source, group) with
  | Some st ->
      (* Already a transit hop of someone else's chain: graft our own
         interior (members) onto it and arrange the suppression of the
         stale shared-tree copies. *)
      if not (List.exists (target_equal Migp_target) st.added) then
        st.added <- st.added @ [ Migp_target ];
      Hashtbl.replace t.pending_branch_prune (source, group) shared_entry_router;
      []
  | None -> (
      match rpf_target_for t source with
      | None -> []
      | Some _ as parent ->
          let st =
            { sg_parent = parent; sg_rpf = parent; added = [ Migp_target ]; removed = [] }
          in
          Hashtbl.replace t.sg (source, group) st;
          note_entries t;
          Hashtbl.replace t.pending_branch_prune (source, group) shared_entry_router;
          toward_router parent (Bgmp_msg.Join_sg { source; group }))
