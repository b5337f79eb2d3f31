(* The BGMP router's data forwarding seen as lists: [handle_data]
   reads what [Bgmp_router.forward] pushes onto a work stack, and
   [reference] is the list implementation forwarding had before the
   work stack, kept as the differential oracle for it. *)

open Bgmp_router

(* One output of a forwarded packet: a copy toward a target (a peer
   message, a hand-off to an internal peer, or the domain's interior),
   or the control message the (S,G) branch prune sends. *)
type out =
  | To_peer of int * Bgmp_msg.t
  | To_internal of int * Bgmp_msg.t
  | Migp_data of { group : Ipv4.t; source : Host_ref.t; payload : int; hops : int }

let pp_msg ppf = function
  | Bgmp_msg.Join { group; span = _ } -> Format.fprintf ppf "join %a" Ipv4.pp group
  | Prune g -> Format.fprintf ppf "prune %a" Ipv4.pp g
  | Join_sg { source; group } -> Format.fprintf ppf "join (%a,%a)" Host_ref.pp source Ipv4.pp group
  | Prune_sg { source; group } ->
      Format.fprintf ppf "prune (%a,%a)" Host_ref.pp source Ipv4.pp group
  | Data { group; source; payload; hops } ->
      Format.fprintf ppf "data %a from %a #%d (%d hops)" Ipv4.pp group Host_ref.pp source payload
        hops

let pp_out ppf = function
  | To_peer (p, m) -> Format.fprintf ppf "peer-%d %a" p pp_msg m
  | To_internal (r, m) -> Format.fprintf ppf "internal-%d %a" r pp_msg m
  | Migp_data { payload; hops; _ } -> Format.fprintf ppf "migp payload %d hops %d" payload hops

(* One copy of a packet toward a target.  [msg] is the packet as a peer
   message, shared by all of its copies. *)
let data_action tgt msg ~group ~source ~payload ~hops =
  match tgt with
  | Peer p -> To_peer (p, msg)
  | Internal_router r -> To_internal (r, msg)
  | Migp_target -> Migp_data { group; source; payload; hops }

(* The branch prune [forward] reports first, then the items it pushed,
   top down: the order they leave the router. *)
let handle_data r ~group ~source ~payload ~hops ~from =
  let w = create_work () in
  let prune = forward r w ~group ~source ~level:0 ~from in
  let copies =
    List.init w.top (fun k ->
        let i = w.top - 1 - k in
        if w.senders.(i) <> id r || w.levels.(i) <> 0 then
          Alcotest.failf "item %d is not router %d's copy at level 0" i (id r);
        data_action w.targets.(i)
          (Bgmp_msg.Data { group; source; payload; hops })
          ~group ~source ~payload ~hops)
  in
  if prune >= 0 then To_internal (prune, Bgmp_msg.Prune_sg { source; group }) :: copies
  else copies

(* ---- the list implementation ---------------------------------------- *)

let minus l r = List.filter (fun x -> not (List.exists (target_equal x) r)) l

(* Copies toward [targets] in order, skipping the arrival side. *)
let rec forward_data targets msg ~group ~source ~payload ~hops ~from =
  match targets with
  | [] -> []
  | tgt :: rest ->
      let others = forward_data rest msg ~group ~source ~payload ~hops ~from in
      if target_equal tgt from then others
      else data_action tgt msg ~group ~source ~payload ~hops :: others

(* A (star,G) entry forwards bidirectionally: parent first, then the
   children, never back to the arrival side. *)
let forward_tree (e : entry) msg ~group ~source ~payload ~hops ~from =
  let down = forward_data e.children msg ~group ~source ~payload ~hops ~from in
  match e.parent with
  | Some p when not (target_equal p from) -> data_action p msg ~group ~source ~payload ~hops :: down
  | Some _ | None -> down

(* The §5.2 default rule, used when no (star,G) entry applies. *)
let default_toward_root ~classify_root msg ~group ~source ~payload ~hops ~from =
  match classify_root group with
  | Root_here -> (
      match from with
      | Migp_target | Internal_router _ -> []
      | Peer _ -> [ Migp_data { group; source; payload; hops } ])
  | External p ->
      if (match from with Peer q -> q = p | Migp_target | Internal_router _ -> false) then []
      else [ To_peer (p, msg) ]
  | Internal _ -> (
      match from with
      | Migp_target | Internal_router _ -> []
      | Peer _ -> [ Migp_data { group; source; payload; hops } ])
  | Unroutable -> []

(* Forwarding under the packet's (S,G) entry: a pure branch, negative
   state or a graft on the shared tree. *)
let forward_sg r ~classify_root (v : sg_view) msg ~group ~source ~payload ~hops ~from =
  match (star_entry r group, v.view_removed) with
  | None, _ -> (
      match v.view_rpf with
      | Some rpf when not (target_equal from rpf) -> []
      | Some _ | None ->
          let branch =
            forward_data (minus v.view_added [ from ]) msg ~group ~source ~payload ~hops ~from
          in
          let defaults =
            List.filter
              (fun out ->
                match out with
                | To_peer (p, _) ->
                    not
                      (List.exists
                         (function Peer q -> q = p | Migp_target | Internal_router _ -> false)
                         v.view_added)
                | Migp_data _ -> not (List.exists (target_equal Migp_target) v.view_added)
                | To_internal _ -> true)
              (default_toward_root ~classify_root msg ~group ~source ~payload ~hops ~from)
          in
          branch @ defaults)
  | Some star_e, _ :: _ -> (
      match v.view_rpf with
      | Some rpf when not (target_equal from rpf) -> []
      | Some _ | None ->
          let survivors =
            minus star_e.children v.view_removed @ minus v.view_added v.view_removed
          in
          forward_data survivors msg ~group ~source ~payload ~hops ~from)
  | Some star_e, [] ->
      let tree = (match star_e.parent with Some p -> [ p ] | None -> []) @ star_e.children in
      let acceptable =
        List.exists (target_equal from) tree
        || (match v.view_rpf with Some rpf -> target_equal from rpf | None -> false)
      in
      if not acceptable then []
      else forward_data (tree @ minus v.view_added tree) msg ~group ~source ~payload ~hops ~from

(* [classify_root] must be the classifier installed on [r]. *)
let reference r ~classify_root ~group ~source ~payload ~hops ~from =
  let msg = Bgmp_msg.Data { group; source; payload; hops } in
  match sg_entry r source group with
  | None -> (
      match star_entry r group with
      | Some e -> forward_tree e msg ~group ~source ~payload ~hops ~from
      | None -> default_toward_root ~classify_root msg ~group ~source ~payload ~hops ~from)
  | Some v ->
      let branch_prunes =
        match Bgmp_router.branch_prune r ~source ~group with
        | Some shared_router
          when (match v.view_rpf with Some rpf -> target_equal rpf from | None -> false) ->
            [ To_internal (shared_router, Bgmp_msg.Prune_sg { source; group }) ]
        | Some _ | None -> []
      in
      branch_prunes @ forward_sg r ~classify_root v msg ~group ~source ~payload ~hops ~from
