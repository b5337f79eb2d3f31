type style = Dvmrp | Pim_dm | Pim_sm | Cbt

let strict_rpf = function Dvmrp | Pim_dm -> true | Pim_sm | Cbt -> false

type members = Host_ref.t list ref

type t = {
  migp_style : style;
  migp_domain : Domain.id;
  membership : (Ipv4.t, members) Hashtbl.t;
  mutable on_group_active : group:Ipv4.t -> active:bool -> unit;
  mutable encaps : int;
}

let reset t =
  Hashtbl.reset t.membership;
  t.encaps <- 0

let create style ~domain =
  let t =
    {
      migp_style = style;
      migp_domain = domain;
      membership = Hashtbl.create 8;
      on_group_active = (fun ~group:_ ~active:_ -> ());
      encaps = 0;
    }
  in
  reset t;
  t

let style t = t.migp_style

let set_on_group_active t f = t.on_group_active <- f

let host_join t ~group ~host =
  if host.Host_ref.host_domain <> t.migp_domain then
    invalid_arg "Migp.host_join: host not in this domain";
  match Hashtbl.find_opt t.membership group with
  | None ->
      Hashtbl.replace t.membership group (ref [ host ]);
      t.on_group_active ~group ~active:true
  | Some cell ->
      if List.exists (Host_ref.equal host) !cell then
        invalid_arg "Migp.host_join: already a member";
      cell := !cell @ [ host ]

let host_leave t ~group ~host =
  match Hashtbl.find_opt t.membership group with
  | None -> invalid_arg "Migp.host_leave: not a member"
  | Some cell ->
      if not (List.exists (Host_ref.equal host) !cell) then
        invalid_arg "Migp.host_leave: not a member";
      cell := List.filter (fun h -> not (Host_ref.equal h host)) !cell;
      if !cell = [] then begin
        Hashtbl.remove t.membership group;
        t.on_group_active ~group ~active:false
      end

let members t ~group =
  match Hashtbl.find t.membership group with cell -> !cell | exception Not_found -> []

let has_members t ~group = Hashtbl.mem t.membership group

let iter_groups t f = Hashtbl.iter f t.membership

let note_encapsulation t = t.encaps <- t.encaps + 1

let encapsulations t = t.encaps
