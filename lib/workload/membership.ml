let uniform ~rng topo ~size ~exclude =
  let n = Topo.domain_count topo in
  let candidates =
    List.filter (fun d -> not (List.mem d exclude)) (List.init n (fun i -> i))
  in
  if List.length candidates < size then invalid_arg "Membership.uniform: not enough domains";
  let arr = Array.of_list candidates in
  Rng.shuffle rng arr;
  Array.to_list (Array.sub arr 0 size)

let clustered ~rng topo ~size ~clusters ~exclude =
  let n = Topo.domain_count topo in
  if clusters < 1 then invalid_arg "Membership.clustered: need at least one cluster";
  let seeds = Array.init clusters (fun _ -> Rng.int rng n) in
  let dists = Array.map (fun s -> Spf.bfs topo s) seeds in
  (* Weight candidates by proximity to the nearest seed: weight
     1/(1+d)^2 gives a strong but not degenerate concentration. *)
  let eligible = List.filter (fun d -> not (List.mem d exclude)) (List.init n (fun i -> i)) in
  let weight d =
    let best =
      Array.fold_left
        (fun acc paths -> min acc (Spf.dist paths d))
        max_int dists
    in
    if best = max_int then 0.0 else 1.0 /. ((1.0 +. float_of_int best) ** 2.0)
  in
  let chosen = Hashtbl.create size in
  let total = List.fold_left (fun acc d -> acc +. weight d) 0.0 eligible in
  let attempts = ref 0 in
  while Hashtbl.length chosen < size && !attempts < 200 * size do
    incr attempts;
    let target = Rng.float rng total in
    let rec pick acc = function
      | [] -> ()
      | d :: rest ->
          let acc = acc +. weight d in
          if acc >= target then begin
            if not (Hashtbl.mem chosen d) then Hashtbl.replace chosen d ()
          end
          else pick acc rest
    in
    pick 0.0 eligible
  done;
  (* Uniform fallback for any residue (tiny weights, unlucky draws). *)
  let rec fill candidates =
    if Hashtbl.length chosen >= size then ()
    else
      match candidates with
      | [] -> invalid_arg "Membership.clustered: not enough domains"
      | d :: rest ->
          if not (Hashtbl.mem chosen d) then Hashtbl.replace chosen d ();
          fill rest
  in
  if Hashtbl.length chosen < size then fill eligible;
  Hashtbl.fold (fun d () acc -> d :: acc) chosen [] |> List.sort compare

type beacon_plan = {
  local_fleets : (Domain.id * Host_ref.t list) list;
  session_beacons : Host_ref.t list;
}

let beacon_plan topo ~per_domain =
  if per_domain < 1 then invalid_arg "Membership.beacon_plan: need at least one beacon";
  let n = Topo.domain_count topo in
  let fleet d = List.init per_domain (fun i -> Host_ref.make d i) in
  {
    local_fleets = List.init n (fun d -> (d, fleet d));
    session_beacons = List.init n (fun d -> Host_ref.make d 0);
  }

let iter_group_churn ~seed ~shard ~domains ~groups ?(join_bias = 0.55) ~events ~join ~leave () =
  if domains < 1 then invalid_arg "Membership.iter_group_churn: need at least one domain";
  if groups < 1 then invalid_arg "Membership.iter_group_churn: need at least one group";
  if events < 0 then invalid_arg "Membership.iter_group_churn: negative event count";
  if not (join_bias > 0.0 && join_bias <= 1.0) then
    invalid_arg "Membership.iter_group_churn: join_bias must be in (0, 1]";
  (* One generator per (seed, shard): shards draw independent streams,
     so trial-parallel consumers are deterministic at any job count.
     Group ids live in the shard's own block, keeping shard state
     disjoint by construction. *)
  let rng = Rng.create (seed lxor ((shard + 1) * 0x9E3779B97F4A7C)) in
  let base = shard * groups in
  (* Active memberships, swap-removable in O(1): parallel arrays of
     group, member and the receipt [join] returned. *)
  let ag = ref (Array.make 16 0) and am = ref (Array.make 16 0) and ar = ref (Array.make 16 0) in
  let live = ref 0 in
  for i = 0 to events - 1 do
    if !live = 0 || Rng.float rng 1.0 < join_bias then begin
      let g = base + Rng.int rng groups in
      let m = Rng.int rng domains in
      if !live = Array.length !ag then begin
        let grow a =
          let b = Array.make (2 * Array.length a) 0 in
          Array.blit a 0 b 0 (Array.length a);
          b
        in
        ag := grow !ag;
        am := grow !am;
        ar := grow !ar
      end;
      !ag.(!live) <- g;
      !am.(!live) <- m;
      !ar.(!live) <- join i g m;
      incr live
    end
    else begin
      let j = Rng.int rng !live in
      let g = !ag.(j) and m = !am.(j) and r = !ar.(j) in
      decr live;
      !ag.(j) <- !ag.(!live);
      !am.(j) <- !am.(!live);
      !ar.(j) <- !ar.(!live);
      leave i g m r
    end
  done

type churn_event = { when_ : Time.t; member : Domain.id; joins : bool }

let waves ~rng ~members ~wave_count ~wave_gap ~stay =
  if wave_count < 1 then invalid_arg "Membership.waves: need at least one wave";
  let events =
    List.concat_map
      (fun m ->
        let wave = Rng.int rng wave_count in
        let join_at = (float_of_int wave *. wave_gap) +. Rng.float rng (wave_gap /. 2.0) in
        [
          { when_ = join_at; member = m; joins = true };
          { when_ = join_at +. stay; member = m; joins = false };
        ])
      members
  in
  List.sort (fun a b -> compare a.when_ b.when_) events
