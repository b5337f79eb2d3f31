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

(* The probability that an event is a join: membership grows slowly
   over the stream. *)
let join_bias = 0.55

let iter_group_churn ~seed ~shard ~domains ~groups ~events ~join ~leave =
  if domains < 1 then invalid_arg "Membership.iter_group_churn: need at least one domain";
  if groups < 1 then invalid_arg "Membership.iter_group_churn: need at least one group";
  if events < 0 then invalid_arg "Membership.iter_group_churn: negative event count";
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
