type params = {
  tops : int;
  children_per_top : int;
  block_size : int;
  block_lifetime : Time.t;
  request_min : Time.t;
  request_max : Time.t;
  horizon : Time.t;
  sample_interval : Time.t;
  policy : Claim_policy.params;
  claim_lifetime : Time.t;
  placement : [ `First | `Random ];
  hetero_spread : int;
  check_invariants : bool;
  seed : int;
  telemetry : Timeseries.t option;
}

let default_params =
  {
    tops = 50;
    children_per_top = 50;
    block_size = 256;
    block_lifetime = Time.days 30.0;
    request_min = Time.hours 1.0;
    request_max = Time.hours 95.0;
    horizon = Time.days 800.0;
    sample_interval = Time.days 1.0;
    policy = Claim_policy.default_params;
    claim_lifetime = Time.days 30.0;
    placement = `First;
    hetero_spread = 0;
    check_invariants = false;
    seed = 1998;
    telemetry = None;
  }

type sample = {
  day : float;
  utilization : float;
  grib_avg : float;
  grib_max : int;
  outstanding_blocks : int;
  claimed_addresses : int;
  demanded_addresses : int;
  top_prefixes : int;
  child_prefixes : int;
}

type holding = { h_prefix : Prefix.t; h_active : bool; h_used : int }

type result = {
  samples : sample array;
  failed_requests : int;
  total_requests : int;
  claims_made : int;
  final_tops : holding list array;
  final_children : holding list array;
  invariant_violations : int;
  top_converged_day : float;
}

(* One claimed prefix held by a domain (child or top).  [used] counts
   addresses of live blocks (child) or of children's claims (top,
   maintained incrementally).  A claim is in its domain's list exactly
   while [alive]: the handler that kills it also takes it out.
   [expiry] is the claim's one lifetime event, armed at the claim and
   re-armed on each renewal or drain re-check. *)
type dom_claim = {
  mutable prefix : Prefix.t;
  mutable active : bool;
  mutable used : int;
  mutable alive : bool;
  mutable expiry : Engine.handle;
}

(* The policy reads the claims in place and answers with one of them. *)
module Policy = Claim_policy.Make (struct
  type t = dom_claim

  let prefix c = c.prefix
  let active c = c.active
  let used c = c.used
end)

(* Fills the event fields until their owner exists (never armed), and
   the empty slots of the block rings. *)
let unarmed = Engine.event ignore

let vacant = { prefix = Prefix.class_d; active = false; used = 0; alive = false; expiry = unarmed }

(* A child domain.  [c_request] is its one request event, re-armed
   after every request.  Its outstanding blocks wait in [c_blocks], a
   growable ring (capacity a power of two, [c_len] entries from
   [c_head]) of the claims they were granted from, oldest first;
   [c_block_expiry] is armed once per grant and retires the ring's head
   (see [grant_block]). *)
type child = {
  c_owner : int;
  c_top : int;
  mutable c_claims : dom_claim list;
  c_rng : Rng.t;
  mutable c_request : Engine.handle;
  mutable c_block_expiry : Engine.handle;
  mutable c_blocks : dom_claim array;
  mutable c_head : int;
  mutable c_len : int;
}

type top = {
  t_owner : int;
  t_arena : Address_space.t;  (** the arena this top's children claim from *)
  mutable t_claims : dom_claim list;
  t_rng : Rng.t;
}

type sim = {
  p : params;
  engine : Engine.t;
  claim_lane : Engine.lane;  (** arms claim expiries, [claim_lifetime] out *)
  block_lane : Engine.lane;  (** arms block expiries, [block_lifetime] out *)
  global : Address_space.t;  (** 224/4; claims are top-level prefixes *)
  top_doms : top array;
  child_doms : child array;
  mutable demanded : int;  (** addresses of live blocks *)
  mutable claimed_top : int;  (** addresses claimed from 224/4 *)
  mutable blocks : int;
  mutable failed : int;
  mutable requests : int;
  mutable claims_made : int;
  mutable samples_rev : sample list;
  mutable last_sample : sample option;
  mutable right_size_top : sim -> top -> unit;
  mutable right_size_child : sim -> child -> unit;
  mutable violations : int;
  invariants : Invariant.t;
}

let m_requests = Metrics.counter "allocation.requests"
let m_failed = Metrics.counter "allocation.failed_requests"
let m_claims_made = Metrics.counter "allocation.claims_made"
let m_outstanding = Metrics.gauge "allocation.outstanding_blocks"
let m_utilization = Metrics.gauge "allocation.utilization"
let m_converged = Metrics.gauge "allocation.top_converged_day"

(* --- top-level (parent) expansion ---------------------------------- *)

let top_total top = List.fold_left (fun acc c -> acc + Prefix.size c.prefix) 0 top.t_claims

let top_used top = List.fold_left (fun acc c -> acc + c.used) 0 top.t_claims

(* Lifetime machinery (§4.3.1): a claim still in use is renewed at
   expiry, but only while [may_renew] holds — a child claim may not
   outlive its covering parent range, so once the parent range is
   deactivated the child claim switches to draining (no new assignments)
   and is recycled when its addresses time out. *)
let start_lifetime sim ~arena holder ~may_renew ~on_renew ~on_release =
  holder.expiry <-
    Engine.event ~label:"alloc.claim_expiry" (fun () ->
        if holder.alive then begin
          if holder.used > 0 && may_renew () then begin
            Engine.arm_lane sim.engine sim.claim_lane holder.expiry;
            on_renew ()
          end
          else if holder.used > 0 then begin
            (* Cannot renew: drain and re-check one lifetime later. *)
            holder.active <- false;
            Engine.arm_lane sim.engine sim.claim_lane holder.expiry
          end
          else begin
            holder.alive <- false;
            Address_space.unregister arena holder.prefix;
            on_release ()
          end
        end);
  Engine.arm_lane sim.engine sim.claim_lane holder.expiry

(* The set of top-level (globally advertised) prefixes changed: advance
   the convergence watermark. *)
let note_top_change sim = Engine.note_activity sim.engine "masc"

let top_release sim top holder =
  note_top_change sim;
  top.t_claims <- List.filter (fun c -> c != holder) top.t_claims;
  Address_space.remove_cover top.t_arena holder.prefix;
  sim.claimed_top <- sim.claimed_top - Prefix.size holder.prefix

let top_add_claim sim top prefix =
  Address_space.register sim.global ~owner:top.t_owner prefix;
  Address_space.add_cover top.t_arena prefix;
  let holder = { prefix; active = true; used = 0; alive = true; expiry = unarmed } in
  note_top_change sim;
  top.t_claims <- holder :: top.t_claims;
  sim.claimed_top <- sim.claimed_top + Prefix.size prefix;
  sim.claims_made <- sim.claims_made + 1;
  Metrics.incr m_claims_made;
  start_lifetime sim ~arena:sim.global holder
    ~may_renew:(fun () -> holder.active)
    ~on_renew:(fun () -> sim.right_size_top sim top)
    ~on_release:(fun () -> top_release sim top holder);
  holder

let top_double sim top holder =
  note_top_change sim;
  let doubled = Prefix.double holder.prefix in
  Address_space.unregister sim.global holder.prefix;
  Address_space.register sim.global ~owner:top.t_owner doubled;
  Address_space.remove_cover top.t_arena holder.prefix;
  Address_space.add_cover top.t_arena doubled;
  sim.claimed_top <- sim.claimed_top + Prefix.size holder.prefix;
  sim.claims_made <- sim.claims_made + 1;
  Metrics.incr m_claims_made;
  holder.prefix <- doubled

let top_deactivate sim top holder =
  if holder.active then begin
    note_top_change sim;
    holder.active <- false;
    (* Children may no longer place or grow claims inside a draining
       range; their claims within it lapse at their own expiry. *)
    Address_space.remove_cover top.t_arena holder.prefix
  end

(* Grow a top's space by [need] addresses; [force] skips the Assign
   short-circuit (used when a child failed on fragmentation, so raw
   capacity exists but no usable contiguous block).  The effective need
   is never below what restores the occupancy target, so
   fragmentation-forced claims do not litter 224/4 with slivers. *)
let top_expand sim top ~need ~force =
  let threshold = sim.p.policy.Claim_policy.threshold in
  let total = top_total top and used = top_used top in
  let to_target =
    max 0 (int_of_float (ceil (float_of_int (used + need) /. threshold)) - total)
  in
  let need = max need to_target in
  let decision = Policy.decide ~params:sim.p.policy ~space:sim.global ~claims:top.t_claims ~need in
  let claim_new len =
    match
      Address_space.choose_claim_placed sim.global ~rng:top.t_rng ~want_len:len
        ~placement:sim.p.placement
    with
    | Some prefix -> Some (top_add_claim sim top prefix)
    | None -> None
  in
  let consolidate len =
    match claim_new len with
    | Some fresh ->
        List.iter (fun c -> if c != fresh then top_deactivate sim top c) top.t_claims;
        true
    | None -> false
  in
  (* Fragmentation-forced growth must still respect the prefix budget:
     at the limit, consolidate into one block big enough for everything
     instead of littering 224/4 with per-incident slivers. *)
  let forced_growth () =
    let active = List.filter (fun c -> c.active) top.t_claims in
    if List.length active < sim.p.policy.Claim_policy.max_prefixes then
      claim_new (Prefix.mask_for_count need) <> None
    else consolidate (Prefix.mask_for_count (used + need))
  in
  match decision with
  | Claim_policy.Assign _ -> if force then forced_growth () else true
  | Claim_policy.Double holder ->
      top_double sim top holder;
      true
  | Claim_policy.Claim_new len -> claim_new len <> None
  | Claim_policy.Consolidate len -> consolidate len
  | Claim_policy.Blocked -> forced_growth ()

(* Renewal-time adaptation (§4.3.3: ranges "have to be given up once the
   lifetime expires unless explicitly renewed.  This helps us adapt
   continually to usage patterns"): a domain whose active space is badly
   under-used at renewal consolidates down to a right-sized block. *)
let right_size_top sim top =
  let active = List.filter (fun c -> c.active) top.t_claims in
  let size = List.fold_left (fun acc c -> acc + Prefix.size c.prefix) 0 active in
  let used = List.fold_left (fun acc c -> acc + c.used) 0 active in
  let threshold = sim.p.policy.Claim_policy.threshold in
  if used > 0 && size > 0 && float_of_int used < 0.5 *. threshold *. float_of_int size then begin
    let len = Prefix.mask_for_count used in
    if 1 lsl (32 - len) < size then begin
      match
        Address_space.choose_claim_placed sim.global ~rng:top.t_rng ~want_len:len
          ~placement:sim.p.placement
      with
      | Some prefix ->
          let fresh = top_add_claim sim top prefix in
          List.iter (fun c -> if c != fresh then top_deactivate sim top c) top.t_claims
      | None -> ()
    end
  end

(* Keep the parent ahead of its children's demand (§4.1). *)
let top_pressure_check sim top =
  let total = top_total top in
  let used = top_used top in
  if total = 0 then ignore (top_expand sim top ~need:sim.p.block_size ~force:false)
  else begin
    let threshold = sim.p.policy.Claim_policy.threshold in
    if float_of_int used > threshold *. float_of_int total then begin
      let target = int_of_float (ceil (float_of_int used /. threshold)) in
      ignore (top_expand sim top ~need:(max sim.p.block_size (target - total)) ~force:false)
    end
  end

(* --- child claims --------------------------------------------------- *)

let top_claim_covering top prefix =
  List.find_opt (fun c -> Prefix.subsumes c.prefix prefix) top.t_claims

let note_child_claimed sim child prefix delta =
  let top = sim.top_doms.(child.c_top) in
  match top_claim_covering top prefix with
  | Some holder -> holder.used <- holder.used + delta
  | None -> ()

let child_release sim child holder =
  child.c_claims <- List.filter (fun c -> c != holder) child.c_claims;
  note_child_claimed sim child holder.prefix (-(Prefix.size holder.prefix))

let child_add_claim sim child prefix =
  let top = sim.top_doms.(child.c_top) in
  Address_space.register top.t_arena ~owner:child.c_owner prefix;
  let holder = { prefix; active = true; used = 0; alive = true; expiry = unarmed } in
  child.c_claims <- holder :: child.c_claims;
  sim.claims_made <- sim.claims_made + 1;
  Metrics.incr m_claims_made;
  note_child_claimed sim child prefix (Prefix.size prefix);
  start_lifetime sim ~arena:top.t_arena holder
    ~may_renew:(fun () ->
      holder.active
      && (match top_claim_covering top holder.prefix with
         | Some cover -> cover.active
         | None -> false))
    ~on_renew:(fun () -> sim.right_size_child sim child)
    ~on_release:(fun () -> child_release sim child holder);
  top_pressure_check sim top;
  holder

let child_double sim child holder =
  let top = sim.top_doms.(child.c_top) in
  let doubled = Prefix.double holder.prefix in
  Address_space.unregister top.t_arena holder.prefix;
  Address_space.register top.t_arena ~owner:child.c_owner doubled;
  note_child_claimed sim child holder.prefix (Prefix.size holder.prefix);
  (* +size(old) = size(new) - size(old) added on top of what was already
     counted for the old prefix. *)
  sim.claims_made <- sim.claims_made + 1;
  Metrics.incr m_claims_made;
  holder.prefix <- doubled;
  top_pressure_check sim top

(* Find (growing the spaces as needed) a claim with room for one block.
   Returns [None] only when even parent expansion failed. *)
let rec child_satisfy sim child ~attempts =
  if attempts <= 0 then None
  else begin
    let top = sim.top_doms.(child.c_top) in
    match
      Policy.decide ~params:sim.p.policy ~space:top.t_arena ~claims:child.c_claims
        ~need:sim.p.block_size
    with
    | Claim_policy.Assign holder -> Some holder
    | Claim_policy.Double holder ->
        child_double sim child holder;
        Some holder
    | Claim_policy.Claim_new len -> child_place sim child top len ~attempts
    | Claim_policy.Consolidate len -> (
        match child_place sim child top len ~attempts with
        | Some holder ->
            List.iter (fun c -> if c != holder then c.active <- false) child.c_claims;
            Some holder
        | None -> None)
    | Claim_policy.Blocked ->
        let need =
          sim.p.block_size
          + List.fold_left (fun acc c -> acc + c.used) 0 child.c_claims
        in
        if top_expand sim top ~need ~force:true then child_satisfy sim child ~attempts:(attempts - 1)
        else None
  end

(* Claim a fresh /[len] for the child, growing its top's space when the
   arena has no room. *)
and child_place sim child top len ~attempts =
  match
    Address_space.choose_claim_placed top.t_arena ~rng:child.c_rng ~want_len:len
      ~placement:sim.p.placement
  with
  | Some prefix -> Some (child_add_claim sim child prefix)
  | None ->
      if top_expand sim top ~need:(1 lsl (32 - len)) ~force:true then
        child_satisfy sim child ~attempts:(attempts - 1)
      else None

let right_size_child sim child =
  let active = List.filter (fun c -> c.active) child.c_claims in
  let size = List.fold_left (fun acc c -> acc + Prefix.size c.prefix) 0 active in
  let used = List.fold_left (fun acc c -> acc + c.used) 0 active in
  let threshold = sim.p.policy.Claim_policy.threshold in
  if used > 0 && size > 0 && float_of_int used < 0.5 *. threshold *. float_of_int size then begin
    let len = Prefix.mask_for_count used in
    if 1 lsl (32 - len) < size then begin
      let top = sim.top_doms.(child.c_top) in
      match
        Address_space.choose_claim_placed top.t_arena ~rng:child.c_rng ~want_len:len
          ~placement:sim.p.placement
      with
      | Some prefix ->
          let fresh = child_add_claim sim child prefix in
          List.iter (fun c -> if c != fresh then c.active <- false) child.c_claims
      | None -> ()
    end
  end

let expire_block sim child holder =
  holder.used <- holder.used - sim.p.block_size;
  sim.demanded <- sim.demanded - sim.p.block_size;
  sim.blocks <- sim.blocks - 1;
  (* An inactive claim that just drained is recycled immediately — the
     paper's "will timeout when the currently allocated addresses
     timeout". *)
  if holder.alive && (not holder.active) && holder.used = 0 then begin
    holder.alive <- false;
    let top = sim.top_doms.(child.c_top) in
    Address_space.unregister top.t_arena holder.prefix;
    child_release sim child holder
  end

(* Every block lives [block_lifetime] and a child's grants come at
   nondecreasing times, so its blocks expire in grant order.  Each
   grant arms [c_block_expiry] once (one seq each, in grant order), and
   each occurrence retires the ring's head: the block granted by the
   arm it belongs to. *)
let grant_block sim child holder =
  holder.used <- holder.used + sim.p.block_size;
  sim.demanded <- sim.demanded + sim.p.block_size;
  sim.blocks <- sim.blocks + 1;
  let cap = Array.length child.c_blocks in
  if child.c_len = cap then begin
    let blocks = Array.make (max 16 (2 * cap)) vacant in
    for k = 0 to child.c_len - 1 do
      blocks.(k) <- child.c_blocks.((child.c_head + k) land (cap - 1))
    done;
    child.c_blocks <- blocks;
    child.c_head <- 0
  end;
  child.c_blocks.((child.c_head + child.c_len) land (Array.length child.c_blocks - 1)) <- holder;
  child.c_len <- child.c_len + 1;
  Engine.arm_lane sim.engine sim.block_lane child.c_block_expiry

let expire_oldest_block sim child =
  let holder = child.c_blocks.(child.c_head) in
  child.c_blocks.(child.c_head) <- vacant;
  child.c_head <- (child.c_head + 1) land (Array.length child.c_blocks - 1);
  child.c_len <- child.c_len - 1;
  expire_block sim child holder

(* The draw order is fixed: [child_satisfy] may draw placements from the
   child's rng, then the delay to its next request is drawn. *)
let request sim child =
  sim.requests <- sim.requests + 1;
  Metrics.incr m_requests;
  (match child_satisfy sim child ~attempts:3 with
  | Some holder -> grant_block sim child holder
  | None ->
      sim.failed <- sim.failed + 1;
      Metrics.incr m_failed);
  Engine.arm_after sim.engine child.c_request
    (Rng.float_in child.c_rng sim.p.request_min sim.p.request_max)

let start_requests sim child =
  child.c_request <- Engine.event ~label:"alloc.request" (fun () -> request sim child);
  child.c_block_expiry <-
    Engine.event ~label:"alloc.block_expiry" (fun () -> expire_oldest_block sim child);
  Engine.arm_after sim.engine child.c_request
    (Rng.float_in child.c_rng sim.p.request_min sim.p.request_max)

(* --- invariants ------------------------------------------------------ *)

(* The guarantee MASC's collision resolution exists to provide (§4),
   checked live against the synchronous registries: no two domains hold
   overlapping live claims — tops against 224/4, and each arena's
   children among themselves. *)
let overlap_violations sim () =
  let pair_check claims acc =
    let rec go acc = function
      | [] -> acc
      | (a, (pa : Prefix.t)) :: rest ->
          let acc =
            List.fold_left
              (fun acc (b, pb) ->
                if a <> b && Prefix.overlaps pa pb then
                  ( Printf.sprintf "domains %d and %d claimed overlapping ranges %s and %s" a b
                      (Prefix.to_string pa) (Prefix.to_string pb),
                    None )
                  :: acc
                else acc)
              acc rest
          in
          go acc rest
    in
    go acc claims
  in
  let tops =
    Array.to_list sim.top_doms
    |> List.concat_map (fun top ->
           List.map (fun c -> (top.t_owner, c.prefix)) top.t_claims)
  in
  let acc = pair_check tops [] in
  let per_top = Hashtbl.create 16 in
  Array.iter
    (fun child ->
      let entries = List.map (fun c -> (child.c_owner, c.prefix)) child.c_claims in
      Hashtbl.replace per_top child.c_top
        (entries @ Option.value ~default:[] (Hashtbl.find_opt per_top child.c_top)))
    sim.child_doms;
  Hashtbl.fold (fun _ claims acc -> pair_check claims acc) per_top acc

(* What lets the policy read a domain's claim list unfiltered: every
   claim listed is alive and registered to that domain in its arena —
   a claim leaves its list in the handler that kills it. *)
let live_list_violations sim () =
  let check kind ~owner ~arena acc c =
    if c.alive && Address_space.owner_of arena c.prefix = Some owner then acc
    else
      ( Printf.sprintf "%s %d lists %s claim %s" kind owner
          (if c.alive then "unregistered" else "dead")
          (Prefix.to_string c.prefix),
        None )
      :: acc
  in
  let acc =
    Array.fold_left
      (fun acc top ->
        List.fold_left (check "top" ~owner:top.t_owner ~arena:sim.global) acc top.t_claims)
      [] sim.top_doms
  in
  Array.fold_left
    (fun acc child ->
      let arena = sim.top_doms.(child.c_top).t_arena in
      List.fold_left (check "child" ~owner:child.c_owner ~arena) acc child.c_claims)
    acc sim.child_doms

(* --- sampling ------------------------------------------------------- *)

let take_sample sim =
  let p = sim.p in
  let global_prefixes =
    Array.fold_left (fun acc top -> acc + List.length top.t_claims) 0 sim.top_doms
  in
  let child_prefix_total =
    Array.fold_left (fun acc c -> acc + List.length c.c_claims) 0 sim.child_doms
  in
  (* Per-top counts of children prefixes. *)
  let per_top = Array.make p.tops 0 in
  Array.iter
    (fun c -> per_top.(c.c_top) <- per_top.(c.c_top) + List.length c.c_claims)
    sim.child_doms;
  let sum_grib = ref 0 and max_grib = ref 0 in
  Array.iter
    (fun top ->
      let g = global_prefixes + per_top.(top.t_owner) in
      sum_grib := !sum_grib + g;
      if g > !max_grib then max_grib := g)
    sim.top_doms;
  Array.iter
    (fun c ->
      let own = List.length c.c_claims in
      let g = global_prefixes + per_top.(c.c_top) - own in
      sum_grib := !sum_grib + g;
      if g > !max_grib then max_grib := g)
    sim.child_doms;
  let n_domains = p.tops + Array.length sim.child_doms in
  let utilization =
    if sim.claimed_top = 0 then 0.0 else float_of_int sim.demanded /. float_of_int sim.claimed_top
  in
  Metrics.set m_outstanding (float_of_int sim.blocks);
  Metrics.set m_utilization utilization;
  if p.check_invariants then
    sim.violations <- sim.violations + List.length (Invariant.check ~quiescent:false sim.invariants);
  {
    day = Time.to_days (Engine.now sim.engine);
    utilization;
    grib_avg = float_of_int !sum_grib /. float_of_int n_domains;
    grib_max = !max_grib;
    outstanding_blocks = sim.blocks;
    claimed_addresses = sim.claimed_top;
    demanded_addresses = sim.demanded;
    top_prefixes = global_prefixes;
    child_prefixes = child_prefix_total;
  }

let run p =
  let engine = Engine.create () in
  let rng = Rng.create p.seed in
  let global = Address_space.create () in
  Address_space.add_cover global Prefix.class_d;
  let top_doms =
    Array.init p.tops (fun i ->
        { t_owner = i; t_arena = Address_space.create (); t_claims = []; t_rng = Rng.split rng })
  in
  let children_counts =
    Array.init p.tops (fun _ ->
        let spread = if p.hetero_spread = 0 then 0 else Rng.int_in rng (-p.hetero_spread) p.hetero_spread in
        max 1 (p.children_per_top + spread))
  in
  let child_doms =
    let specs =
      Array.to_list children_counts
      |> List.mapi (fun top count -> List.init count (fun _ -> top))
      |> List.concat
    in
    Array.of_list
      (List.mapi
         (fun i top ->
           {
             c_owner = p.tops + i;
             c_top = top;
             c_claims = [];
             c_rng = Rng.split rng;
             c_request = unarmed;
             c_block_expiry = unarmed;
             c_blocks = [||];
             c_head = 0;
             c_len = 0;
           })
         specs)
  in
  let sim =
    {
      p;
      engine;
      claim_lane = Engine.lane engine ~delay:p.claim_lifetime;
      block_lane = Engine.lane engine ~delay:p.block_lifetime;
      global;
      top_doms;
      child_doms;
      demanded = 0;
      claimed_top = 0;
      blocks = 0;
      failed = 0;
      requests = 0;
      claims_made = 0;
      samples_rev = [];
      last_sample = None;
      right_size_top = (fun _ _ -> ());
      right_size_child = (fun _ _ -> ());
      violations = 0;
      invariants = Invariant.create ();
    }
  in
  sim.right_size_top <- right_size_top;
  sim.right_size_child <- right_size_child;
  Invariant.register sim.invariants ~name:"allocation-overlap" (overlap_violations sim);
  Invariant.register sim.invariants ~name:"allocation-live-lists" (live_list_violations sim);
  (* Telemetry sources read the sim's running tallies plus the latest
     figure sample, so the series ride the existing sampling cadence
     with no extra events. *)
  (match p.telemetry with
  | Some ts ->
      let of_last f = match sim.last_sample with Some s -> f s | None -> 0.0 in
      Timeseries.register ts "alloc.pending_events" (fun () ->
          float_of_int (Engine.pending engine));
      Timeseries.register ts "alloc.outstanding_blocks" (fun () -> float_of_int sim.blocks);
      Timeseries.register ts "alloc.claimed_addresses" (fun () -> float_of_int sim.claimed_top);
      Timeseries.register ts "alloc.demanded_addresses" (fun () -> float_of_int sim.demanded);
      Timeseries.register ts "alloc.utilization" (fun () -> of_last (fun s -> s.utilization));
      Timeseries.register ts "alloc.grib_avg" (fun () -> of_last (fun s -> s.grib_avg));
      Timeseries.register ts "alloc.grib_max" (fun () ->
          of_last (fun s -> float_of_int s.grib_max));
      Timeseries.register ts "alloc.top_prefixes" (fun () ->
          of_last (fun s -> float_of_int s.top_prefixes))
  | None -> ());
  Prof.span "fig2.populate" (fun () ->
      Array.iter (start_requests sim) child_doms);
  let rec sampling () =
    ignore
      (Engine.schedule_after ~label:"alloc.sample" engine p.sample_interval (fun () ->
           let s = take_sample sim in
           sim.last_sample <- Some s;
           sim.samples_rev <- s :: sim.samples_rev;
           (match p.telemetry with
           | Some ts -> Timeseries.sample ts ~time:(Time.to_seconds (Engine.now engine))
           | None -> ());
           if Engine.now engine < p.horizon then sampling ()))
  in
  sampling ();
  Prof.span "fig2.run" (fun () -> Engine.run ~until:p.horizon engine);
  Prof.span "fig2.summarize" (fun () ->
      let snapshot claims =
        List.map
          (fun c -> { h_prefix = c.prefix; h_active = c.active; h_used = c.used })
          claims
      in
      let top_converged_day =
        Option.value ~default:0.0
          (Option.map Time.to_days (List.assoc_opt "masc" (Engine.watermarks engine)))
      in
      Metrics.set m_converged top_converged_day;
      {
        samples = Array.of_list (List.rev sim.samples_rev);
        failed_requests = sim.failed;
        total_requests = sim.requests;
        claims_made = sim.claims_made;
        final_tops = Array.map (fun top -> snapshot top.t_claims) sim.top_doms;
        final_children = Array.map (fun c -> snapshot c.c_claims) sim.child_doms;
        invariant_violations = sim.violations;
        top_converged_day;
      })

let steady_state result ~from_day =
  Array.to_list (Array.of_seq (Seq.filter (fun s -> s.day >= from_day) (Array.to_seq result.samples)))

(* Independent full simulations fanned out over the Par pool, one task
   per parameter set.  Each run is self-contained (own engine, own
   rng), so the only cross-task state is the Obs layer — shard-local in
   each task, folded back here in input order, keeping metrics and
   profiles identical at any job count.  Telemetry params are rejected:
   a shard cannot drive a shared Jsonl sink. *)
let run_many ?jobs ps =
  List.iter
    (fun p ->
      if p.telemetry <> None then invalid_arg "Allocation_sim.run_many: telemetry not supported")
    ps;
  let outs = Par.map ?jobs (fun p -> Par.with_shard (fun () -> run p)) ps in
  List.map
    (fun (r, shard) ->
      Par.merge_shard shard;
      r)
    outs
