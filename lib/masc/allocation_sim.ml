type params = {
  tops : int;
  children_per_top : int;
  horizon : Time.t;
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
    horizon = Time.days 800.0;
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

(* A claiming domain, top or child: both run one claim lifecycle, and
   what differs by level is fixed when the domain is built.  [arena] is
   where its claims register (224/4 for a top, its top's children's
   arena for a child); [level] says what its claimed space feeds and
   where it turns when its arena has no room. *)
type dom = {
  owner : int;
  arena : Address_space.t;
  mutable claims : dom_claim list;
  rng : Rng.t;
  level : level;
}

and level =
  | Top of Address_space.t
      (** the arena its children claim from, covered by its active claims *)
  | Child of dom  (** its top, whose covering claim counts its space as used *)

(* A child domain's demand.  [c_request] is its one request event,
   re-armed after every request.  Its outstanding blocks wait in
   [c_blocks], a growable ring (capacity a power of two, [c_len]
   entries from [c_head]) of the claims they were granted from, oldest
   first; [c_block_expiry] is armed once per grant and retires the
   ring's head (see [grant_block]). *)
type child = {
  dom : dom;
  mutable c_request : Engine.handle;
  mutable c_block_expiry : Engine.handle;
  mutable c_blocks : dom_claim array;
  mutable c_head : int;
  mutable c_len : int;
}

type sim = {
  p : params;
  engine : Engine.t;
  claim_lane : Engine.lane;  (** arms claim expiries, [claim_lifetime] out *)
  block_lane : Engine.lane;  (** arms block expiries, [Demand.block_lifetime] out *)
  top_doms : dom array;
  child_doms : child array;
  mutable demanded : int;  (** addresses of live blocks *)
  mutable claimed_top : int;  (** addresses claimed from 224/4 *)
  mutable blocks : int;
  mutable failed : int;
  mutable requests : int;
  mutable claims_made : int;
  mutable samples_rev : sample list;
  mutable last_sample : sample option;
  mutable violations : int;
  invariants : Invariant.t;
}

let m_requests = Metrics.counter "allocation.requests"
let m_failed = Metrics.counter "allocation.failed_requests"
let m_claims_made = Metrics.counter "allocation.claims_made"
let m_outstanding = Metrics.gauge "allocation.outstanding_blocks"
let m_utilization = Metrics.gauge "allocation.utilization"
let m_converged = Metrics.gauge "allocation.top_converged_day"

let total_size claims = List.fold_left (fun acc c -> acc + Prefix.size c.prefix) 0 claims

let total_used claims = List.fold_left (fun acc c -> acc + c.used) 0 claims

let top_of d = match d.level with Top _ -> d | Child top -> top

let claim_covering top prefix =
  List.find_opt (fun c -> Prefix.subsumes c.prefix prefix) top.claims

let note_used top prefix delta =
  match claim_covering top prefix with
  | Some cover -> cover.used <- cover.used + delta
  | None -> ()

(* A child claim may not outlive its covering parent range: once that
   range is deactivated the child claim drains instead of renewing. *)
let may_renew d holder =
  holder.active
  &&
  match d.level with
  | Top _ -> true
  | Child top -> (
      match claim_covering top holder.prefix with Some cover -> cover.active | None -> false)

(* What happened to one of a domain's claims, as its level sees it. *)
type change = Gained | Doubled | Retired | Released

(* One claim lifecycle for both levels.  Each step changes the claim
   and its domain's registration, then [feed]s the change to what the
   claimed space feeds; a child's growth may grow its top in turn, so
   the steps form one recursive group.

   Lifetime machinery (§4.3.1): a claim still in use is renewed at
   expiry while [may_renew] holds, else it drains and is re-checked one
   lifetime later; an unused claim is released. *)
let rec start_lifetime sim d holder =
  holder.expiry <-
    Engine.event ~label:"alloc.claim_expiry" (fun () ->
        if holder.alive then begin
          if holder.used > 0 && may_renew d holder then begin
            Engine.arm_lane sim.engine sim.claim_lane holder.expiry;
            right_size sim d
          end
          else if holder.used > 0 then begin
            holder.active <- false;
            Engine.arm_lane sim.engine sim.claim_lane holder.expiry
          end
          else release sim d holder
        end);
  Engine.arm_lane sim.engine sim.claim_lane holder.expiry

(* For a top, the covers of its children's arena, the total claimed
   from 224/4 and the engine's convergence watermark (the set of
   globally advertised prefixes changed); for a child, the [used] of
   its top's covering claim, and on growth the top's pressure check.
   [prefix] is the claim's prefix before the change. *)
and feed sim d change prefix =
  let size = Prefix.size prefix in
  match d.level with
  | Top children -> (
      Engine.note_activity sim.engine;
      match change with
      | Gained ->
          Address_space.add_cover children prefix;
          sim.claimed_top <- sim.claimed_top + size
      | Doubled ->
          Address_space.remove_cover children prefix;
          Address_space.add_cover children (Prefix.double prefix);
          sim.claimed_top <- sim.claimed_top + size
      | Retired ->
          (* Children may no longer place or grow claims inside a
             draining range; their claims within it lapse at their own
             expiry. *)
          Address_space.remove_cover children prefix
      | Released ->
          Address_space.remove_cover children prefix;
          sim.claimed_top <- sim.claimed_top - size)
  | Child top -> (
      match change with
      | Gained | Doubled ->
          note_used top prefix size;
          pressure_check sim top
      | Retired -> ()
      | Released -> note_used top prefix (-size))

and add_claim sim d prefix =
  Address_space.register d.arena ~owner:d.owner prefix;
  let holder = { prefix; active = true; used = 0; alive = true; expiry = unarmed } in
  d.claims <- holder :: d.claims;
  sim.claims_made <- sim.claims_made + 1;
  Metrics.incr m_claims_made;
  start_lifetime sim d holder;
  feed sim d Gained prefix;
  holder

(* The doubled claim gains the size of its old prefix. *)
and double sim d holder =
  let old = holder.prefix in
  let doubled = Prefix.double old in
  Address_space.unregister d.arena old;
  Address_space.register d.arena ~owner:d.owner doubled;
  sim.claims_made <- sim.claims_made + 1;
  Metrics.incr m_claims_made;
  holder.prefix <- doubled;
  feed sim d Doubled old

and deactivate sim d holder =
  if holder.active then begin
    holder.active <- false;
    feed sim d Retired holder.prefix
  end

and release sim d holder =
  holder.alive <- false;
  Address_space.unregister d.arena holder.prefix;
  d.claims <- List.filter (fun c -> c != holder) d.claims;
  feed sim d Released holder.prefix

and retire_others sim d fresh =
  List.iter (fun c -> if c != fresh then deactivate sim d c) d.claims

and claim_fresh sim d len =
  match
    Address_space.choose_claim_placed d.arena ~rng:d.rng ~want_len:len ~placement:sim.p.placement
  with
  | Some prefix -> Some (add_claim sim d prefix)
  | None -> None

(* Renewal-time adaptation (§4.3.3: ranges "have to be given up once the
   lifetime expires unless explicitly renewed.  This helps us adapt
   continually to usage patterns"): a domain whose active space is badly
   under-used at renewal consolidates down to a right-sized block. *)
and right_size sim d =
  let active = List.filter (fun c -> c.active) d.claims in
  let size = total_size active in
  let used = total_used active in
  let threshold = sim.p.policy.Claim_policy.threshold in
  if used > 0 && size > 0 && float_of_int used < 0.5 *. threshold *. float_of_int size then begin
    let len = Prefix.mask_for_count used in
    if 1 lsl (32 - len) < size then
      match claim_fresh sim d len with Some fresh -> retire_others sim d fresh | None -> ()
  end

(* Find room for [need] more addresses in [d]'s claims, claiming or
   growing as the policy decides.  [force] (a top asked to grow because
   a child failed on fragmentation, so raw capacity exists but no usable
   contiguous block) skips the Assign short-circuit.  [None] only when
   even the escalation failed. *)
and satisfy sim d ~need ~force ~attempts =
  if attempts <= 0 then None
  else
    match Policy.decide ~params:sim.p.policy ~space:d.arena ~claims:d.claims ~need with
    | Claim_policy.Assign holder when not force -> Some holder
    | Claim_policy.Assign _ | Claim_policy.Blocked -> no_room sim d ~need ~attempts
    | Claim_policy.Double holder ->
        double sim d holder;
        Some holder
    | Claim_policy.Claim_new len -> place sim d len ~need ~attempts
    | Claim_policy.Consolidate len -> consolidate sim d len ~need ~attempts

and consolidate sim d len ~need ~attempts =
  match place sim d len ~need ~attempts with
  | Some fresh ->
      retire_others sim d fresh;
      Some fresh
  | None -> None

(* Claim a fresh /[len]; a child whose arena has no room grows its top
   and retries, a top has nothing above 224/4. *)
and place sim d len ~need ~attempts =
  match claim_fresh sim d len with
  | Some _ as fresh -> fresh
  | None -> (
      match d.level with
      | Top _ -> None
      | Child top -> escalate sim d top ~grow:(1 lsl (32 - len)) ~need ~attempts)

(* The policy found no way to grow [d] in its arena.  A child grows its
   top by its whole usage plus the need and retries.  A top's growth
   must still respect the prefix budget: at the limit it consolidates
   into one block big enough for everything instead of littering 224/4
   with per-incident slivers. *)
and no_room sim d ~need ~attempts =
  let used = total_used d.claims in
  match d.level with
  | Child top -> escalate sim d top ~grow:(need + used) ~need ~attempts
  | Top _ ->
      let active = List.filter (fun c -> c.active) d.claims in
      if List.length active < sim.p.policy.Claim_policy.max_prefixes then
        claim_fresh sim d (Prefix.mask_for_count need)
      else consolidate sim d (Prefix.mask_for_count (used + need)) ~need ~attempts

and escalate sim d top ~grow ~need ~attempts =
  if grow_top sim top ~need:grow ~force:true then
    satisfy sim d ~need ~force:false ~attempts:(attempts - 1)
  else None

(* Grow a top's space by [need] addresses.  The effective need is never
   below what restores the occupancy target, so fragmentation-forced
   claims do not litter 224/4 with slivers. *)
and grow_top sim top ~need ~force =
  let threshold = sim.p.policy.Claim_policy.threshold in
  let total = total_size top.claims and used = total_used top.claims in
  let to_target =
    max 0 (int_of_float (ceil (float_of_int (used + need) /. threshold)) - total)
  in
  satisfy sim top ~need:(max need to_target) ~force ~attempts:1 <> None

(* Keep the parent ahead of its children's demand (§4.1). *)
and pressure_check sim top =
  let total = total_size top.claims in
  let used = total_used top.claims in
  if total = 0 then ignore (grow_top sim top ~need:Demand.block_size ~force:false)
  else begin
    let threshold = sim.p.policy.Claim_policy.threshold in
    if float_of_int used > threshold *. float_of_int total then begin
      let target = int_of_float (ceil (float_of_int used /. threshold)) in
      ignore (grow_top sim top ~need:(max Demand.block_size (target - total)) ~force:false)
    end
  end

(* --- a child's demand --------------------------------------------- *)

(* An inactive claim that just drained is recycled immediately — the
   paper's "will timeout when the currently allocated addresses
   timeout". *)
let expire_block sim child holder =
  holder.used <- holder.used - Demand.block_size;
  sim.demanded <- sim.demanded - Demand.block_size;
  sim.blocks <- sim.blocks - 1;
  if holder.alive && (not holder.active) && holder.used = 0 then release sim child.dom holder

(* Every block lives [Demand.block_lifetime] and a child's grants come at
   nondecreasing times, so its blocks expire in grant order.  Each
   grant arms [c_block_expiry] once (one seq each, in grant order), and
   each occurrence retires the ring's head: the block granted by the
   arm it belongs to. *)
let grant_block sim child holder =
  holder.used <- holder.used + Demand.block_size;
  sim.demanded <- sim.demanded + Demand.block_size;
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

(* The draw order is fixed: [satisfy] may draw placements from the
   child's rng, then the delay to its next request is drawn. *)
let request sim child =
  sim.requests <- sim.requests + 1;
  Metrics.incr m_requests;
  (match satisfy sim child.dom ~need:Demand.block_size ~force:false ~attempts:3 with
  | Some holder -> grant_block sim child holder
  | None ->
      sim.failed <- sim.failed + 1;
      Metrics.incr m_failed);
  Engine.arm_after sim.engine child.c_request
    (Demand.request_gap child.dom.rng)

let start_requests sim child =
  child.c_request <- Engine.event ~label:"alloc.request" (fun () -> request sim child);
  child.c_block_expiry <-
    Engine.event ~label:"alloc.block_expiry" (fun () -> expire_oldest_block sim child);
  Engine.arm_after sim.engine child.c_request
    (Demand.request_gap child.dom.rng)

(* --- invariants ------------------------------------------------------ *)

(* Every domain's listed claims, grouped by the arena they register in:
   the tops' in 224/4, then each top's children's in its arena. *)
let claims_by_arena sim =
  let groups = Array.make (Array.length sim.top_doms + 1) [] in
  let add d =
    let g = match d.level with Top _ -> 0 | Child top -> top.owner + 1 in
    groups.(g) <- List.fold_left (fun acc c -> (d, c) :: acc) groups.(g) d.claims
  in
  Array.iter add sim.top_doms;
  Array.iter (fun child -> add child.dom) sim.child_doms;
  groups

(* The guarantee MASC's collision resolution exists to provide (§4),
   checked live against the synchronous registries: no two domains
   claiming from one arena hold overlapping live claims. *)
let overlap_violations sim () =
  let rec pairs acc = function
    | [] -> acc
    | (a, ca) :: rest ->
        let acc =
          List.fold_left
            (fun acc (b, cb) ->
              if a.owner <> b.owner && Prefix.overlaps ca.prefix cb.prefix then
                ( Printf.sprintf "domains %d and %d claimed overlapping ranges %s and %s" a.owner
                    b.owner (Prefix.to_string ca.prefix) (Prefix.to_string cb.prefix),
                  None )
                :: acc
              else acc)
            acc rest
        in
        pairs acc rest
  in
  Array.fold_left pairs [] (claims_by_arena sim)

(* What lets the policy read a domain's claim list unfiltered: every
   claim listed is alive and registered to that domain in its arena —
   a claim leaves its list in the handler that kills it. *)
let live_list_violations sim () =
  let check acc (d, c) =
    if c.alive && Address_space.owner_of d.arena c.prefix = Some d.owner then acc
    else
      ( Printf.sprintf "%s %d lists %s claim %s"
          (match d.level with Top _ -> "top" | Child _ -> "child")
          d.owner
          (if c.alive then "unregistered" else "dead")
          (Prefix.to_string c.prefix),
        None )
      :: acc
  in
  Array.fold_left (List.fold_left check) [] (claims_by_arena sim)

(* --- sampling ------------------------------------------------------- *)

let take_sample sim =
  let p = sim.p in
  let global_prefixes =
    Array.fold_left (fun acc top -> acc + List.length top.claims) 0 sim.top_doms
  in
  (* Per-top counts of children prefixes. *)
  let per_top = Array.make p.tops 0 in
  Array.iter
    (fun { dom; _ } ->
      let top = (top_of dom).owner in
      per_top.(top) <- per_top.(top) + List.length dom.claims)
    sim.child_doms;
  let child_prefix_total = Array.fold_left ( + ) 0 per_top in
  let sum_grib = ref 0 and max_grib = ref 0 in
  Array.iter
    (fun top ->
      let g = global_prefixes + per_top.(top.owner) in
      sum_grib := !sum_grib + g;
      if g > !max_grib then max_grib := g)
    sim.top_doms;
  Array.iter
    (fun { dom; _ } ->
      let own = List.length dom.claims in
      let g = global_prefixes + per_top.((top_of dom).owner) - own in
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
  (* Each top's children claim from an arena its active claims cover. *)
  let arenas = Array.init p.tops (fun _ -> Address_space.create ()) in
  let top_doms =
    Array.init p.tops (fun i ->
        { owner = i; arena = global; claims = []; rng = Rng.split rng; level = Top arenas.(i) })
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
             dom =
               {
                 owner = p.tops + i;
                 arena = arenas.(top);
                 claims = [];
                 rng = Rng.split rng;
                 level = Child top_doms.(top);
               };
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
      block_lane = Engine.lane engine ~delay:Demand.block_lifetime;
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
      violations = 0;
      invariants = Invariant.create ();
    }
  in
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
      (Engine.schedule_after ~label:"alloc.sample" engine (Time.days 1.0) (fun () ->
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
          (Option.map Time.to_days (Engine.converged_at engine))
      in
      Metrics.set m_converged top_converged_day;
      {
        samples = Array.of_list (List.rev sim.samples_rev);
        failed_requests = sim.failed;
        total_requests = sim.requests;
        claims_made = sim.claims_made;
        final_tops = Array.map (fun top -> snapshot top.claims) sim.top_doms;
        final_children = Array.map (fun child -> snapshot child.dom.claims) sim.child_doms;
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
let run_many ps =
  List.iter
    (fun p ->
      if p.telemetry <> None then invalid_arg "Allocation_sim.run_many: telemetry not supported")
    ps;
  let outs = Par.map (fun p -> Obs.capture (fun () -> run p)) ps in
  List.map
    (fun (r, shard) ->
      Obs.merge shard;
      r)
    outs
