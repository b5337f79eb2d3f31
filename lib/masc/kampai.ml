type block = { value : int; mask : int }

let block_of_prefix p =
  if not (Prefix.subsumes Prefix.class_d p) then
    invalid_arg "Kampai.block_of_prefix: outside 224/4";
  let len = Prefix.len p in
  let mask = if len = 0 then 0 else 0xFFFFFFFF lsl (32 - len) land 0xFFFFFFFF in
  { value = Prefix.base p; mask }

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x lsr 1) (acc + (x land 1)) in
  loop x 0

let size b = 1 lsl (32 - popcount b.mask)

let disjoint a b = (a.value lxor b.value) land a.mask land b.mask <> 0

let grow b ~others =
  let rec try_bit i =
    if i > 27 then None
    else begin
      let bit = 1 lsl i in
      if b.mask land bit = 0 then try_bit (i + 1)
      else begin
        let candidate = { value = b.value land lnot bit; mask = b.mask land lnot bit } in
        if List.for_all (disjoint candidate) others then Some candidate else try_bit (i + 1)
      end
    end
  in
  try_bit 0

let shrink b =
  let rec find_clear i =
    if i > 27 then None
    else begin
      let bit = 1 lsl i in
      if b.mask land bit = 0 then Some bit else find_clear (i + 1)
    end
  in
  match find_clear 0 with
  | None -> None
  | Some bit -> Some { b with mask = b.mask lor bit }

module Sim = struct
  type params = {
    domains : int;
    horizon : Time.t;
    seed : int;
  }

  let default_params =
    {
      domains = 100;
      horizon = Time.days 400.0;
      seed = 1998;
    }

  type side = {
    utilization : float;
    table_entries : float;
    failures : int;
    renumberings : int;
  }

  type result = { contiguous : side; kampai : side }

  (* ----- Kampai side: one growable block per domain ----------------- *)

  type kdom = { mutable blk : block; mutable kused : int }

  let run_kampai p =
    let engine = Engine.create () in
    let rng = Rng.create p.seed in
    let doms =
      Array.init p.domains (fun i ->
          {
            blk =
              block_of_prefix
                (Prefix.make (0xE0000000 lor (i lsl 8)) 24);
            kused = 0;
          })
    in
    let others i =
      Array.to_list (Array.mapi (fun j d -> if j = i then None else Some d.blk) doms)
      |> List.filter_map Fun.id
    in
    let failures = ref 0 in
    let util_acc = Stats.create () and entries_acc = Stats.create () in
    let rec demand_loop i =
      let d = doms.(i) in
      ignore
        (Engine.schedule_after ~label:"kampai.request" engine
           (Demand.request_gap rng)
           (fun () ->
             let rec ensure () =
               if d.kused + Demand.block_size <= size d.blk then true
               else
                 match grow d.blk ~others:(others i) with
                 | Some bigger ->
                     d.blk <- bigger;
                     ensure ()
                 | None -> false
             in
             if ensure () then begin
               d.kused <- d.kused + Demand.block_size;
               ignore
                 (Engine.schedule_after ~label:"kampai.block_expiry" engine Demand.block_lifetime
                    (fun () ->
                      d.kused <- d.kused - Demand.block_size;
                      (* Release space eagerly: because regrowth can
                         never be blocked by a neighbour's buddy, Kampai
                         affords shrinking whenever the upper half is
                         unused — the fragmentation-free growth is the
                         scheme's whole advantage. *)
                      let rec maybe_shrink () =
                        if d.kused <= size d.blk / 2 && size d.blk > Demand.block_size then begin
                          match shrink d.blk with
                          | Some smaller when d.kused <= size smaller ->
                              d.blk <- smaller;
                              maybe_shrink ()
                          | Some _ | None -> ()
                        end
                      in
                      maybe_shrink ()))
             end
             else incr failures;
             demand_loop i))
    in
    for i = 0 to p.domains - 1 do
      demand_loop i
    done;
    let sample () =
      let used = Array.fold_left (fun acc d -> acc + d.kused) 0 doms in
      let allocated = Array.fold_left (fun acc d -> acc + size d.blk) 0 doms in
      if Engine.now engine >= p.horizon /. 2.0 then begin
        Stats.add util_acc (float_of_int used /. float_of_int allocated);
        Stats.add entries_acc (float_of_int p.domains)
      end
    in
    let rec sampling () =
      ignore
        (Engine.schedule_after ~label:"kampai.sample" engine (Time.days 1.0) (fun () ->
             sample ();
             if Engine.now engine < p.horizon then sampling ()))
    in
    sampling ();
    Engine.run ~until:p.horizon engine;
    {
      utilization = Stats.mean util_acc;
      table_entries = Stats.mean entries_acc;
      failures = !failures;
      renumberings = 0;
    }

  (* ----- Contiguous side: §4.3.3 prefixes from one shared arena ------ *)

  type cclaim = { mutable cpfx : Prefix.t; mutable cused : int; mutable cactive : bool }

  type cdom = { cid : int; mutable claims : cclaim list }

  module Policy = Claim_policy.Make (struct
    type t = cclaim

    let prefix c = c.cpfx
    let active c = c.cactive
    let used c = c.cused
  end)

  let run_contiguous p =
    let engine = Engine.create () in
    let rng = Rng.create p.seed in
    let arena = Address_space.create () in
    Address_space.add_cover arena Prefix.class_d;
    let doms = Array.init p.domains (fun cid -> { cid; claims = [] }) in
    let failures = ref 0 and renumberings = ref 0 in
    let util_acc = Stats.create () and entries_acc = Stats.create () in
    let policy = Claim_policy.default_params in
    let add_claim d prefix =
      Address_space.register arena ~owner:d.cid prefix;
      let c = { cpfx = prefix; cused = 0; cactive = true } in
      d.claims <- c :: d.claims;
      c
    in
    let release_if_empty d c =
      if c.cused = 0 && not c.cactive then begin
        Address_space.unregister arena c.cpfx;
        d.claims <- List.filter (fun x -> x != c) d.claims
      end
    in
    let rec satisfy d attempts =
      if attempts = 0 then None
      else
        match
          Policy.decide ~params:policy ~space:arena ~claims:d.claims ~need:Demand.block_size
        with
        | Claim_policy.Assign c -> Some c
        | Claim_policy.Double c ->
            Address_space.unregister arena c.cpfx;
            let doubled = Prefix.double c.cpfx in
            Address_space.register arena ~owner:d.cid doubled;
            c.cpfx <- doubled;
            Some c
        | Claim_policy.Claim_new len -> (
            match Address_space.choose_claim arena ~rng ~want_len:len with
            | Some pre -> Some (add_claim d pre)
            | None -> satisfy d (attempts - 1))
        | Claim_policy.Consolidate len -> (
            match Address_space.choose_claim arena ~rng ~want_len:len with
            | Some pre ->
                let fresh = add_claim d pre in
                incr renumberings;
                List.iter
                  (fun c ->
                    if c != fresh then begin
                      c.cactive <- false;
                      release_if_empty d c
                    end)
                  d.claims;
                Some fresh
            | None -> satisfy d (attempts - 1))
        | Claim_policy.Blocked -> None
    in
    let rec demand_loop i =
      let d = doms.(i) in
      ignore
        (Engine.schedule_after ~label:"kampai.request" engine
           (Demand.request_gap rng)
           (fun () ->
             (match satisfy d 3 with
             | Some c ->
                 c.cused <- c.cused + Demand.block_size;
                 ignore
                   (Engine.schedule_after ~label:"kampai.block_expiry" engine Demand.block_lifetime
                      (fun () ->
                        c.cused <- c.cused - Demand.block_size;
                        release_if_empty d c))
             | None -> incr failures);
             demand_loop i))
    in
    for i = 0 to p.domains - 1 do
      demand_loop i
    done;
    let sample () =
      if Engine.now engine >= p.horizon /. 2.0 then begin
        let used = ref 0 and allocated = ref 0 and entries = ref 0 in
        Array.iter
          (fun d ->
            List.iter
              (fun c ->
                used := !used + c.cused;
                allocated := !allocated + Prefix.size c.cpfx;
                incr entries)
              d.claims)
          doms;
        if !allocated > 0 then
          Stats.add util_acc (float_of_int !used /. float_of_int !allocated);
        Stats.add entries_acc (float_of_int !entries)
      end
    in
    let rec sampling () =
      ignore
        (Engine.schedule_after ~label:"kampai.sample" engine (Time.days 1.0) (fun () ->
             sample ();
             if Engine.now engine < p.horizon then sampling ()))
    in
    sampling ();
    Engine.run ~until:p.horizon engine;
    {
      utilization = Stats.mean util_acc;
      table_entries = Stats.mean entries_acc;
      failures = !failures;
      renumberings = !renumberings;
    }

  let run p = { contiguous = run_contiguous p; kampai = run_kampai p }
end
