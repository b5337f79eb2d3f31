(* Tests for mcast_masc: the allocation arena, the claim policy, the
   distributed claim-collide protocol, the MAAS, and the Figure-2
   allocation simulator. *)

let check = Alcotest.check

let p = Prefix.of_string

let prefix_testable = Alcotest.testable Prefix.pp Prefix.equal

(* --- Address_space ---------------------------------------------------- *)

let test_space_cover_and_claims () =
  let s = Address_space.create () in
  Address_space.add_cover s (p "224.0.0.0/16");
  check Alcotest.int "total" 65536 (Address_space.total_addresses s);
  Address_space.register s ~owner:1 (p "224.0.0.0/24");
  Address_space.register s ~owner:2 (p "224.0.1.0/24");
  check Alcotest.int "claims" 2 (List.length (Address_space.claims s));
  check (Alcotest.option Alcotest.int) "owner" (Some 1) (Address_space.owner_of s (p "224.0.0.0/24"));
  check Alcotest.int "free" (65536 - 512) (Address_space.free_addresses s);
  check (Alcotest.list prefix_testable) "claims of 1" [ p "224.0.0.0/24" ]
    (List.filter_map (fun (q, o) -> if o = 1 then Some q else None) (Address_space.claims s));
  Address_space.unregister s (p "224.0.0.0/24");
  check Alcotest.int "after unregister" 1 (List.length (Address_space.claims s))

let test_space_register_duplicate_rejected () =
  let s = Address_space.create () in
  Address_space.add_cover s (p "224.0.0.0/16");
  Address_space.register s ~owner:1 (p "224.0.0.0/24");
  Alcotest.check_raises "duplicate claim"
    (Invalid_argument "Address_space.register: prefix already claimed") (fun () ->
      Address_space.register s ~owner:2 (p "224.0.0.0/24"))

let test_space_is_free () =
  let s = Address_space.create () in
  Address_space.add_cover s (p "224.0.0.0/16");
  Address_space.register s ~owner:1 (p "224.0.0.0/24");
  check Alcotest.bool "conflicting" false (Address_space.is_free s (p "224.0.0.0/25"));
  check Alcotest.bool "free" true (Address_space.is_free s (p "224.0.1.0/24"));
  check Alcotest.bool "outside covers" false (Address_space.is_free s (p "225.0.0.0/24"))

let test_space_choose_claim_first_subprefix () =
  let s = Address_space.create () in
  Address_space.add_cover s (p "224.0.0.0/16");
  Address_space.register s ~owner:1 (p "224.0.0.0/17");
  (* Only the upper /17 is free: its first /24 must be chosen. *)
  check (Alcotest.option prefix_testable) "first subprefix rule" (Some (p "224.0.128.0/24"))
    (Address_space.choose_claim s ~rng:(Rng.create 1) ~want_len:24);
  check (Alcotest.option prefix_testable) "no room for /16" None
    (Address_space.choose_claim s ~rng:(Rng.create 1) ~want_len:16)

let test_space_choose_claim_random_placement () =
  let s = Address_space.create () in
  Address_space.add_cover s (p "224.0.0.0/20");
  let rng = Rng.create 7 in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 64 do
    match Address_space.choose_claim_placed s ~rng ~want_len:24 ~placement:`Random with
    | Some c -> Hashtbl.replace seen c ()
    | None -> Alcotest.fail "expected a candidate"
  done;
  check Alcotest.bool "random placement varies" true (Hashtbl.length seen > 3)

let test_space_can_double () =
  let s = Address_space.create () in
  Address_space.add_cover s (p "224.0.0.0/16");
  Address_space.register s ~owner:1 (p "224.0.0.0/24");
  check Alcotest.bool "buddy free" true (Address_space.can_double s (p "224.0.0.0/24"));
  Address_space.register s ~owner:2 (p "224.0.1.0/24");
  check Alcotest.bool "buddy taken" false (Address_space.can_double s (p "224.0.0.0/24"));
  (* Doubling beyond the cover is impossible. *)
  let s2 = Address_space.create () in
  Address_space.add_cover s2 (p "224.0.0.0/24");
  Address_space.register s2 ~owner:1 (p "224.0.0.0/24");
  check Alcotest.bool "no room past cover" false (Address_space.can_double s2 (p "224.0.0.0/24"))

(* --- Claim_policy ------------------------------------------------------ *)

let space_16 claims =
  let s = Address_space.create () in
  Address_space.add_cover s (p "224.0.0.0/16");
  List.iter (fun (o, c) -> Address_space.register s ~owner:o c) claims;
  s

let params = Claim_policy.default_params

let test_policy_assign_when_room () =
  let s = space_16 [ (1, p "224.0.0.0/24") ] in
  let claims = [ { Claim_policy.prefix = p "224.0.0.0/24"; active = true; used = 100 } ] in
  match Claim_policy.decide ~params ~space:s ~claims ~need:100 with
  | Claim_policy.Assign c ->
      check prefix_testable "assign in place" (p "224.0.0.0/24") c.Claim_policy.prefix
  | _ -> Alcotest.fail "expected Assign"

let test_policy_double_when_dense () =
  (* Full /24, demand for one more block: doubling keeps util at 100%. *)
  let s = space_16 [ (1, p "224.0.0.0/24") ] in
  let claims = [ { Claim_policy.prefix = p "224.0.0.0/24"; active = true; used = 256 } ] in
  match Claim_policy.decide ~params ~space:s ~claims ~need:256 with
  | Claim_policy.Double c ->
      check prefix_testable "double the /24" (p "224.0.0.0/24") c.Claim_policy.prefix
  | _ -> Alcotest.fail "expected Double"

let test_policy_claim_new_when_doubling_too_wasteful () =
  (* A /22 with little usage: doubling it would leave utilization under
     75 %, so claim a small separate prefix instead. *)
  let s = space_16 [ (1, p "224.0.0.0/22") ] in
  let claims = [ { Claim_policy.prefix = p "224.0.0.0/22"; active = true; used = 1024 } ] in
  (* used = full 1024; doubling gives util (1024+256)/2048 = 0.625 < 0.75 *)
  match Claim_policy.decide ~params ~space:s ~claims ~need:256 with
  | Claim_policy.Claim_new len -> check Alcotest.int "just-sufficient /24" 24 len
  | _ -> Alcotest.fail "expected Claim_new"

let test_policy_double_at_limit_even_below_threshold () =
  (* At the two-prefix limit with a free buddy: double anyway. *)
  let s = space_16 [ (1, p "224.0.0.0/22"); (1, p "224.0.16.0/24") ] in
  let claims =
    [
      { Claim_policy.prefix = p "224.0.0.0/22"; active = true; used = 1024 };
      { Claim_policy.prefix = p "224.0.16.0/24"; active = true; used = 256 };
    ]
  in
  match Claim_policy.decide ~params ~space:s ~claims ~need:256 with
  | Claim_policy.Double c ->
      check prefix_testable "double smallest" (p "224.0.16.0/24") c.Claim_policy.prefix
  | _ -> Alcotest.fail "expected Double"

let test_policy_consolidate_when_stuck () =
  (* Two active prefixes, both with occupied buddies: consolidate. *)
  let s =
    space_16
      [
        (1, p "224.0.0.0/24");
        (9, p "224.0.1.0/24");  (* buddy of the first, another owner *)
        (1, p "224.0.2.0/24");
        (9, p "224.0.3.0/24");  (* buddy of the third *)
      ]
  in
  let claims =
    [
      { Claim_policy.prefix = p "224.0.0.0/24"; active = true; used = 256 };
      { Claim_policy.prefix = p "224.0.2.0/24"; active = true; used = 256 };
    ]
  in
  match Claim_policy.decide ~params ~space:s ~claims ~need:256 with
  | Claim_policy.Consolidate len ->
      check Alcotest.int "sized for total usage" (Prefix.mask_for_count (256 + 256 + 256)) len
  | _ -> Alcotest.fail "expected Consolidate"

let test_policy_blocked () =
  (* Space too small for the consolidation target. *)
  let s = Address_space.create () in
  Address_space.add_cover s (p "224.0.0.0/24");
  Address_space.register s ~owner:1 (p "224.0.0.0/25");
  Address_space.register s ~owner:9 (p "224.0.0.128/25");
  let claims = [ { Claim_policy.prefix = p "224.0.0.0/25"; active = true; used = 128 } ] in
  (* need 256: no fitting prefix, no doubling (buddy taken), a second
     claim of /24 cannot fit, consolidation to /23 exceeds the cover. *)
  let d =
    Claim_policy.decide
      ~params:{ params with Claim_policy.max_prefixes = 1 }
      ~space:s ~claims ~need:256
  in
  (match d with
  | Claim_policy.Blocked -> ()
  | _ -> Alcotest.fail "expected Blocked")

let test_policy_rejects_bad_need () =
  let s = space_16 [] in
  Alcotest.check_raises "non-positive need"
    (Invalid_argument "Claim_policy.decide: non-positive need") (fun () ->
      ignore (Claim_policy.decide ~params ~space:s ~claims:[] ~need:0))

let test_policy_inactive_not_assigned () =
  let s = space_16 [ (1, p "224.0.0.0/24") ] in
  let claims = [ { Claim_policy.prefix = p "224.0.0.0/24"; active = false; used = 0 } ] in
  match Claim_policy.decide ~params ~space:s ~claims ~need:256 with
  | Claim_policy.Assign _ -> Alcotest.fail "must not assign into an inactive prefix"
  | Claim_policy.Double _ -> Alcotest.fail "must not double an inactive prefix"
  | Claim_policy.Claim_new _ | Claim_policy.Consolidate _ | Claim_policy.Blocked -> ()

(* --- Masc_node / Masc_network ----------------------------------------- *)

let quick_cfg =
  {
    Masc_node.claim_wait = Time.hours 1.0;
    claim_lifetime = Time.days 30.0;
    renew_margin = Time.hours 12.0;
  }

let flat_hierarchy ids engine rng =
  (* One top (first id), the rest its children. *)
  let top = List.hd ids in
  let parent_of id = if id = top then None else Some top in
  Masc_network.create ~engine ~rng ~config:quick_cfg ~parent_of ~ids ()

let test_node_basic_claim_flow () =
  let engine = Engine.create () in
  let net = flat_hierarchy [ 0; 1; 2 ] engine (Rng.create 42) in
  Masc_network.start net;
  Masc_node.request_space (Masc_network.node net 1) ~need:256;
  Engine.run ~until:(Time.days 1.0) engine;
  let ranges = Masc_node.acquired_ranges (Masc_network.node net 1) in
  check Alcotest.int "child acquired one range" 1 (List.length ranges);
  let r = List.hd ranges in
  check Alcotest.bool "range holds 256 addresses" true
    (Prefix.size r.Masc_node.claim_prefix >= 256);
  (* The parent acquired covering space. *)
  let parent_ranges = Masc_node.bgp_ranges (Masc_network.node net 0) in
  check Alcotest.bool "parent covers child" true
    (List.exists
       (fun (c : Masc_node.own_claim) ->
         Prefix.subsumes c.Masc_node.claim_prefix r.Masc_node.claim_prefix)
       parent_ranges)

let test_node_sibling_claims_disjoint () =
  let engine = Engine.create () in
  let net = flat_hierarchy [ 0; 1; 2; 3; 4 ] engine (Rng.create 7) in
  Masc_network.start net;
  List.iter
    (fun id -> Masc_node.request_space (Masc_network.node net id) ~need:256)
    [ 1; 2; 3; 4 ];
  Engine.run ~until:(Time.days 2.0) engine;
  let all_ranges =
    List.concat_map
      (fun id ->
        List.map
          (fun (c : Masc_node.own_claim) -> c.Masc_node.claim_prefix)
          (Masc_node.acquired_ranges (Masc_network.node net id)))
      [ 1; 2; 3; 4 ]
  in
  check Alcotest.int "everyone acquired" 4 (List.length all_ranges);
  let rec disjoint = function
    | [] -> true
    | x :: rest -> (not (List.exists (Prefix.overlaps x) rest)) && disjoint rest
  in
  check Alcotest.bool "claims pairwise disjoint" true (disjoint all_ranges)

let test_top_level_claims_from_class_d () =
  let engine = Engine.create () in
  (* Three top-level domains, no parents. *)
  let net =
    Masc_network.create ~engine ~rng:(Rng.create 5) ~config:quick_cfg
      ~parent_of:(fun _ -> None)
      ~ids:[ 0; 1; 2 ] ()
  in
  Masc_network.start net;
  List.iter (fun id -> Masc_node.request_space (Masc_network.node net id) ~need:1024) [ 0; 1; 2 ];
  Engine.run ~until:(Time.days 1.0) engine;
  List.iter
    (fun id ->
      let ranges = Masc_node.acquired_ranges (Masc_network.node net id) in
      check Alcotest.bool (Printf.sprintf "top %d acquired" id) true (ranges <> []);
      List.iter
        (fun (c : Masc_node.own_claim) ->
          check Alcotest.bool "inside 224/4" true
            (Prefix.subsumes Prefix.class_d c.Masc_node.claim_prefix))
        ranges)
    [ 0; 1; 2 ]

let test_collision_resolved_by_lower_id () =
  (* Force a deterministic collision: partition two siblings from each
     other is impossible (they share only the parent relay), so instead
     rely on the claim-wait overlap: both claim before hearing each
     other.  Sibling claims relayed via the parent arrive after the
     transport delay; with simultaneous requests both pick the same
     first sub-prefix and the lower id must win. *)
  let engine = Engine.create () in
  let net = flat_hierarchy [ 0; 1; 2 ] engine (Rng.create 1) in
  Masc_network.start net;
  (* Give the parent space first so both children see the same arena. *)
  Masc_node.request_space (Masc_network.node net 1) ~need:256;
  Engine.run ~until:(Time.days 1.0) engine;
  let before = Masc_network.total_collisions net in
  (* Release pressure: both children now claim simultaneously from the
     same parent space. *)
  Masc_node.request_space (Masc_network.node net 2) ~need:256;
  Masc_node.request_space (Masc_network.node net 1) ~need:1024;
  Engine.run ~until:(Time.days 2.0) engine;
  ignore before;
  (* Regardless of whether a collision occurred, final claims must be
     disjoint and all demands satisfied. *)
  let r1 = Masc_node.acquired_ranges (Masc_network.node net 1) in
  let r2 = Masc_node.acquired_ranges (Masc_network.node net 2) in
  check Alcotest.bool "both have space" true (r1 <> [] && r2 <> []);
  List.iter
    (fun (a : Masc_node.own_claim) ->
      List.iter
        (fun (b : Masc_node.own_claim) ->
          check Alcotest.bool "disjoint across siblings" false
            (Prefix.overlaps a.Masc_node.claim_prefix b.Masc_node.claim_prefix))
        r2)
    r1

let test_simultaneous_top_claims_collide_and_recover () =
  let engine = Engine.create () in
  let net =
    Masc_network.create ~engine ~rng:(Rng.create 3) ~config:quick_cfg
      ~parent_of:(fun _ -> None)
      ~ids:[ 0; 1 ] ()
  in
  Masc_network.start net;
  (* Same rng draw order can make both pick the same block; claims are
     announced, so the duel logic must leave exactly disjoint outcomes. *)
  Masc_node.request_space (Masc_network.node net 0) ~need:256;
  Masc_node.request_space (Masc_network.node net 1) ~need:256;
  Engine.run ~until:(Time.days 1.0) engine;
  let r0 = Masc_node.acquired_ranges (Masc_network.node net 0) in
  let r1 = Masc_node.acquired_ranges (Masc_network.node net 1) in
  check Alcotest.bool "both recovered" true (r0 <> [] && r1 <> []);
  List.iter
    (fun (a : Masc_node.own_claim) ->
      List.iter
        (fun (b : Masc_node.own_claim) ->
          check Alcotest.bool "disjoint" false
            (Prefix.overlaps a.Masc_node.claim_prefix b.Masc_node.claim_prefix))
        r1)
    r0

let test_partition_causes_collision_then_heals () =
  (* Two tops partitioned from each other pick overlapping space; after
     the heal, periodic re-announcement (the sweep/renewal path) must
     resolve the conflict deterministically: lower id keeps the range. *)
  let engine = Engine.create () in
  let cfg = { quick_cfg with Masc_node.claim_lifetime = Time.days 2.0; renew_margin = Time.hours 12.0 } in
  let net =
    Masc_network.create ~engine ~rng:(Rng.create 1) ~config:cfg
      ~parent_of:(fun _ -> None)
      ~ids:[ 0; 1 ] ()
  in
  Masc_network.start net;
  Masc_network.partition net 0 1;
  Masc_node.request_space (Masc_network.node net 0) ~need:256;
  Masc_node.request_space (Masc_network.node net 1) ~need:256;
  Engine.run ~until:(Time.days 1.0) engine;
  (* Keep both claims in use so they renew (and re-announce) instead of
     lapsing quietly. *)
  List.iter
    (fun id ->
      let node = Masc_network.node net id in
      List.iter
        (fun (c : Masc_node.own_claim) ->
          Masc_node.note_assigned node c.Masc_node.claim_prefix 10)
        (Masc_node.acquired_ranges node))
    [ 0; 1 ];
  let overlap () =
    List.exists
      (fun (a : Masc_node.own_claim) ->
        List.exists
          (fun (b : Masc_node.own_claim) ->
            Prefix.overlaps a.Masc_node.claim_prefix b.Masc_node.claim_prefix)
          (Masc_node.acquired_ranges (Masc_network.node net 1)))
      (Masc_node.acquired_ranges (Masc_network.node net 0))
  in
  check Alcotest.bool "partition produced overlapping claims" true (overlap ());
  check Alcotest.bool "messages were dropped" true (Masc_network.messages_dropped net > 0);
  Masc_network.heal net 0 1;
  (* Renewal re-announces claims; the duel then fires. *)
  Engine.run ~until:(Time.days 6.0) engine;
  check Alcotest.bool "conflict resolved after heal" false (overlap ());
  check Alcotest.bool "collision was recorded" true (Masc_network.total_collisions net > 0)

let test_claim_expires_without_demand () =
  let engine = Engine.create () in
  let cfg =
    { quick_cfg with Masc_node.claim_lifetime = Time.days 2.0; renew_margin = Time.hours 6.0 }
  in
  let net =
    Masc_network.create ~engine ~rng:(Rng.create 2) ~config:cfg
      ~parent_of:(fun id -> if id = 0 then None else Some 0)
      ~ids:[ 0; 1 ] ()
  in
  Masc_network.start net;
  let node = Masc_network.node net 1 in
  Masc_node.request_space node ~need:256;
  Engine.run ~until:(Time.days 1.0) engine;
  let r = Masc_node.acquired_ranges node in
  check Alcotest.int "acquired" 1 (List.length r);
  (* No addresses were ever assigned: at lifetime end the claim lapses. *)
  Engine.run ~until:(Time.days 6.0) engine;
  check Alcotest.int "expired" 0 (List.length (Masc_node.acquired_ranges node))

let test_claim_renewed_under_use () =
  let engine = Engine.create () in
  let cfg =
    { quick_cfg with Masc_node.claim_lifetime = Time.days 2.0; renew_margin = Time.hours 6.0 }
  in
  let net =
    Masc_network.create ~engine ~rng:(Rng.create 2) ~config:cfg
      ~parent_of:(fun id -> if id = 0 then None else Some 0)
      ~ids:[ 0; 1 ] ()
  in
  Masc_network.start net;
  let node = Masc_network.node net 1 in
  Masc_node.request_space node ~need:256;
  Engine.run ~until:(Time.days 1.0) engine;
  (match Masc_node.acquired_ranges node with
  | [ r ] -> Masc_node.note_assigned node r.Masc_node.claim_prefix 10
  | _ -> Alcotest.fail "expected one range");
  Engine.run ~until:(Time.days 10.0) engine;
  check Alcotest.int "still held under use" 1 (List.length (Masc_node.acquired_ranges node))

let test_three_level_hierarchy_containment () =
  (* Backbone 0 -> regional 1 -> campus 2: a leaf demand must pull
     claims down the whole chain, with containment at every level
     (child ranges inside the parent's ranges) — the recursive structure
     behind the paper's "campus ... regional ... backbone" hierarchy. *)
  let engine = Engine.create () in
  let net =
    Masc_network.create ~engine ~rng:(Rng.create 31) ~config:quick_cfg
      ~parent_of:(function 0 -> None | 1 -> Some 0 | _ -> Some 1)
      ~ids:[ 0; 1; 2 ] ()
  in
  Masc_network.start net;
  Masc_node.request_space (Masc_network.node net 2) ~need:256;
  Engine.run ~until:(Time.days 2.0) engine;
  let up_ranges id =
    List.map
      (fun (c : Masc_node.own_claim) -> c.Masc_node.claim_prefix)
      (Masc_node.bgp_ranges (Masc_network.node net id))
  in
  let leaf = up_ranges 2 and mid = up_ranges 1 and top = up_ranges 0 in
  check Alcotest.bool "leaf acquired" true (leaf <> []);
  check Alcotest.bool "mid acquired" true (mid <> []);
  check Alcotest.bool "top acquired" true (top <> []);
  List.iter
    (fun l ->
      check Alcotest.bool "leaf inside mid" true
        (List.exists (fun m -> Prefix.subsumes m l) mid))
    leaf;
  List.iter
    (fun m ->
      check Alcotest.bool "mid inside top" true
        (List.exists (fun t -> Prefix.subsumes t m) top))
    mid;
  List.iter
    (fun t ->
      check Alcotest.bool "top inside 224/4" true (Prefix.subsumes Prefix.class_d t))
    top

(* --- Maas --------------------------------------------------------------- *)

let maas_setup () =
  let engine = Engine.create () in
  let net = flat_hierarchy [ 0; 1 ] engine (Rng.create 9) in
  Masc_network.start net;
  let node = Masc_network.node net 1 in
  let maas = Maas.create ~engine ~node in
  (engine, net, node, maas)

let test_maas_allocates_after_claim () =
  let engine, _net, _node, maas = maas_setup () in
  (* First allocation fails (no space yet) and triggers a claim. *)
  check Alcotest.bool "initially no space" true (Maas.allocate maas = None);
  Engine.run ~until:(Time.days 1.0) engine;
  match Maas.allocate maas with
  | Some a ->
      check Alcotest.bool "address inside range" true (Prefix.mem a.Maas.address a.Maas.from_range);
      check Alcotest.int "one live" 1 (Maas.in_use maas)
  | None -> Alcotest.fail "expected an address after the claim settles"

let test_maas_unique_addresses_and_release () =
  let engine, _net, _node, maas = maas_setup () in
  ignore (Maas.allocate maas);
  Engine.run ~until:(Time.days 1.0) engine;
  let allocs = List.init 100 (fun _ -> Option.get (Maas.allocate maas)) in
  let tbl = Hashtbl.create 100 in
  List.iter
    (fun (a : Maas.allocation) ->
      check Alcotest.bool "unique" false (Hashtbl.mem tbl a.Maas.address);
      Hashtbl.add tbl a.Maas.address ())
    allocs;
  let first = List.hd allocs in
  Maas.release maas first;
  check Alcotest.int "released" 99 (Maas.in_use maas);
  Alcotest.check_raises "double release"
    (Invalid_argument "Maas.release: address not live (double release?)") (fun () ->
      Maas.release maas first);
  (* Released addresses are reusable. *)
  let again = Option.get (Maas.allocate maas) in
  check Alcotest.bool "address recycled" true (Ipv4.equal again.Maas.address first.Maas.address)

let test_maas_grows_when_exhausted () =
  let engine, _net, node, maas = maas_setup () in
  ignore (Maas.allocate maas);
  Engine.run ~until:(Time.days 1.0) engine;
  (* Exhaust the first /24 (256 addresses). *)
  let got = ref 0 in
  (try
     for _ = 1 to 400 do
       match Maas.allocate maas with
       | Some _ -> incr got
       | None -> raise Exit
     done
   with Exit -> ());
  check Alcotest.int "first range exhausted at 256" 256 !got;
  Engine.run ~until:(Time.days 2.0) engine;
  (* The node doubled; more allocations flow. *)
  (match Maas.allocate maas with
  | Some _ -> ()
  | None -> Alcotest.fail "expected growth to unblock allocation");
  check Alcotest.bool "node claim grew" true
    (List.exists
       (fun (c : Masc_node.own_claim) -> Prefix.size c.Masc_node.claim_prefix >= 512)
       (Masc_node.acquired_ranges node))

(* --- Allocation_sim ------------------------------------------------------ *)

let small_sim_params =
  {
    Allocation_sim.default_params with
    Allocation_sim.tops = 5;
    children_per_top = 5;
    horizon = Time.days 120.0;
    seed = 77;
  }

let test_allocation_sim_satisfies_demand () =
  let r = Allocation_sim.run small_sim_params in
  check Alcotest.int "no failed requests" 0 r.Allocation_sim.failed_requests;
  check Alcotest.bool "many requests" true (r.Allocation_sim.total_requests > 1000)

let test_allocation_sim_final_claims_disjoint () =
  let r = Allocation_sim.run small_sim_params in
  (* Top-level claims pairwise disjoint. *)
  let tops =
    Array.to_list r.Allocation_sim.final_tops
    |> List.concat_map (List.map (fun h -> h.Allocation_sim.h_prefix))
  in
  let rec disjoint = function
    | [] -> true
    | x :: rest -> (not (List.exists (Prefix.overlaps x) rest)) && disjoint rest
  in
  check Alcotest.bool "top claims disjoint" true (disjoint tops);
  (* Children claims disjoint and inside some top claim. *)
  let children =
    Array.to_list r.Allocation_sim.final_children
    |> List.concat_map (List.map (fun h -> h.Allocation_sim.h_prefix))
  in
  check Alcotest.bool "child claims disjoint" true (disjoint children);
  List.iter
    (fun c ->
      check Alcotest.bool "child inside a top claim" true
        (List.exists (fun t -> Prefix.subsumes t c) tops))
    children

let test_allocation_sim_utilization_reasonable () =
  let r = Allocation_sim.run small_sim_params in
  let steady = Allocation_sim.steady_state r ~from_day:80.0 in
  check Alcotest.bool "steady samples exist" true (steady <> []);
  List.iter
    (fun (s : Allocation_sim.sample) ->
      check Alcotest.bool "utilization in (0.15, 0.9)" true
        (s.Allocation_sim.utilization > 0.15 && s.Allocation_sim.utilization < 0.9);
      check Alcotest.bool "grib positive" true (s.Allocation_sim.grib_avg > 0.0);
      check Alcotest.bool "max >= avg" true
        (float_of_int s.Allocation_sim.grib_max >= s.Allocation_sim.grib_avg))
    steady

let test_allocation_sim_heterogeneous () =
  (* The paper: "We also examined more heterogeneous topologies with
     similar results."  Children per top vary ±3; the same invariants
     hold and the steady behaviour stays in range. *)
  let r =
    Allocation_sim.run { small_sim_params with Allocation_sim.hetero_spread = 3 }
  in
  check Alcotest.int "no failed requests" 0 r.Allocation_sim.failed_requests;
  (* Heterogeneity changes the child count: final_children length is not
     tops*children_per_top in general. *)
  check Alcotest.bool "children counted correctly" true
    (Array.length r.Allocation_sim.final_children > 0);
  let steady = Allocation_sim.steady_state r ~from_day:80.0 in
  List.iter
    (fun (s : Allocation_sim.sample) ->
      check Alcotest.bool "utilization sane under heterogeneity" true
        (s.Allocation_sim.utilization > 0.1 && s.Allocation_sim.utilization < 0.9))
    steady

let test_allocation_sim_deterministic () =
  let a = Allocation_sim.run small_sim_params in
  let b = Allocation_sim.run small_sim_params in
  check Alcotest.int "same request count" a.Allocation_sim.total_requests
    b.Allocation_sim.total_requests;
  check Alcotest.int "same claims" a.Allocation_sim.claims_made b.Allocation_sim.claims_made;
  let last r = (Array.get r.Allocation_sim.samples (Array.length r.Allocation_sim.samples - 1)) in
  check (Alcotest.float 1e-9) "same final utilization" (last a).Allocation_sim.utilization
    (last b).Allocation_sim.utilization

let test_allocation_sim_random_placement_runs () =
  (* Ablation A2 sanity: the random-placement variant completes with the
     same demand satisfied (the directional G-RIB comparison is an
     experiment, not an invariant — see `bin/main.exe -- ablate-placement`). *)
  let rand =
    Allocation_sim.run { small_sim_params with Allocation_sim.placement = `Random }
  in
  check Alcotest.int "no failed requests" 0 rand.Allocation_sim.failed_requests;
  let steady = Allocation_sim.steady_state rand ~from_day:80.0 in
  check Alcotest.bool "grib settles" true
    (List.for_all (fun (s : Allocation_sim.sample) -> s.Allocation_sim.grib_avg > 0.0) steady)

(* The allocation-overlap and allocation-live-lists invariants,
   checked at every sample: claims stay disjoint and inside their parent
   ranges, and every listed claim is alive and registered, under both
   placement rules. *)
let test_allocation_sim_invariants_hold placement () =
  let r =
    Allocation_sim.run
      { small_sim_params with Allocation_sim.placement; check_invariants = true }
  in
  check Alcotest.bool "samples taken" true (Array.length r.Allocation_sim.samples > 0);
  check Alcotest.int "no invariant violations" 0 r.Allocation_sim.invariant_violations

(* Bytes per request over a whole run, set-up and daily samples
   included.  A request re-arms its child's one request event and a
   grant arms the child's one block-expiry event, so what a request
   allocates is mostly the policy's answer and the claim churn it
   causes.  Counted like the allocation gate: a minor collection on
   each side makes the count exact. *)
let test_allocation_sim_bytes_per_request () =
  let p =
    {
      Allocation_sim.default_params with
      Allocation_sim.tops = 4;
      children_per_top = 8;
      horizon = Time.days 200.0;
    }
  in
  ignore (Allocation_sim.run p);
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  let r = Allocation_sim.run p in
  Gc.minor ();
  let per_request = (Gc.allocated_bytes () -. b0) /. float_of_int r.Allocation_sim.total_requests in
  Printf.printf "allocation sim: %.1f B per request over %d requests\n" per_request
    r.Allocation_sim.total_requests;
  (* Measured 248 B (release) and 302 B (dev, no cross-module
     inlining); the bounds are 1.25x that.  With a fresh event and
     closure per request and per block expiry, and a rebuilt claim list
     per decision, it was 759 B and 800 B. *)
  let budget = if Build_profile.name = "dev" then 380.0 else 310.0 in
  check Alcotest.bool
    (Printf.sprintf "a request allocates %.1f B <= %.0f B" per_request budget)
    true (per_request <= budget)

let prop_masc_claims_never_overlap =
  (* Protocol-level invariant under random small hierarchies and random
     demand order: acquired ranges never overlap across domains. *)
  QCheck.Test.make ~name:"acquired MASC ranges are pairwise disjoint" ~count:15
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let engine = Engine.create () in
      let rng = Rng.create seed in
      let n_children = 2 + Rng.int rng 4 in
      let ids = List.init (1 + n_children) (fun i -> i) in
      let net =
        Masc_network.create ~engine ~rng:(Rng.split rng) ~config:quick_cfg
          ~parent_of:(fun id -> if id = 0 then None else Some 0)
          ~ids ()
      in
      Masc_network.start net;
      List.iter
        (fun id ->
          if id > 0 then
            ignore
              (Engine.schedule_after engine
                 (Time.hours (Rng.float rng 48.0))
                 (fun () ->
                   Masc_node.request_space (Masc_network.node net id)
                     ~need:(256 * (1 + Rng.int rng 4)))))
        ids;
      Engine.run ~until:(Time.days 7.0) engine;
      let ranges =
        List.concat_map
          (fun id ->
            List.map
              (fun (c : Masc_node.own_claim) -> c.Masc_node.claim_prefix)
              (Masc_node.acquired_ranges (Masc_network.node net id)))
          (List.tl ids)
      in
      let rec disjoint = function
        | [] -> true
        | x :: rest -> (not (List.exists (Prefix.overlaps x) rest)) && disjoint rest
      in
      disjoint ranges)

let suite =
  [
    ("space cover and claims", `Quick, test_space_cover_and_claims);
    ("space duplicate rejected", `Quick, test_space_register_duplicate_rejected);
    ("space is_free", `Quick, test_space_is_free);
    ("space choose_claim first-subprefix", `Quick, test_space_choose_claim_first_subprefix);
    ("space choose_claim random placement", `Quick, test_space_choose_claim_random_placement);
    ("space can_double", `Quick, test_space_can_double);
    ("policy assign when room", `Quick, test_policy_assign_when_room);
    ("policy double when dense", `Quick, test_policy_double_when_dense);
    ("policy claim-new when wasteful", `Quick, test_policy_claim_new_when_doubling_too_wasteful);
    ("policy double at limit", `Quick, test_policy_double_at_limit_even_below_threshold);
    ("policy consolidate when stuck", `Quick, test_policy_consolidate_when_stuck);
    ("policy blocked", `Quick, test_policy_blocked);
    ("policy rejects bad need", `Quick, test_policy_rejects_bad_need);
    ("policy inactive not assigned", `Quick, test_policy_inactive_not_assigned);
    ("node basic claim flow", `Quick, test_node_basic_claim_flow);
    ("node sibling claims disjoint", `Quick, test_node_sibling_claims_disjoint);
    ("top level claims from 224/4", `Quick, test_top_level_claims_from_class_d);
    ("collision resolved deterministically", `Quick, test_collision_resolved_by_lower_id);
    ("simultaneous top claims recover", `Quick, test_simultaneous_top_claims_collide_and_recover);
    ("partition collision heals", `Quick, test_partition_causes_collision_then_heals);
    ("claim expires without demand", `Quick, test_claim_expires_without_demand);
    ("claim renewed under use", `Quick, test_claim_renewed_under_use);
    ("three-level hierarchy containment", `Quick, test_three_level_hierarchy_containment);
    ("maas allocates after claim", `Quick, test_maas_allocates_after_claim);
    ("maas unique addresses and release", `Quick, test_maas_unique_addresses_and_release);
    ("maas grows when exhausted", `Quick, test_maas_grows_when_exhausted);
    ("allocation sim satisfies demand", `Slow, test_allocation_sim_satisfies_demand);
    ("allocation sim final claims disjoint", `Slow, test_allocation_sim_final_claims_disjoint);
    ("allocation sim utilization reasonable", `Slow, test_allocation_sim_utilization_reasonable);
    ("allocation sim heterogeneous", `Slow, test_allocation_sim_heterogeneous);
    ("allocation sim deterministic", `Slow, test_allocation_sim_deterministic);
    ("allocation sim placement variant runs", `Slow, test_allocation_sim_random_placement_runs);
    ("allocation sim invariants hold (first)", `Slow, test_allocation_sim_invariants_hold `First);
    ("allocation sim invariants hold (random)", `Slow, test_allocation_sim_invariants_hold `Random);
    ("allocation sim bytes per request", `Quick, test_allocation_sim_bytes_per_request);
    QCheck_alcotest.to_alcotest prop_masc_claims_never_overlap;
  ]
