(* Tests for the paper's §4.4 start-up scheme and §7 extensions:
   topology rendering, exchange-seeded top-level spaces, forwarding-state
   aggregation, remote address allocation, and MASC reparenting. *)

let check = Alcotest.check

let prefix_testable = Alcotest.testable Prefix.pp Prefix.equal

(* --- Topo_dot ----------------------------------------------------------- *)

let test_dot_rendering () =
  let topo = Gen.figure1 () in
  let dot = Topo_dot.to_dot ~highlight:[ 0; 1 ] ~highlight_edges:[ (0, 1) ] ~label:"t" topo in
  check Alcotest.bool "digraph header" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains needle =
    let re = Str.regexp_string needle in
    try
      ignore (Str.search_forward re dot 0);
      true
    with Not_found -> false
  in
  check Alcotest.bool "every domain rendered" true
    (List.for_all (fun (d : Domain.t) -> contains (Printf.sprintf "n%d " d.Domain.id))
       (Topo.domains topo));
  check Alcotest.bool "highlight applied" true (contains "fillcolor");
  check Alcotest.bool "peer links dashed" true (contains "style=dashed");
  check Alcotest.bool "label present" true (contains "label=\"t\"");
  check Alcotest.bool "closed" true (String.length dot >= 2 && String.sub dot (String.length dot - 2) 2 = "}\n")

let test_remote_address_allocation () =
  let topo = Gen.figure1 () in
  let inet = Internet.create ~config:Internet.quick_config topo in
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);
  let dom name = Option.get (Topo.find_by_name topo name) in
  (* Initiator in G knows the dominant source will be in B: allocate
     from B's MAAS so the tree roots there. *)
  match Internet.request_address_retry inet (dom "B") ~every:(Time.hours 1.0) ~attempts:32 with
  | None -> Alcotest.fail "allocation did not settle"
  | Some alloc ->
      check (Alcotest.option Alcotest.int) "rooted at B, not at the initiator" (Some (dom "B"))
        (Internet.root_domain_of inet alloc.Maas.address)

(* --- multi-provider reparenting ------------------------------------------ *)

let reparent_setup () =
  (* Two top-level providers 0 and 1; child 2 starts under 0. *)
  let engine = Engine.create () in
  let config =
    {
      Masc_node.claim_wait = Time.hours 1.0;
      claim_lifetime = Time.days 3.0;
      renew_margin = Time.hours 12.0;
    }
  in
  let net =
    Masc_network.create ~engine ~rng:(Rng.create 5) ~config
      ~parent_of:(fun id -> if id = 2 then Some 0 else None)
      ~ids:[ 0; 1; 2 ] ()
  in
  Masc_network.start net;
  (engine, net)

let test_reparent_reclaims_from_new_parent () =
  let engine, net = reparent_setup () in
  let child = Masc_network.node net 2 in
  Masc_node.request_space child ~need:256;
  Engine.run ~until:(Time.days 1.0) engine;
  let old_range =
    match Masc_node.acquired_ranges child with
    | [ c ] -> c.Masc_node.claim_prefix
    | _ -> Alcotest.fail "expected one range under the old parent"
  in
  (* Old provider 0's space covers the range. *)
  let covers0 =
    List.map (fun (c : Masc_node.own_claim) -> c.Masc_node.claim_prefix)
      (Masc_node.bgp_ranges (Masc_network.node net 0))
  in
  check Alcotest.bool "old range under provider 0" true
    (List.exists (fun p -> Prefix.subsumes p old_range) covers0);
  (* Switch to provider 1 and demand more space. *)
  Masc_network.reparent net ~child:2 ~new_parent:1;
  Masc_node.request_space child ~need:256;
  Engine.run ~until:(Time.days 2.0) engine;
  let fresh =
    List.filter
      (fun (c : Masc_node.own_claim) ->
        c.Masc_node.claim_active && not (Prefix.equal c.Masc_node.claim_prefix old_range))
      (Masc_node.acquired_ranges child)
  in
  check Alcotest.bool "fresh range acquired after reparent" true (fresh <> []);
  let covers1 =
    List.map (fun (c : Masc_node.own_claim) -> c.Masc_node.claim_prefix)
      (Masc_node.bgp_ranges (Masc_network.node net 1))
  in
  List.iter
    (fun (c : Masc_node.own_claim) ->
      check Alcotest.bool "fresh range under provider 1" true
        (List.exists (fun p -> Prefix.subsumes p c.Masc_node.claim_prefix) covers1))
    fresh

let test_reparent_drains_old_claims () =
  let engine, net = reparent_setup () in
  let child = Masc_network.node net 2 in
  Masc_node.request_space child ~need:256;
  Engine.run ~until:(Time.days 1.0) engine;
  (match Masc_node.acquired_ranges child with
  | [ c ] -> Masc_node.note_assigned child c.Masc_node.claim_prefix 5
  | _ -> Alcotest.fail "expected one range");
  Masc_network.reparent net ~child:2 ~new_parent:1;
  (* Usage drains: simulate the last addresses being freed. *)
  Engine.run ~until:(Time.days 2.0) engine;
  (match Masc_node.all_claims child with
  | c :: _ -> Masc_node.note_assigned child c.Masc_node.claim_prefix (-5)
  | [] -> ());
  (* Without renewal (outside the new parent's covers) the claim must
     lapse within a couple of lifetimes. *)
  Engine.run ~until:(Time.days 12.0) engine;
  List.iter
    (fun (c : Masc_node.own_claim) ->
      check Alcotest.bool "no active claim from the old provider's space" true
        (c.Masc_node.claim_active = false || c.Masc_node.claim_arena = Masc_node.Down
        ||
        let covers1 =
          List.map
            (fun (x : Masc_node.own_claim) -> x.Masc_node.claim_prefix)
            (Masc_node.bgp_ranges (Masc_network.node net 1))
        in
        List.exists (fun p -> Prefix.subsumes p c.Masc_node.claim_prefix) covers1))
    (Masc_node.all_claims child)

let test_reparent_rejects_top_level () =
  let _, net = reparent_setup () in
  Alcotest.check_raises "top-level cannot reparent"
    (Invalid_argument "Masc_network.reparent: child is top-level") (fun () ->
      Masc_network.reparent net ~child:0 ~new_parent:1)

let suite =
  [
    ("dot rendering", `Quick, test_dot_rendering);
    ("remote address allocation", `Quick, test_remote_address_allocation);
    ("reparent reclaims from new parent", `Quick, test_reparent_reclaims_from_new_parent);
    ("reparent drains old claims", `Quick, test_reparent_drains_old_claims);
    ("reparent rejects top level", `Quick, test_reparent_rejects_top_level);
  ]
