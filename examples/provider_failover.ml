(* Multi-provider MASC (§4: "a domain that is a customer of other
   domains will choose one or more of those provider domains to be its
   MASC parent") and failure recovery across the stack.

   A dual-homed customer starts under provider P1.  P1's link fails:
   BGP reroutes existing group routes over P2 and the distribution
   trees are rebuilt; the customer then re-parents its MASC node to P2
   so future address claims come from P2's space.

   Run with: dune exec examples/provider_failover.exe *)

let () =
  (* Dual-homed customer:
       P1   P2     (backbone peers)
        \   /
         CU        (customer of both)
         |
         LEAF      (customer of CU, where members live) *)
  let topo = Topo.create () in
  let p1 = Topo.add_domain topo ~name:"P1" ~kind:Domain.Backbone in
  let p2 = Topo.add_domain topo ~name:"P2" ~kind:Domain.Backbone in
  let cu = Topo.add_domain topo ~name:"CU" ~kind:Domain.Regional in
  let leaf = Topo.add_domain topo ~name:"LEAF" ~kind:Domain.Stub in
  Topo.add_link topo p1 p2 Topo.Peer;
  Topo.add_link topo p1 cu Topo.Provider_customer;
  Topo.add_link topo p2 cu Topo.Provider_customer;
  Topo.add_link topo cu leaf Topo.Provider_customer;

  let inet = Internet.create ~config:Internet.quick_config topo in
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);
  let name_of d = (Topo.domain topo d).Domain.name in

  (* CU allocates a group; its MASC parent is its first provider, P1,
     so the range is carved from P1's space. *)
  let get ~attempts what =
    match Internet.request_address_retry inet cu ~every:(Time.hours 1.0) ~attempts with
    | Some a -> a
    | None -> failwith (what ^ " did not settle")
  in
  let alloc = get ~attempts:32 "allocation" in
  let group = alloc.Maas.address in
  Format.printf "Group %a allocated by CU (MASC parent: P1)@." Ipv4.pp group;
  Format.printf "CU's ranges: %s@."
    (String.concat " "
       (List.map
          (fun (c : Masc_node.own_claim) -> Prefix.to_string c.Masc_node.claim_prefix)
          (Masc_node.acquired_ranges (Internet.masc_node inet cu))));
  (match Masc_node.role (Internet.masc_node inet cu) with
  | Masc_node.Child p -> Format.printf "CU's MASC parent: %s@." (name_of p)
  | Masc_node.Top -> ());

  (* A member in P2's own network joins; a host in LEAF sends. *)
  Internet.join inet ~host:(Host_ref.make p2 0) ~group;
  Internet.run_for inet (Time.minutes 30.0);
  let show tag =
    let p = Internet.send inet ~source:(Host_ref.make leaf 5) ~group in
    Internet.run_for inet (Time.minutes 10.0);
    Format.printf "%s:@." tag;
    List.iter
      (fun (h, hops) ->
        Format.printf "  delivered to %s in %d hops@." (name_of h.Host_ref.host_domain) hops)
      (Internet.deliveries inet ~payload:p)
  in
  show "Before the failure";

  (* P1-CU link dies: BGP reroutes CU's group route via P2, the tree is
     rebuilt, delivery continues. *)
  Format.printf "@.*** link P1-CU fails ***@.";
  Internet.fail_link inet p1 cu;
  Internet.run_for inet (Time.hours 1.0);
  show "After BGP failover and tree rebuild";

  (* MASC-level failover: CU re-parents to P2.  The old range (carved
     from P1's space) drains by lifetime; new claims come from P2. *)
  Format.printf "@.*** CU re-parents its MASC node to P2 ***@.";
  Masc_network.reparent (Internet.masc_network inet) ~child:cu ~new_parent:p2;
  Internet.run_for inet (Time.days 1.0);
  (* New demand claims from the new parent. *)
  let get2 () = get ~attempts:62 "post-failover allocation" in
  (* Addresses from the old (P1-derived) range stay valid until its
     lifetime lapses — sessions are not renumbered by the failover. *)
  let recycled = get2 () in
  Format.printf "Allocation right after reparenting: %a — still from the draining old range %a@."
    Ipv4.pp recycled.Maas.address Prefix.pp recycled.Maas.from_range;
  (* Exhaust the old pool to force allocation from P2-derived space. *)
  let fresh = ref recycled in
  (try
     for _ = 1 to 600 do
       let a = get2 () in
       if not (Prefix.equal a.Maas.from_range recycled.Maas.from_range) then begin
         fresh := a;
         raise Exit
       end
     done
   with Exit -> ());
  Format.printf "First allocation from the new provider's space: %a (range %a)@." Ipv4.pp
    !fresh.Maas.address Prefix.pp !fresh.Maas.from_range;
  Format.printf "CU's claims now: %s@."
    (String.concat "  "
       (List.map
          (fun (c : Masc_node.own_claim) ->
            Format.asprintf "%a(%s,%s)" Prefix.pp c.Masc_node.claim_prefix
              (match c.Masc_node.claim_arena with
              | Masc_node.Up -> "from-provider"
              | Masc_node.Down -> "self-reserved")
              (if c.Masc_node.claim_active then "active" else "draining"))
          (Masc_node.all_claims (Internet.masc_node inet cu))));
  (match Masc_node.role (Internet.masc_node inet cu) with
  | Masc_node.Child p -> Format.printf "CU's MASC parent now: %s@." (name_of p)
  | Masc_node.Top -> ());
  (* P2's ranges cover CU's fresh claims. *)
  Format.printf "P2's ranges: %s@."
    (String.concat " "
       (List.map
          (fun (c : Masc_node.own_claim) -> Prefix.to_string c.Masc_node.claim_prefix)
          (Masc_node.bgp_ranges (Internet.masc_node inet p2))))
