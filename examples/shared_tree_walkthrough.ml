(* The Figure-3 walkthrough: bidirectional shared-tree construction
   (Figure 3a) and source-specific branch establishment (Figure 3b).

   Uses the BGMP fabric directly with static group routes so the
   scenario matches the paper exactly: group 224.0.128.1 rooted at
   domain B; members in B, C, D, F and H; DVMRP inside every domain
   (strict RPF, flood-and-prune).

   Run with: dune exec examples/shared_tree_walkthrough.exe *)

let group = Ipv4.of_string "224.0.128.1"

let () =
  let topo = Gen.figure3 () in
  let engine = Engine.create () in
  let dom name = Option.get (Topo.find_by_name topo name) in
  let name_of d = (Topo.domain topo d).Domain.name in
  let b = dom "B" in
  let to_root = Spf.bfs topo b in
  let route_to_root d _g =
    if d = b then Bgmp_fabric.Root_here
    else
      match Spf.next_hop_toward topo to_root d with
      | Some nh -> Bgmp_fabric.Via nh
      | None -> Bgmp_fabric.Unroutable
  in
  (* Keep the whole event log: the causal chain printed below comes
     from its narrative records. *)
  Recorder.enable ~retain:Recorder.Keep_all ();
  let fabric = Bgmp_fabric.create ~engine ~topo ~route_to_root () in

  Format.printf "=== Figure 3(a): building the bidirectional shared tree ===@.";
  Format.printf "Group %a is rooted at domain B (its address falls in B's MASC range).@.@."
    Ipv4.pp group;
  List.iter
    (fun n ->
      Bgmp_fabric.host_join fabric ~host:(Host_ref.make (dom n) 0) ~group;
      Engine.run_until_idle engine;
      Format.printf "after %s joins, tree spans: %s@." n
        (String.concat ", " (List.map name_of (Bgmp_fabric.tree_domains fabric ~group))))
    [ "B"; "C"; "D"; "F"; "H" ];

  (* Dump the (star,G) entries: parent/child targets per border router,
     as in the paper's description of C1, A2, A3, B1. *)
  Format.printf "@.(*,G) forwarding entries at every border router on the tree:@.";
  List.iter
    (fun (d : Domain.t) ->
      List.iter
        (fun r ->
          match Bgmp_router.star_entry r group with
          | None -> ()
          | Some e ->
              let tgt = Format.asprintf "%a" Bgmp_router.pp_target in
              Format.printf "  %-3s parent=%-8s children=[%s]@." (Bgmp_router.name r)
                (match e.Bgmp_router.parent with Some t -> tgt t | None -> "-")
                (String.concat " " (List.map tgt e.Bgmp_router.children)))
        (Bgmp_fabric.routers_of fabric d.Domain.id))
    (Topo.domains topo);

  (* The fabric stamped every join with a causal span; render the
     group's chain the way the [trace] subcommand would.  With static
     group routes there is no claim to descend from, so the chain roots
     at the group itself; in the integrated stack the same chain starts
     at the MASC claim that placed the prefix. *)
  Format.printf "@.Causal chain of the tree construction (trace subcommand rendering):@.";
  let records = Recorder.recent () in
  List.iter
    (fun id -> Trace_report.pp_chain_for Format.std_formatter records ~id)
    (Trace_report.chain_ids records);
  Format.printf "@.Join latencies:@.%a" Trace_report.pp_latencies records;

  (* Data from a host in E (no members there): forwarded toward the root
     until it meets the tree, then distributed bidirectionally. *)
  let p = Bgmp_fabric.send fabric ~source:(Host_ref.make (dom "E") 7) ~group in
  Engine.run_until_idle engine;
  Format.printf "@.Host in E sends packet #%d:@." p;
  List.iter
    (fun (h, hops) ->
      Format.printf "  %s receives after %d inter-domain hops@." (name_of h.Host_ref.host_domain)
        hops)
    (Bgmp_fabric.deliveries fabric ~payload:p);

  Format.printf "@.=== Figure 3(b): a source-specific branch from F ===@.";
  Format.printf
    "Source S in domain D.  F's shortest path to D runs through A (via border@.\
     router F2), but the shared tree delivers via B (router F1).  F's DVMRP@.\
     forces encapsulation F1->F2 until BGMP grafts an (S,G) branch.@.@.";
  let src = Host_ref.make (dom "D") 3 in
  let show_packet tag p =
    Format.printf "%s@." tag;
    List.iter
      (fun (h, hops) ->
        Format.printf "  %s after %d hops@." (name_of h.Host_ref.host_domain) hops)
      (Bgmp_fabric.deliveries fabric ~payload:p)
  in
  let p1 = Bgmp_fabric.send fabric ~source:src ~group in
  Engine.run_until_idle engine;
  show_packet "First packet from S (shared tree; encapsulation inside F):" p1;
  Format.printf "  encapsulations recorded in F so far: %d@."
    (Migp.encapsulations (Bgmp_fabric.migp_of fabric (dom "F")));
  let p2 = Bgmp_fabric.send fabric ~source:src ~group in
  Engine.run_until_idle engine;
  show_packet "Second packet (the (S,G) branch via A-F is live; F is 2 hops from S):" p2;

  (* Show the (S,G) state the branch created. *)
  Format.printf "@.(S,G) entries after the branch:@.";
  List.iter
    (fun (d : Domain.t) ->
      List.iter
        (fun r ->
          match Bgmp_router.sg_entry r src group with
          | None -> ()
          | Some v ->
              let tgt = Format.asprintf "%a" Bgmp_router.pp_target in
              Format.printf "  %-3s rpf=%-8s targets=[%s]@." (Bgmp_router.name r)
                (match v.Bgmp_router.view_rpf with Some t -> tgt t | None -> "-")
                (String.concat " " (List.map tgt v.Bgmp_router.view_targets)))
        (Bgmp_fabric.routers_of fabric d.Domain.id))
    (Topo.domains topo);
  Format.printf "@.Control messages: %d, data messages: %d, duplicates: %d@."
    (Bgmp_fabric.control_messages fabric)
    (Bgmp_fabric.data_messages fabric)
    (Bgmp_fabric.duplicate_deliveries fabric);

  (* Everything above was also recorded by the process-wide metrics
     registry; the snapshot is the machine-readable view of the run. *)
  Format.printf "@.Metrics snapshot of the walkthrough:@.%a" Metrics.pp
    (Metrics.snapshot Metrics.default)
