(* The paper's motivating scenario (§5.1): a large one-to-many broadcast
   — "the multicast session for a NASA space shuttle broadcast would
   have the shared tree rooted in NASA's domain".

   The initiator allocates the group address in its own (stub) domain,
   so the root domain coincides with the dominant sender.  Receivers all
   over a transit-stub internetwork join and leave dynamically; we
   measure every delivery's inter-domain hop count against the unicast
   shortest path to show the shared tree is near-optimal when the root
   is well placed.

   Run with: dune exec examples/teleconference.exe *)

let () =
  let rng = Rng.create 2026 in
  let topo = Gen.transit_stub ~rng ~backbones:3 ~regionals_per_backbone:3 ~stubs_per_regional:4 in
  Format.printf "Topology: %a@." Topo.pp_summary topo;

  let inet = Internet.create ~config:Internet.quick_config topo in
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);

  (* NASA's domain: the first stub. *)
  let nasa =
    (List.find (fun d -> d.Domain.kind = Domain.Stub) (Topo.domains topo)).Domain.id
  in
  let alloc =
    match Internet.request_address_retry inet nasa ~every:(Time.hours 1.0) ~attempts:32 with
    | Some a -> a
    | None -> failwith "allocation did not settle"
  in
  let group = alloc.Maas.address in
  Format.printf "Broadcast group %a rooted at domain %d (the sender's own domain)@.@." Ipv4.pp
    group nasa;

  (* Audience: every other stub domain joins, in waves. *)
  let audience =
    List.filter_map
      (fun d ->
        if d.Domain.kind = Domain.Stub && d.Domain.id <> nasa then Some d.Domain.id else None)
      (Topo.domains topo)
  in
  let wave_size = (List.length audience / 3) + 1 in
  let waves =
    let rec split acc rest =
      match rest with
      | [] -> List.rev acc
      | _ ->
          let take = min wave_size (List.length rest) in
          let w = List.filteri (fun i _ -> i < take) rest in
          let rest = List.filteri (fun i _ -> i >= take) rest in
          split (w :: acc) rest
    in
    split [] audience
  in
  let sender = Host_ref.make nasa 0 in
  let from_nasa = Spf.bfs topo nasa in
  let packet_no = ref 0 in
  List.iteri
    (fun i wave ->
      List.iter (fun d -> Internet.join inet ~host:(Host_ref.make d 0) ~group) wave;
      Internet.run_for inet (Time.minutes 20.0);
      let p = Internet.send inet ~source:sender ~group in
      incr packet_no;
      Internet.run_for inet (Time.minutes 5.0);
      let deliveries = Internet.deliveries inet ~payload:p in
      let stretch = Stats.create () in
      List.iter
        (fun (h, hops) ->
          let spt = Spf.dist from_nasa h.Host_ref.host_domain in
          if spt > 0 then Stats.add stretch (float_of_int hops /. float_of_int spt))
        deliveries;
      Format.printf
        "wave %d: +%2d receivers; packet #%d delivered to %3d; path stretch vs SPT: avg %.2fx max \
         %.2fx@."
        (i + 1) (List.length wave) p (List.length deliveries) (Stats.mean stretch)
        (if Stats.count stretch > 0 then Stats.max stretch else 0.0))
    waves;

  (* Churn: half the audience leaves; the tree prunes back. *)
  let tree_before =
    List.length (Bgmp_fabric.tree_domains (Internet.fabric inet) ~group)
  in
  List.iteri
    (fun i d -> if i mod 2 = 0 then Internet.leave inet ~host:(Host_ref.make d 0) ~group)
    audience;
  Internet.run_for inet (Time.minutes 30.0);
  let tree_after = List.length (Bgmp_fabric.tree_domains (Internet.fabric inet) ~group) in
  Format.printf "@.After half the audience leaves, tree shrinks from %d to %d domains@."
    tree_before tree_after;

  let p = Internet.send inet ~source:sender ~group in
  Internet.run_for inet (Time.minutes 5.0);
  Format.printf "Final packet reaches %d receivers (expected %d); duplicates total: %d@."
    (List.length (Internet.deliveries inet ~payload:p))
    (List.length audience - ((List.length audience + 1) / 2))
    (Bgmp_fabric.duplicate_deliveries (Internet.fabric inet))
