(* Quickstart: the full MASC/BGMP architecture on the paper's Figure-1
   topology.

   Builds the seven-domain internetwork, lets MASC allocate multicast
   address ranges down the provider hierarchy, asks domain B's MAAS for
   a group address (making B the root domain), joins members in four
   other domains, and sends a packet from a non-member host in E.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let topo = Gen.figure1 () in
  Format.printf "Topology: %a@." Topo.pp_summary topo;

  (* Record the run's event log, keeping every record: the protocol
     narrative printed at the end comes from it. *)
  Recorder.enable ~retain:Recorder.Keep_all ();

  (* Bring the stack up with fast protocol timers (minutes, not the
     deployment-scale 48 h collision wait). *)
  let inet = Internet.create ~config:Internet.quick_config topo in
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);

  let dom name = Option.get (Topo.find_by_name topo name) in
  let name_of d = (Topo.domain topo d).Domain.name in

  (* 1. A session initiator in domain B asks its MAAS for an address.
     The MAAS pulls space from B's MASC node, which claims a sub-range
     of its provider A's allocation — so the group is rooted at B. *)
  let rec get_address tries =
    match Internet.request_address inet (dom "B") with
    | Some a -> a
    | None ->
        if tries > 30 then failwith "allocation did not settle";
        Internet.run_for inet (Time.hours 1.0);
        get_address (tries + 1)
  in
  let alloc = get_address 0 in
  let group = alloc.Maas.address in
  Format.printf "@.Initiator in B obtained group address %a (from MASC range %a)@." Ipv4.pp group
    Prefix.pp alloc.Maas.from_range;
  (match Internet.root_domain_of inet group with
  | Some root -> Format.printf "Root domain per the G-RIB: %s@." (name_of root)
  | None -> Format.printf "Root domain: (not yet routable)@.");

  (* 2. Show each domain's G-RIB: note that D and E only carry A's
     aggregate — B's specific range is suppressed (CIDR aggregation,
     §4.3.2 of the paper). *)
  Format.printf "@.Group routes (G-RIB) per domain:@.";
  List.iter
    (fun (d : Domain.t) ->
      let routes = Speaker.best_routes (Internet.speaker inet d.Domain.id) in
      Format.printf "  %-2s: %s@." d.Domain.name
        (String.concat "  "
           (List.map
              (fun (pre, (r : Route.t)) ->
                Format.asprintf "%a->%s" Prefix.pp pre (name_of r.Route.origin))
              routes)))
    (Topo.domains topo);

  (* 3. Members join from C, D, F and G; BGMP grafts them onto the
     bidirectional shared tree rooted at B. *)
  let members = [ "C"; "D"; "F"; "G" ] in
  List.iter (fun n -> Internet.join inet ~host:(Host_ref.make (dom n) 0) ~group) members;
  Internet.run_for inet (Time.minutes 30.0);
  Format.printf "@.Members joined in: %s@." (String.concat ", " members);
  Format.printf "Shared tree spans domains: %s@."
    (String.concat ", "
       (List.map name_of (Bgmp_fabric.tree_domains (Internet.fabric inet) ~group)));

  (* 4. A host in E — NOT a member — sends to the group (the IP service
     model needs no signalling before sending). *)
  let payload = Internet.send inet ~source:(Host_ref.make (dom "E") 1) ~group in
  Internet.run_for inet (Time.minutes 5.0);
  Format.printf "@.Host in E (non-member) sent packet #%d:@." payload;
  List.iter
    (fun (h, hops) ->
      Format.printf "  delivered to %s after %d inter-domain hops@."
        (name_of h.Host_ref.host_domain) hops)
    (Internet.deliveries inet ~payload);
  Format.printf "Duplicates: %d@."
    (Bgmp_fabric.duplicate_deliveries (Internet.fabric inet));

  (* 5. A short excerpt of the protocol narrative from the recording. *)
  Format.printf "@.MASC activity (first 12 events):@.";
  List.iteri
    (fun i r -> if i < 12 then Format.printf "  %a@." Trace_report.pp_entry r)
    (Trace_report.narrative (Recorder.recent ()))
