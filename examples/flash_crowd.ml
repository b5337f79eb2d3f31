(* The §4.1 burst scenario: "It is expected that MASC will keep ahead
   of the demand for multicast addresses in its domain, but if there is
   a sudden increase in demand, addresses could be obtained from the
   parent's address space.  If this is done, the root of the shared
   tree for these groups would simply be the parent's domain, which
   might be sub-optimal."

   A stub domain's sessions suddenly multiply (a flash crowd of new
   groups).  Its MASC node claims more space, but claims take a
   collision-wait to settle; meanwhile the MAAS falls back to the
   provider's space so no session is delayed.  We count how many groups
   ended up rooted at the parent (sub-optimally) versus locally, and
   show the local claim catching up.

   Run with: dune exec examples/flash_crowd.exe *)

let () =
  let topo = Gen.figure1 () in
  let inet = Internet.create ~config:Internet.quick_config topo in
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);
  let dom name = Option.get (Topo.find_by_name topo name) in
  let name_of d = (Topo.domain topo d).Domain.name in
  let f = dom "F" in

  (* Warm-up: one session so F holds its initial (small) range. *)
  if Internet.request_address_retry inet f ~every:(Time.hours 1.0) ~attempts:32 = None then
    failwith "warm-up allocation never settled";
  Format.printf "F's initial MASC ranges: %s@."
    (String.concat " "
       (List.map
          (fun (c : Masc_node.own_claim) -> Prefix.to_string c.Masc_node.claim_prefix)
          (Masc_node.acquired_ranges (Internet.masc_node inet f))));

  (* Flash crowd: 600 sessions created back-to-back — far beyond the
     /24 the steady state justified. *)
  let local = ref 0 and fallback = ref 0 and failed = ref 0 in
  let roots = Hashtbl.create 4 in
  for _ = 1 to 600 do
    match Internet.request_address_with_fallback inet f with
    | Some (_, root) ->
        if root = f then incr local else incr fallback;
        Hashtbl.replace roots root (1 + Option.value ~default:0 (Hashtbl.find_opt roots root))
    | None ->
        incr failed;
        (* Give the claim machinery a moment, as a session retry would. *)
        Internet.run_for inet (Time.minutes 1.0)
  done;
  Format.printf
    "@.Flash crowd of 600 sessions: %d rooted locally, %d fell back to the provider, %d \
     retried@."
    !local !fallback !failed;
  Hashtbl.iter
    (fun root n -> Format.printf "  groups rooted at %s: %d@." (name_of root) n)
    roots;

  (* Let MASC catch up (claims settle), then show new sessions root
     locally again. *)
  Internet.run_for inet (Time.days 1.0);
  Format.printf "@.F's MASC ranges after the claims settle: %s@."
    (String.concat " "
       (List.map
          (fun (c : Masc_node.own_claim) -> Prefix.to_string c.Masc_node.claim_prefix)
          (Masc_node.acquired_ranges (Internet.masc_node inet f))));
  let after_local = ref 0 and after_fallback = ref 0 in
  for _ = 1 to 50 do
    match Internet.request_address_with_fallback inet f with
    | Some (_, root) -> if root = f then incr after_local else incr after_fallback
    | None -> ()
  done;
  Format.printf "After catch-up, 50 new sessions: %d local, %d fallback@." !after_local
    !after_fallback;

  (* The sub-optimality the paper mentions, made visible: a fallback
     group's tree roots at B (F's provider), so members in G reach it
     through B even for sources inside F. *)
  match Internet.request_address_with_fallback inet f with
  | Some (alloc, root) ->
      let group = alloc.Maas.address in
      Internet.join inet ~host:(Host_ref.make (dom "G") 0) ~group;
      Internet.run_for inet (Time.minutes 30.0);
      let payload = Internet.send inet ~source:(Host_ref.make f 0) ~group in
      Internet.run_for inet (Time.minutes 10.0);
      List.iter
        (fun (h, hops) ->
          Format.printf "@.Group rooted at %s: source in F reaches %s in %d hops@."
            (name_of root) (name_of h.Host_ref.host_domain) hops)
        (Internet.deliveries inet ~payload)
  | None -> Format.printf "@. (no address available for the epilogue)@."
