(* MASC claim-collide in action (§4.1), including the failure case the
   48-hour waiting period exists for: two top-level domains claim the
   same range while partitioned from each other; after the partition
   heals, the collision is detected and the lower-numbered domain keeps
   the range while the other renumbers.

   Run with: dune exec examples/address_allocation.exe *)

let () =
  let engine = Engine.create () in
  let rng = Rng.create 7 in
  (* Keep the whole event log: the collision narrative printed below
     comes from it. *)
  Recorder.enable ~retain:Recorder.Keep_all ();
  let config =
    {
      Masc_node.claim_wait = Time.hours 4.0;
      claim_lifetime = Time.days 10.0;
      renew_margin = Time.days 1.0;
    }
  in
  (* Two backbone (top-level) domains 0 and 1, each with two customers. *)
  let parent_of = function 0 | 1 -> None | 2 | 3 -> Some 0 | _ -> Some 1 in
  let net =
    Masc_network.create ~engine ~rng ~config ~parent_of ~ids:[ 0; 1; 2; 3; 4; 5 ] ()
  in
  Masc_network.start net;

  Format.printf "=== Normal operation: children claim from their parents ===@.";
  List.iter
    (fun id -> Masc_node.request_space (Masc_network.node net id) ~need:256)
    [ 2; 3; 4; 5 ];
  Engine.run ~until:(Time.days 1.0) engine;
  let show_claims id =
    let node = Masc_network.node net id in
    Format.printf "  domain %d: %s@." id
      (String.concat "  "
         (List.map
            (fun (c : Masc_node.own_claim) ->
              Format.asprintf "%a(%s)" Prefix.pp c.Masc_node.claim_prefix
                (match c.Masc_node.claim_state with
                | Masc_node.Acquired -> "acquired"
                | Masc_node.Waiting -> "waiting"))
            (Masc_node.all_claims node)))
  in
  List.iter show_claims [ 0; 1; 2; 3; 4; 5 ];

  Format.printf "@.=== Partition: domains 0 and 1 cannot hear each other ===@.";
  Masc_network.partition net 0 1;
  (* Both tops need much more space and claim big blocks blindly. *)
  Masc_node.request_space (Masc_network.node net 2) ~need:65536;
  Masc_node.request_space (Masc_network.node net 4) ~need:65536;
  Engine.run ~until:(Time.days 2.0) engine;
  show_claims 0;
  show_claims 1;
  Format.printf "  (messages dropped so far: %d)@." (Masc_network.messages_dropped net);
  (* Keep the ranges in use so they renew and re-announce. *)
  List.iter
    (fun id ->
      let node = Masc_network.node net id in
      List.iter
        (fun (c : Masc_node.own_claim) ->
          Masc_node.note_assigned node c.Masc_node.claim_prefix 64)
        (Masc_node.acquired_ranges node))
    [ 0; 1; 2; 3; 4; 5 ];

  Format.printf "@.=== Heal: renewals re-announce, collisions fire ===@.";
  Masc_network.heal net 0 1;
  Engine.run ~until:(Time.days 25.0) engine;
  show_claims 0;
  show_claims 1;
  Format.printf "  collisions suffered in total: %d@." (Masc_network.total_collisions net);

  Format.printf "@.=== Collision-related trace events ===@.";
  let narrative = Trace_report.narrative (Recorder.recent ()) in
  List.iter
    (fun tag ->
      List.iter
        (fun r -> if r.Recorder.r_label = tag then Format.printf "  %a@." Trace_report.pp_entry r)
        narrative)
    [ "collision-sent"; "collision-lost"; "collision-yield" ];

  (* Verify the invariant the waiting period protects: after everything
     settles, no two domains hold overlapping space. *)
  let all =
    List.concat_map
      (fun id ->
        List.map
          (fun (c : Masc_node.own_claim) -> (id, c.Masc_node.claim_prefix))
          (Masc_node.acquired_ranges (Masc_network.node net id)))
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let conflict =
    List.exists
      (fun (i, pi) ->
        List.exists (fun (j, pj) -> i <> j && Prefix.overlaps pi pj) all)
      all
  in
  Format.printf "@.Overlapping allocations remaining: %b@." conflict
