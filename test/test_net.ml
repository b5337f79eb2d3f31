(* Tests for mcast_net: the link-transport substrate shared by MASC,
   BGP and BGMP — FIFO channels, one up/down cell per endpoint pair and
   deterministic loss. *)

let check = Alcotest.check

let make ?config () =
  let engine = Engine.create () in
  let net = Net.create ~engine ?config () in
  (engine, net)

let test_channel_fifo_per_link () =
  let engine, net = make () in
  let got = ref [] in
  let ch =
    Net.channel net ~protocol:"t" ~src:0 ~dst:1 ~delay:1.0 ~recv:(fun m -> got := m :: !got)
  in
  for i = 1 to 5 do
    Net.send ch i
  done;
  Engine.run_until_idle engine;
  check (Alcotest.list Alcotest.int) "delivered in send order" [ 1; 2; 3; 4; 5 ]
    (List.rev !got);
  check Alcotest.int "sent" 5 (Net.sent net ~protocol:"t");
  check Alcotest.int "delivered" 5 (Net.delivered net ~protocol:"t");
  check Alcotest.int "dropped" 0 (Net.dropped net ~protocol:"t")

let test_equal_time_tie_break_is_send_order () =
  (* Two channels with the same delay, interleaved sends at the same
     instant: deliveries fire in exactly the send sequence (the engine
     heap breaks equal-time ties by scheduling order), so multi-channel
     runs are deterministic. *)
  let engine, net = make () in
  let got = ref [] in
  let lane tag src dst =
    Net.channel net ~protocol:"t" ~src ~dst ~delay:2.0 ~recv:(fun m ->
        got := (tag, m) :: !got)
  in
  let ab = lane "ab" 0 1 and ba = lane "ba" 1 0 and ac = lane "ac" 0 2 in
  Net.send ab 1;
  Net.send ba 2;
  Net.send ac 3;
  Net.send ab 4;
  Engine.run_until_idle engine;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "equal-time deliveries follow send order"
    [ ("ab", 1); ("ba", 2); ("ac", 3); ("ab", 4) ]
    (List.rev !got)

let loss_pattern ~seed =
  let engine, net =
    make ~config:{ Net.loss_rate = 0.3; loss_seed = seed } ()
  in
  let got = ref [] in
  let ch =
    Net.channel net ~protocol:"t" ~src:0 ~dst:1 ~delay:1.0 ~recv:(fun m -> got := m :: !got)
  in
  for i = 1 to 200 do
    Net.send ch i
  done;
  Engine.run_until_idle engine;
  (List.rev !got, Net.dropped net ~protocol:"t")

let test_seeded_loss_is_reproducible () =
  let d1, n1 = loss_pattern ~seed:7 in
  let d2, n2 = loss_pattern ~seed:7 in
  check (Alcotest.list Alcotest.int) "same seed, same survivors" d1 d2;
  check Alcotest.int "same seed, same drop count" n1 n2;
  check Alcotest.bool "rate 0.3 actually drops some" true (n1 > 0);
  check Alcotest.int "every message accounted for" 200 (List.length d1 + n1);
  let d3, _ = loss_pattern ~seed:8 in
  check Alcotest.bool "different seed, different pattern" true (d1 <> d3)

let test_fail_link_drops_in_flight () =
  let engine, net = make () in
  let got = ref [] in
  let ch =
    Net.channel net ~protocol:"t" ~src:0 ~dst:1 ~delay:10.0 ~recv:(fun m -> got := m :: !got)
  in
  Net.send ch 1;
  ignore (Engine.schedule_at engine 5.0 (fun () -> Net.fail_link net 0 1));
  Engine.run_until_idle engine;
  check (Alcotest.list Alcotest.int) "in-flight message lost" [] !got;
  check Alcotest.int "counted as dropped" 1 (Net.dropped net ~protocol:"t");
  (* Restoring before the would-be delivery time does not resurrect a
     message that was on the wire when the link died. *)
  Net.restore_link net 0 1;
  Net.send ch 2;
  ignore (Engine.schedule_at engine (Engine.now engine +. 1.0) (fun () ->
      Net.fail_link net 0 1;
      Net.restore_link net 0 1));
  Engine.run_until_idle engine;
  check (Alcotest.list Alcotest.int) "fail+restore inside the flight still loses it" [] !got;
  Net.send ch 3;
  Engine.run_until_idle engine;
  check (Alcotest.list Alcotest.int) "healthy link delivers again" [ 3 ] !got

let test_fail_restore_notify_on_transition_only () =
  let _engine, net = make () in
  let log = ref [] in
  Net.on_link_change net (fun a b ~up -> log := (a, b, up) :: !log);
  Net.fail_link net 2 3;
  Net.fail_link net 2 3;
  Net.fail_link net 3 2;
  Net.restore_link net 2 3;
  Net.restore_link net 2 3;
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.bool))
    "one notification per actual transition"
    [ (2, 3, false); (2, 3, true) ]
    (List.rev !log)

let test_on_drop_observer () =
  (* The drop observer must see both drop flavours: at the source (send
     on a downed link) and in flight (link fails before delivery),
     each with the lost message. *)
  let engine, net = make () in
  let dropped = ref [] in
  let got = ref [] in
  let ch =
    Net.channel net ~protocol:"t" ~src:0 ~dst:1 ~delay:1.0 ~recv:(fun m -> got := m :: !got)
  in
  Net.set_on_drop ch (fun m -> dropped := m :: !dropped);
  Net.send ch 1;
  (* In flight: 1 is on the wire when the link dies. *)
  Net.fail_link net 0 1;
  (* At source: the link is already down. *)
  Net.send ch 2;
  Engine.run_until_idle engine;
  check (Alcotest.list Alcotest.int) "observer saw both losses" [ 1; 2 ]
    (List.sort compare !dropped);
  check (Alcotest.list Alcotest.int) "nothing delivered" [] !got;
  (* After restore the observer stays quiet for successful sends. *)
  Net.restore_link net 0 1;
  Net.send ch 3;
  Engine.run_until_idle engine;
  check Alcotest.int "no new drops" 2 (List.length !dropped);
  check (Alcotest.list Alcotest.int) "delivered after restore" [ 3 ] !got

let test_set_loss_rate_phases () =
  (* The two-phase campaign shape: build state at rate zero (the RNG is
     never drawn), then turn loss on for the measurement window.  The
     lossy phase must be reproducible run-to-run. *)
  let run () =
    let engine, net = make () in
    let got = ref 0 in
    let ch =
      Net.channel net ~protocol:"t" ~src:0 ~dst:1 ~delay:0.5 ~recv:(fun _ -> incr got)
    in
    for i = 1 to 50 do
      Net.send ch i
    done;
    Engine.run_until_idle engine;
    check Alcotest.int "lossless phase delivers everything" 50 !got;
    Net.set_loss_rate net 0.3;
    for i = 1 to 200 do
      Net.send ch i
    done;
    Engine.run_until_idle engine;
    (Net.dropped net ~protocol:"t", !got)
  in
  let d1, g1 = run () in
  let d2, g2 = run () in
  check Alcotest.bool "lossy phase drops some" true (d1 > 0);
  check Alcotest.bool "lossy phase delivers some" true (g1 > 50);
  check Alcotest.int "drops reproducible" d1 d2;
  check Alcotest.int "deliveries reproducible" g1 g2;
  (* Rates outside [0, 1) are rejected. *)
  let _, net = make () in
  List.iter
    (fun rate ->
      check Alcotest.bool
        (Printf.sprintf "rate %.1f rejected" rate)
        true
        (try
           Net.set_loss_rate net rate;
           false
         with Invalid_argument _ -> true))
    [ -0.1; 1.0; 1.5 ]

(* One lane per protocol on the same pair: they share the pair's link
   cell, so link state acts on all of them alike. *)
let protocol_lanes net ~src ~dst ~delay got =
  List.map
    (fun p -> Net.channel net ~protocol:p ~src ~dst ~delay ~recv:(fun m -> got := (p, m) :: !got))
    [ "masc"; "bgp"; "bgmp" ]

let test_fail_link_drops_every_protocol () =
  let engine, net = make () in
  let got = ref [] in
  let lanes = protocol_lanes net ~src:4 ~dst:7 ~delay:2.0 got in
  List.iter (fun ch -> Net.send ch 1) lanes;
  ignore (Engine.schedule_at engine 1.0 (fun () -> Net.fail_link net 7 4));
  Engine.run_until_idle engine;
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "nothing lands" [] !got;
  List.iter
    (fun p ->
      check Alcotest.int (p ^ " lost in flight") 1 (Net.dropped net ~protocol:p);
      check Alcotest.int (p ^ " off the wire") 0 (Net.in_flight net ~protocol:p))
    [ "masc"; "bgp"; "bgmp" ]

let test_late_channel_sees_link_state () =
  (* Channels made after a failure, in either direction, share the
     failed pair's cell; the healthy pair delivers both ways. *)
  let engine, net = make () in
  Net.fail_link net 1 0;
  let got = ref [] in
  let lanes =
    List.map
      (fun (src, dst) ->
        Net.channel net ~protocol:"t" ~src ~dst ~delay:1.0 ~recv:(fun m -> got := m :: !got))
      [ (0, 1); (1, 0); (2, 3); (3, 2) ]
  in
  List.iteri (fun i ch -> Net.send ch i) lanes;
  Engine.run_until_idle engine;
  check (Alcotest.list Alcotest.int) "only the healthy pair delivers" [ 2; 3 ] (List.rev !got);
  check Alcotest.int "both directions dropped at the source" 2 (Net.dropped net ~protocol:"t")

let test_fail_restore_within_flight () =
  (* The epoch, not the up/down bit, decides: a message sent before a
     fail and delivered after the restore is still lost, on every lane
     of the pair, while one sent after the restore lands. *)
  let engine, net = make () in
  let got = ref [] in
  let lanes = protocol_lanes net ~src:0 ~dst:1 ~delay:4.0 got in
  List.iter (fun ch -> Net.send ch 1) lanes;
  ignore
    (Engine.schedule_at engine 1.0 (fun () ->
         Net.fail_link net 0 1;
         Net.restore_link net 0 1;
         List.iter (fun ch -> Net.send ch 2) lanes));
  Engine.run_until_idle engine;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "only post-restore sends land"
    [ ("masc", 2); ("bgp", 2); ("bgmp", 2) ]
    (List.rev !got)

let test_rejects_nan () =
  let _, net = make () in
  Test_sim.rejects "create with NaN loss" (fun () ->
      ignore (make ~config:{ Net.default_config with Net.loss_rate = Float.nan } ()));
  Test_sim.rejects "set_loss_rate NaN" (fun () -> Net.set_loss_rate net Float.nan);
  Test_sim.rejects "channel with NaN delay" (fun () ->
      ignore (Net.channel net ~protocol:"t" ~src:0 ~dst:1 ~delay:Float.nan ~recv:ignore))

let test_send_allocation () =
  let engine, net = make () in
  let ch = Net.channel net ~protocol:"t" ~src:0 ~dst:1 ~delay:1.0 ~recv:ignore in
  let bytes =
    Test_sim.minor_bytes_per ~n:1000 (fun n ->
        for i = 1 to n do
          Net.send ch i
        done;
        Engine.run_until_idle engine)
  in
  Printf.printf "net send: %.3f B\n" bytes;
  (* A warmed ring allocates nothing per message; a dev build (no
     cross-module inlining) boxes one gauge float per message, and the
     run itself adds a few words per batch (under 1 B per message). *)
  let budget = if Build_profile.name = "dev" then 17.0 else 1.0 in
  check Alcotest.bool
    (Printf.sprintf "send + delivery allocates %.1f B <= %.0f B" bytes budget)
    true (bytes <= budget)

let test_ring_fifo_across_wrap_and_growth () =
  (* Seeded bursts every 0.1 s over a 1 s lane: deliveries interleave
     with sends, so the ring wraps and grows with its head mid-array,
     and every message must still land exactly once, in send order. *)
  let engine, net = make () in
  let got = ref [] in
  let ch =
    Net.channel net ~protocol:"t" ~src:0 ~dst:1 ~delay:1.0 ~recv:(fun m -> got := m :: !got)
  in
  let rng = Rng.create 11 in
  let next = ref 0 in
  for step = 0 to 199 do
    let burst = if step mod 50 < 25 then Rng.int rng 4 else Rng.int rng 2 in
    ignore
      (Engine.schedule_at engine (0.1 *. float_of_int step) (fun () ->
           for _ = 1 to burst do
             incr next;
             Net.send ch !next
           done))
  done;
  Engine.run_until_idle engine;
  check (Alcotest.list Alcotest.int) "every message, in send order" (List.init !next succ)
    (List.rev !got);
  check Alcotest.int "nothing left in flight" 0 (Net.in_flight net ~protocol:"t")

let test_ring_epoch_drop_after_wrap () =
  (* a goes out at 0 and b at 0.5; a lands at 1, so c (sent at 1.1)
     wraps to the ring's first slot.  A fail+restore at 1.4 loses b and
     c in flight — the observer sees them in queue order — and d, sent
     after, lands. *)
  let engine, net = make () in
  let got = ref [] and dropped = ref [] in
  let ch =
    Net.channel net ~protocol:"t" ~src:0 ~dst:1 ~delay:1.0 ~recv:(fun m -> got := m :: !got)
  in
  Net.set_on_drop ch (fun m -> dropped := m :: !dropped);
  let at time f = ignore (Engine.schedule_at engine time f) in
  Net.send ch "a";
  at 0.5 (fun () -> Net.send ch "b");
  at 1.1 (fun () -> Net.send ch "c");
  at 1.4 (fun () ->
      Net.fail_link net 0 1;
      Net.restore_link net 0 1);
  at 1.6 (fun () -> Net.send ch "d");
  Engine.run_until_idle engine;
  check (Alcotest.list Alcotest.string) "delivered" [ "a"; "d" ] (List.rev !got);
  check (Alcotest.list Alcotest.string) "lost in flight, in queue order" [ "b"; "c" ]
    (List.rev !dropped);
  check Alcotest.int "in flight" 0 (Net.in_flight net ~protocol:"t")

(* Sends a fresh message and span, remembered only weakly. *)
let[@inline never] send_tracked ch refs i =
  let msg = Bytes.make 64 'm' and span = Span.root "ring" in
  Weak.set refs (2 * i) (Some (Obj.repr msg));
  Weak.set refs ((2 * i) + 1) (Some (Obj.repr span));
  Net.send ch ~span msg

let test_ring_releases_delivered () =
  (* A delivered or dropped message leaves nothing reachable behind in
     its ring slot: neither the message nor its span. *)
  let engine, net = make () in
  let ch = Net.channel net ~protocol:"t" ~src:0 ~dst:1 ~delay:1.0 ~recv:ignore in
  let refs = Weak.create 6 in
  for i = 0 to 2 do
    send_tracked ch refs i
  done;
  let alive () = List.filter (fun i -> Weak.check refs i) (List.init 6 Fun.id) in
  Gc.full_major ();
  check (Alcotest.list Alcotest.int) "queued: all held" [ 0; 1; 2; 3; 4; 5 ] (alive ());
  ignore (Engine.schedule_at engine 0.5 (fun () -> Net.fail_link net 0 1));
  Engine.run_until_idle engine;
  Gc.full_major ();
  check (Alcotest.list Alcotest.int) "dropped: none held" [] (alive ());
  Net.restore_link net 0 1;
  send_tracked ch refs 0;
  Engine.run_until_idle engine;
  Gc.full_major ();
  check (Alcotest.list Alcotest.int) "delivered: none held" [] (alive ())

(* A reset net is a fresh one with the same channels: messages on the
   wire dropped, links up at epoch 0, counts zero, the loss RNG and
   loss rate and seed back to the given ones. *)
let test_reset_reads_like_fresh () =
  let lossy = { Net.loss_rate = 0.3; loss_seed = 4 } in
  let run engine net ch got =
    for i = 1 to 40 do
      ignore (Engine.schedule_at engine (float_of_int i) (fun () -> Net.send ch i))
    done;
    Engine.run_until_idle engine;
    (List.rev !got, Net.sent net ~protocol:"t", Net.dropped net ~protocol:"t")
  in
  let engine, net = make ~config:lossy () in
  let got = ref [] in
  let ch =
    Net.channel net ~protocol:"t" ~src:0 ~dst:1 ~delay:5.0 ~recv:(fun m -> got := m :: !got)
  in
  Net.send ch 0;
  Net.fail_link net 0 1;
  Net.restore_link net 1 0;
  Net.set_loss_rate net 0.9;
  Net.fail_link net 1 0;
  Engine.reset engine;
  Net.reset net ~loss_rate:lossy.Net.loss_rate ~loss_seed:lossy.Net.loss_seed;
  check Alcotest.int "nothing in flight" 0 (Net.in_flight net ~protocol:"t");
  check Alcotest.int "counts zero" 0 (Net.sent net ~protocol:"t");
  got := [];
  let reused = run engine net ch got in
  let engine', net' = make ~config:lossy () in
  let got' = ref [] in
  let ch' =
    Net.channel net' ~protocol:"t" ~src:0 ~dst:1 ~delay:5.0 ~recv:(fun m -> got' := m :: !got')
  in
  check Alcotest.bool "same deliveries and drops" true (reused = run engine' net' ch' got')

let suite =
  [
    ("reset reads like fresh", `Quick, test_reset_reads_like_fresh);
    ("channel fifo per link", `Quick, test_channel_fifo_per_link);
    ("on_drop observer", `Quick, test_on_drop_observer);
    ("set_loss_rate phases", `Quick, test_set_loss_rate_phases);
    ("equal-time tie-break is send order", `Quick, test_equal_time_tie_break_is_send_order);
    ("seeded loss is reproducible", `Quick, test_seeded_loss_is_reproducible);
    ("fail_link drops in-flight", `Quick, test_fail_link_drops_in_flight);
    ("fail/restore notify on transition only", `Quick, test_fail_restore_notify_on_transition_only);
    ("fail_link drops every protocol's lane", `Quick, test_fail_link_drops_every_protocol);
    ("late channel sees link state", `Quick, test_late_channel_sees_link_state);
    ("fail+restore within one flight", `Quick, test_fail_restore_within_flight);
    ("rejects NaN", `Quick, test_rejects_nan);
    ("send allocation", `Quick, test_send_allocation);
    ("ring FIFO across wrap and growth", `Quick, test_ring_fifo_across_wrap_and_growth);
    ("ring epoch drop after a wrap", `Quick, test_ring_epoch_drop_after_wrap);
    ("ring releases delivered slots", `Quick, test_ring_releases_delivered);
  ]
