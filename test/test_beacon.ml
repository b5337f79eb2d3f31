(* Tests for mcast_beacon: the delivery-matrix accumulator, the beacon
   fleet over a live fabric, and the campaign driver (determinism
   across seeds and job counts, loss accounting, churn). *)

let check = Alcotest.check

let h d i = Host_ref.make d i

(* --- Beacon_matrix ----------------------------------------------------- *)

let test_matrix_expect_deliver_cell () =
  let m = Beacon_matrix.create () in
  let s = Beacon_matrix.slot m ~src:(h 0 1) ~dst:(h 2 0) in
  Beacon_matrix.expect_slot s;
  Beacon_matrix.expect_slot s;
  Beacon_matrix.deliver_slot s ~latency:0.02 ~hops:2 ~spf_dist:2;
  Beacon_matrix.deliver_slot s ~latency:0.04 ~hops:4 ~spf_dist:2;
  match Beacon_matrix.cells m with
  | [ c ] ->
      check Alcotest.int "sent" 2 c.Beacon_matrix.c_sent;
      check Alcotest.int "got" 2 c.Beacon_matrix.c_got;
      check (Alcotest.float 1e-9) "loss" 0.0 c.Beacon_matrix.c_loss;
      check (Alcotest.float 1e-9) "lat mean" 0.03 c.Beacon_matrix.c_lat_mean;
      check (Alcotest.float 1e-9) "lat max" 0.04 c.Beacon_matrix.c_lat_max;
      check (Alcotest.float 1e-9) "hops mean" 3.0 c.Beacon_matrix.c_hops_mean;
      check (Alcotest.float 1e-9) "stretch mean" 1.5 c.Beacon_matrix.c_stretch_mean;
      check (Alcotest.float 1e-9) "stretch max" 2.0 c.Beacon_matrix.c_stretch_max
  | cs -> Alcotest.fail (Printf.sprintf "expected one cell, got %d" (List.length cs))

let test_matrix_same_domain_stretch_is_one () =
  (* spf_dist 0 (same domain) must observe stretch 1.0, matching a
     zero-hop interior delivery, not a division by zero. *)
  let m = Beacon_matrix.create () in
  let s = Beacon_matrix.slot m ~src:(h 3 0) ~dst:(h 3 1) in
  Beacon_matrix.expect_slot s;
  Beacon_matrix.deliver_slot s ~latency:0.0 ~hops:0 ~spf_dist:0;
  match Beacon_matrix.cells m with
  | [ c ] ->
      check (Alcotest.float 1e-9) "stretch" 1.0 c.Beacon_matrix.c_stretch_mean
  | _ -> Alcotest.fail "expected one cell"

let test_matrix_summary_loss_unreachable_asymmetric () =
  let m = Beacon_matrix.create () in
  let a = h 0 0 and b = h 1 0 in
  (* a->b fully delivered, b->a fully lost: one unreachable pair, one
     asymmetric unordered pair, aggregate loss 1/2. *)
  let ab = Beacon_matrix.slot m ~src:a ~dst:b in
  Beacon_matrix.expect_slot ab;
  Beacon_matrix.deliver_slot ab ~latency:0.01 ~hops:1 ~spf_dist:1;
  Beacon_matrix.expect_slot (Beacon_matrix.slot m ~src:b ~dst:a);
  let s = Beacon_matrix.summary (Beacon_matrix.cells m) in
  check Alcotest.int "pairs" 2 s.Beacon_matrix.s_pairs;
  check Alcotest.int "sent" 2 s.Beacon_matrix.s_sent;
  check Alcotest.int "got" 1 s.Beacon_matrix.s_got;
  check Alcotest.int "lost" 1 s.Beacon_matrix.s_lost;
  check (Alcotest.float 1e-9) "loss" 0.5 s.Beacon_matrix.s_loss;
  check Alcotest.int "unreachable" 1 s.Beacon_matrix.s_unreachable;
  check Alcotest.int "asymmetric" 1 s.Beacon_matrix.s_asymmetric;
  check Alcotest.bool "not complete" false s.Beacon_matrix.s_complete

let test_matrix_merge_matches_direct () =
  (* Folding two shard matrices must equal accumulating directly. *)
  let direct = Beacon_matrix.create () in
  let m1 = Beacon_matrix.create () and m2 = Beacon_matrix.create () in
  let feed m ~src ~dst lat hops =
    let s = Beacon_matrix.slot m ~src ~dst in
    Beacon_matrix.expect_slot s;
    Beacon_matrix.deliver_slot s ~latency:lat ~hops ~spf_dist:2
  in
  feed direct ~src:(h 0 0) ~dst:(h 1 0) 0.01 2;
  feed direct ~src:(h 0 0) ~dst:(h 1 0) 0.03 4;
  feed direct ~src:(h 2 0) ~dst:(h 1 0) 0.05 2;
  feed m1 ~src:(h 0 0) ~dst:(h 1 0) 0.01 2;
  feed m2 ~src:(h 0 0) ~dst:(h 1 0) 0.03 4;
  feed m2 ~src:(h 2 0) ~dst:(h 1 0) 0.05 2;
  let merged = Beacon_matrix.create () in
  Beacon_matrix.merge_into ~into:merged m1;
  Beacon_matrix.merge_into ~into:merged m2;
  check Alcotest.bool "merged cells equal direct cells" true
    (Beacon_matrix.cells merged = Beacon_matrix.cells direct)

let test_matrix_worst_ordering () =
  let m = Beacon_matrix.create () in
  (* (0,1): loss 0; (2,3): loss 1; (4,5): loss 0.5. *)
  let s01 = Beacon_matrix.slot m ~src:(h 0 0) ~dst:(h 1 0) in
  let s23 = Beacon_matrix.slot m ~src:(h 2 0) ~dst:(h 3 0) in
  let s45 = Beacon_matrix.slot m ~src:(h 4 0) ~dst:(h 5 0) in
  Beacon_matrix.expect_slot s01;
  Beacon_matrix.deliver_slot s01 ~latency:0.01 ~hops:1 ~spf_dist:1;
  Beacon_matrix.expect_slot s23;
  Beacon_matrix.expect_slot s45;
  Beacon_matrix.expect_slot s45;
  Beacon_matrix.deliver_slot s45 ~latency:0.01 ~hops:1 ~spf_dist:1;
  let worst = Beacon_matrix.worst (Beacon_matrix.cells m) ~n:2 in
  check Alcotest.int "two rows" 2 (List.length worst);
  let srcs = List.map (fun c -> c.Beacon_matrix.c_src.Host_ref.host_domain) worst in
  check (Alcotest.list Alcotest.int) "highest loss first" [ 2; 4 ] srcs

let test_matrix_jsonl_roundtrip () =
  let m = Beacon_matrix.create () in
  let s = Beacon_matrix.slot m ~src:(h 0 1) ~dst:(h 2 0) in
  Beacon_matrix.expect_slot s;
  Beacon_matrix.deliver_slot s ~latency:0.025 ~hops:3 ~spf_dist:2;
  Beacon_matrix.expect_slot (Beacon_matrix.slot m ~src:(h 2 0) ~dst:(h 0 1));
  let cells = Beacon_matrix.cells m in
  let path = Filename.temp_file "matrix" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Beacon_matrix.write_jsonl ~meta:[ ("loss", 0.5); ("trials", 1.0) ] path cells;
      let meta, loaded, bad = Beacon_matrix.load_jsonl_counted path in
      check Alcotest.int "no malformed lines" 0 bad;
      check Alcotest.int "cells survive" (List.length cells) (List.length loaded);
      check Alcotest.bool "summaries equal" true
        (Beacon_matrix.summary loaded = Beacon_matrix.summary cells);
      check (Alcotest.float 1e-9) "meta loss" 0.5 (List.assoc "loss" meta);
      check (Alcotest.float 1e-9) "meta trials" 1.0 (List.assoc "trials" meta))

(* --- Beacon fleet over a live fabric ----------------------------------- *)

let g = Ipv4.of_string "224.0.128.1"

let make_fabric topo ~root_name =
  let engine = Engine.create () in
  let net = Net.create ~engine () in
  let root = Option.get (Topo.find_by_name topo root_name) in
  let paths = Spf.bfs topo root in
  let route_to_root d _g =
    if d = root then Bgmp_fabric.Root_here
    else
      match Spf.next_hop_toward topo paths d with
      | Some nh -> Bgmp_fabric.Via nh
      | None -> Bgmp_fabric.Unroutable
  in
  let fabric = Bgmp_fabric.create ~engine ~topo ~net ~route_to_root () in
  (engine, net, fabric)

let dom topo name = Option.get (Topo.find_by_name topo name)

let fleet_config =
  { Beacon.period = 0.5; probes_per_source = 3; harvest_after = 0.5; stagger = 0.05 }

(* Runs [f] under a fresh registry and returns the
   [beacon.probes_outstanding] gauge it left: the probes sent that no
   harvest has closed yet. *)
let outstanding_after f =
  let left, _shard =
    Obs.capture (fun () ->
        f ();
        Metrics.find (Metrics.snapshot (Metrics.current ())) "beacon.probes_outstanding")
  in
  match left with
  | Some (Metrics.Gauge_v v) -> v
  | Some _ | None -> Alcotest.fail "beacon.probes_outstanding was never set"

let test_beacon_fleet_complete_at_loss_zero () =
  let topo = Gen.figure1 () in
  let engine, _net, fabric = make_fabric topo ~root_name:"B" in
  let beacon = Beacon.create ~engine ~topo ~fabric ~config:fleet_config in
  let c = h (dom topo "C") 0 and f = h (dom topo "F") 0 and e = h (dom topo "E") 9 in
  Beacon.add_listener beacon ~group:g ~host:c;
  Beacon.add_listener beacon ~group:g ~host:f;
  Beacon.add_source beacon ~group:g ~host:e;
  Engine.run_until_idle engine;
  let outstanding =
    outstanding_after (fun () ->
        Beacon.start beacon ~at:(Engine.now engine);
        Engine.run_until_idle engine)
  in
  check Alcotest.int "probes sent" 3 (Beacon.probes_sent beacon);
  check Alcotest.int "deliveries" 6 (Beacon.deliveries beacon);
  check Alcotest.int "nothing lost" 0 (Beacon.lost beacon);
  check (Alcotest.float 0.0) "nothing outstanding" 0.0 outstanding;
  let s = Beacon_matrix.summary (Beacon_matrix.cells (Beacon.matrix beacon)) in
  check Alcotest.int "two pairs" 2 s.Beacon_matrix.s_pairs;
  check Alcotest.bool "complete" true s.Beacon_matrix.s_complete;
  check Alcotest.bool "latency observed" true (s.Beacon_matrix.s_lat_mean > 0.0)

let test_beacon_fleet_accounts_lost_probes () =
  (* Cut C's tree link (the root B peers with C directly in figure 1)
     after convergence: every probe copy bound for C is written off by
     the harvests; F keeps hearing probes. *)
  let topo = Gen.figure1 () in
  let engine, net, fabric = make_fabric topo ~root_name:"B" in
  let beacon = Beacon.create ~engine ~topo ~fabric ~config:fleet_config in
  let cdom = dom topo "C" in
  Beacon.add_listener beacon ~group:g ~host:(h cdom 0);
  Beacon.add_listener beacon ~group:g ~host:(h (dom topo "F") 0);
  Beacon.add_source beacon ~group:g ~host:(h (dom topo "E") 9);
  Engine.run_until_idle engine;
  Net.fail_link net cdom (dom topo "B");
  let outstanding =
    outstanding_after (fun () ->
        Beacon.start beacon ~at:(Engine.now engine);
        Engine.run_until_idle engine)
  in
  check Alcotest.int "probes sent" 3 (Beacon.probes_sent beacon);
  check Alcotest.int "C's copies lost" 3 (Beacon.lost beacon);
  check Alcotest.int "F's copies arrived" 3 (Beacon.deliveries beacon);
  check (Alcotest.float 0.0) "accounting closed" 0.0 outstanding;
  let s = Beacon_matrix.summary (Beacon_matrix.cells (Beacon.matrix beacon)) in
  check Alcotest.int "one unreachable pair" 1 s.Beacon_matrix.s_unreachable;
  check Alcotest.bool "not complete" false s.Beacon_matrix.s_complete

let test_beacon_lost_in_registration_order () =
  (* Listeners registered out of host order; cutting C-B strands C's
     two hosts and G (C's customer).  Each harvest names the missing
     receivers in registration order, and the totals equal a plain
     list-based tally over the registrations. *)
  let topo = Gen.figure1 () in
  let engine, net, fabric = make_fabric topo ~root_name:"B" in
  (* The probe-lost narrative is read back from the flight recorder. *)
  Recorder.enable ~retain:Recorder.Keep_all ();
  Fun.protect ~finally:Recorder.disable @@ fun () ->
  let beacon = Beacon.create ~engine ~topo ~fabric ~config:fleet_config in
  let cdom = dom topo "C" in
  let listeners = [ h cdom 3; h (dom topo "F") 0; h (dom topo "G") 0; h cdom 1 ] in
  List.iter (fun host -> Beacon.add_listener beacon ~group:g ~host) listeners;
  Beacon.add_source beacon ~group:g ~host:(h (dom topo "E") 9);
  Engine.run_until_idle engine;
  Net.fail_link net cdom (dom topo "B");
  Beacon.start beacon ~at:(Engine.now engine);
  Engine.run_until_idle engine;
  let stranded host = host.Host_ref.host_domain <> dom topo "F" in
  let missing = List.filter stranded listeners in
  let probes = fleet_config.Beacon.probes_per_source in
  let receiver r =
    let d = Option.get r.Recorder.r_detail in
    let marker = "never reached " in
    let i = Str.search_forward (Str.regexp_string marker) d 0 + String.length marker in
    String.sub d i (String.length d - i)
  in
  check
    (Alcotest.list Alcotest.string)
    "probe-lost entries in registration order, per probe"
    (List.concat (List.init probes (fun _ -> List.map (Format.asprintf "%a" Host_ref.pp) missing)))
    (List.map receiver
       (List.filter (fun r -> r.Recorder.r_label = "probe-lost") (Recorder.recent ())));
  let s = Beacon_matrix.summary (Beacon_matrix.cells (Beacon.matrix beacon)) in
  check Alcotest.int "lost = list-based tally" (probes * List.length missing) (Beacon.lost beacon);
  check Alcotest.int "matrix sent - got = lost" (Beacon.lost beacon)
    (s.Beacon_matrix.s_sent - s.Beacon_matrix.s_got);
  check Alcotest.int "delivered = list-based tally"
    (probes * (List.length listeners - List.length missing))
    (Beacon.deliveries beacon)

(* --- Beacon_campaign --------------------------------------------------- *)

let small p = { p with Beacon_campaign.domains = 8; per_domain = 1; probes = 2 }

let test_campaign_loss_zero_complete () =
  let r = Beacon_campaign.run (small Beacon_campaign.default_params) in
  (match r.Beacon_campaign.trials with
  | [ t ] ->
      check Alcotest.int "14 domains (2x3 transit-stub rounding)" 14
        t.Beacon_campaign.r_domains;
      check Alcotest.int "sources = fleets + session beacons" 28 t.Beacon_campaign.r_sources;
      check Alcotest.bool "data crossed domain borders" true
        (t.Beacon_campaign.r_data_msgs > 0);
      check Alcotest.int "no duplicates" 0 t.Beacon_campaign.r_duplicates;
      check Alcotest.int "no net drops" 0 t.Beacon_campaign.r_net_dropped;
      check Alcotest.bool "probing starts after convergence" true
        (t.Beacon_campaign.r_first_probe_s >= t.Beacon_campaign.r_converged_s)
  | ts -> Alcotest.fail (Printf.sprintf "expected one trial, got %d" (List.length ts)));
  check Alcotest.bool "matrix complete at loss zero" true
    r.Beacon_campaign.agg.Beacon_matrix.s_complete;
  check Alcotest.int "no unreachable pairs" 0
    r.Beacon_campaign.agg.Beacon_matrix.s_unreachable;
  check Alcotest.bool "stretch measured" true
    (r.Beacon_campaign.agg.Beacon_matrix.s_stretch_mean >= 1.0)

let lossy_params =
  { (small Beacon_campaign.default_params) with Beacon_campaign.trials = 3; loss = 0.05 }

let test_campaign_jobs_invariant () =
  (* The matrix is an aggregate over trials merged in task order: the
     worker count must be unobservable. *)
  let r1 = Beacon_campaign.run ~jobs:1 lossy_params in
  let r2 = Beacon_campaign.run ~jobs:2 lossy_params in
  check Alcotest.bool "cells identical at --jobs 1 and 2" true
    (r1.Beacon_campaign.cells = r2.Beacon_campaign.cells);
  check Alcotest.bool "summary identical" true
    (r1.Beacon_campaign.agg = r2.Beacon_campaign.agg);
  check Alcotest.bool "some probes actually dropped" true
    (r1.Beacon_campaign.agg.Beacon_matrix.s_lost > 0)

let test_campaign_seed_determinism () =
  let r1 = Beacon_campaign.run lossy_params in
  let r2 = Beacon_campaign.run lossy_params in
  check Alcotest.bool "same seed, same matrix" true
    (r1.Beacon_campaign.cells = r2.Beacon_campaign.cells);
  let r3 = Beacon_campaign.run { lossy_params with Beacon_campaign.seed = 4242 } in
  check Alcotest.bool "different seed, different loss pattern" false
    (r1.Beacon_campaign.cells = r3.Beacon_campaign.cells)

let test_campaign_churn_loses_probes () =
  (* Link churn mid-window at loss zero: the failed uplink is the only
     loss source, so lost > 0 comes from the outage alone. *)
  let p = { (small Beacon_campaign.default_params) with Beacon_campaign.churn = true } in
  let r = Beacon_campaign.run p in
  (match r.Beacon_campaign.trials with
  | [ t ] ->
      check Alcotest.bool "churn lost probes" true (t.Beacon_campaign.r_lost > 0);
      check Alcotest.int "no duplicates under churn" 0 t.Beacon_campaign.r_duplicates
  | _ -> Alcotest.fail "expected one trial");
  check Alcotest.bool "matrix not complete" false
    r.Beacon_campaign.agg.Beacon_matrix.s_complete

(* A one-trial campaign reads its trial's matrix directly and finds a
   cell's reverse pair by binary search; the reference merges into a
   fresh matrix, sorts a list and keys a table by (src, dst). *)
let test_campaign_matrix_matches_reference () =
  let p = { Beacon_campaign.default_params with Beacon_campaign.loss = 0.05; churn = true } in
  let r = Beacon_campaign.run ~jobs:1 p in
  let matrices = List.map (fun t -> t.Beacon_campaign.r_matrix) r.Beacon_campaign.trials in
  let cells = r.Beacon_campaign.cells in
  check Alcotest.bool "cells equal the merged, list-sorted reference" true
    (cells = Matrix_reference.cells matrices);
  check Alcotest.bool "summary equals the table-keyed reference" true
    (r.Beacon_campaign.agg = Matrix_reference.summary cells);
  check Alcotest.bool "some pairs asymmetric" true
    (r.Beacon_campaign.agg.Beacon_matrix.s_asymmetric > 0);
  let shuffled = Matrix_reference.shuffle ~seed:7 cells in
  check Alcotest.bool "the shuffle moved cells" false (shuffled = cells);
  check Alcotest.bool "summary of shuffled cells equals summary of sorted" true
    (Beacon_matrix.summary shuffled = Beacon_matrix.summary cells);
  (* A pair listed twice: the later cell is the one a reverse lookup
     finds, in the table and the binary search alike. *)
  let c = List.find (fun c -> Host_ref.compare c.Beacon_matrix.c_src c.c_dst > 0) cells in
  let twice = cells @ [ { c with Beacon_matrix.c_loss = c.Beacon_matrix.c_loss +. 0.5 } ] in
  List.iter
    (fun cs ->
      check Alcotest.int "a repeated pair's last cell wins"
        (Matrix_reference.summary cs).Beacon_matrix.s_asymmetric
        (Beacon_matrix.summary cs).Beacon_matrix.s_asymmetric)
    [ twice; Matrix_reference.shuffle ~seed:3 twice ]

(* With the recorder off, no narrative site formats or builds its
   arguments: a lossy campaign's minor words per probe event (data
   message or delivery) are pinned at the counts measured with every
   site guarded, 30.214 (dev) and 23.331 (release) over 3733 events
   with 322 lost deliveries.  Unguarded, the [probe-lost] loop alone
   measured 32.974 and 26.091. *)
let test_campaign_recorder_off_allocation () =
  let p =
    { Beacon_campaign.default_params with Beacon_campaign.domains = 20; probes = 5; loss = 0.05 }
  in
  check Alcotest.bool "recorder off" false (Recorder.is_enabled ());
  (* A first run registers the instruments and grows the tables a
     second run reuses. *)
  ignore (Beacon_campaign.run ~jobs:1 p);
  let w0 = Gc.minor_words () in
  let r = Beacon_campaign.run ~jobs:1 p in
  let w1 = Gc.minor_words () in
  let events =
    List.fold_left
      (fun n t -> n + t.Beacon_campaign.r_data_msgs + t.Beacon_campaign.r_deliveries)
      0 r.Beacon_campaign.trials
  in
  check Alcotest.bool "probes were lost" true
    (r.Beacon_campaign.agg.Beacon_matrix.s_lost > 0);
  let per_event = (w1 -. w0) /. float_of_int events in
  let bound = if Build_profile.name = "dev" then 30.22 else 23.34 in
  check Alcotest.bool
    (Printf.sprintf "a probe event allocates %.2f words <= %.2f" per_event bound)
    true (per_event <= bound)

let test_campaign_rejects_bad_params () =
  check Alcotest.bool "zero trials rejected" true
    (try
       ignore (Beacon_campaign.run { Beacon_campaign.default_params with trials = 0 });
       false
     with Invalid_argument _ -> true);
  let ts = Timeseries.create (Filename.concat (Filename.get_temp_dir_name ()) "unwritten.jsonl") in
  check Alcotest.bool "telemetry with multiple trials rejected" true
    (try
       ignore
         (Beacon_campaign.run
            { Beacon_campaign.default_params with trials = 2; telemetry = Some (ts, 0.1) });
       false
     with Invalid_argument _ -> true)

let test_campaign_telemetry_series () =
  let file = Filename.temp_file "beacon" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let ts = Timeseries.create file in
      let p =
        { (small Beacon_campaign.default_params) with
          Beacon_campaign.telemetry = Some (ts, 0.25)
        }
      in
      let r = Beacon_campaign.run p in
      Timeseries.close ts;
      check Alcotest.bool "campaign ran" true (r.Beacon_campaign.agg.Beacon_matrix.s_sent > 0);
      let points, bad = Timeseries.load_jsonl_counted file in
      check Alcotest.int "no malformed line" 0 bad;
      let series = Timeseries.series_of points in
      check (Alcotest.list Alcotest.string) "the fleet's four series"
        [ "beacon.probes_outstanding"; "beacon.probes_sent"; "beacon.deliveries"; "beacon.lost" ]
        (List.map fst series);
      let sent = List.assoc "beacon.probes_sent" series in
      check Alcotest.bool "the sampler drove several rows" true (Array.length sent > 1);
      check (Alcotest.float 0.0) "the final row counts every probe"
        (float_of_int
           (List.fold_left (fun acc t -> acc + t.Beacon_campaign.r_probes_sent) 0
              r.Beacon_campaign.trials))
        (snd sent.(Array.length sent - 1)))

(* --- Campaign verdict --------------------------------------------------- *)

(* A hand-built campaign result: one trial per entry of [dups] (its
   duplicate count), and an aggregate summary with the given counts. *)
let fake_result ?(dups = [ 0 ]) ~sent ~got ~lost ~complete () =
  let trial i d =
    {
      Beacon_campaign.r_trial = i;
      r_seed = 0;
      r_domains = 14;
      r_sources = 28;
      r_probes_sent = 56;
      r_deliveries = got;
      r_lost = lost;
      r_duplicates = d;
      r_data_msgs = 0;
      r_net_sent = 0;
      r_net_dropped = 0;
      r_converged_s = 0.0;
      r_first_probe_s = 0.0;
      r_last_harvest_s = 0.0;
      r_matrix = Beacon_matrix.create ();
    }
  in
  {
    Beacon_campaign.trials = List.mapi trial dups;
    cells = [];
    agg =
      {
        (Beacon_matrix.summary []) with
        Beacon_matrix.s_sent = sent;
        s_got = got;
        s_lost = lost;
        s_complete = complete;
      };
  }

let verdict ?(p = Beacon_campaign.default_params) r =
  List.map
    (fun (v : Invariant.violation) -> (v.Invariant.inv, v.Invariant.detail))
    (Invariant.check (Beacon_campaign.invariants p r))

let violations = Alcotest.(list (pair string string))

let test_verdict_clean () =
  check violations "consistent complete result" []
    (verdict (fake_result ~sent:10 ~got:10 ~lost:0 ~complete:true ()));
  check (Alcotest.list Alcotest.string) "three predicates"
    [ "beacon-conservation"; "bgmp-no-duplicates"; "beacon-complete-after-heal" ]
    (Invariant.names
       (Beacon_campaign.invariants Beacon_campaign.default_params
          (fake_result ~sent:0 ~got:0 ~lost:0 ~complete:true ())))

let test_verdict_conservation () =
  check violations "sent <> got + lost"
    [ ("beacon-conservation", "10 probes expected but 7+2 accounted") ]
    (verdict (fake_result ~sent:10 ~got:7 ~lost:2 ~complete:true ()))

let test_verdict_duplicates () =
  check violations "one violation per duplicating trial"
    [
      ("bgmp-no-duplicates", "trial 1 delivered 3 duplicate copies");
      ("bgmp-no-duplicates", "trial 2 delivered 1 duplicate copies");
    ]
    (verdict (fake_result ~dups:[ 0; 3; 1 ] ~sent:10 ~got:10 ~lost:0 ~complete:true ()))

let test_verdict_complete_after_heal () =
  let incomplete = fake_result ~sent:10 ~got:8 ~lost:2 ~complete:false () in
  check violations "lossless, churn-free, incomplete"
    [ ("beacon-complete-after-heal", "incomplete matrix despite loss=0 and no churn") ]
    (verdict incomplete);
  check violations "vacuous under loss" []
    (verdict ~p:{ Beacon_campaign.default_params with Beacon_campaign.loss = 0.05 } incomplete);
  check violations "vacuous under churn" []
    (verdict ~p:{ Beacon_campaign.default_params with Beacon_campaign.churn = true } incomplete)

let suite =
  [
    ("matrix expect/deliver cell", `Quick, test_matrix_expect_deliver_cell);
    ("matrix same-domain stretch", `Quick, test_matrix_same_domain_stretch_is_one);
    ("matrix summary loss/unreachable/asymmetric", `Quick, test_matrix_summary_loss_unreachable_asymmetric);
    ("matrix merge matches direct", `Quick, test_matrix_merge_matches_direct);
    ("matrix worst ordering", `Quick, test_matrix_worst_ordering);
    ("matrix jsonl roundtrip", `Quick, test_matrix_jsonl_roundtrip);
    ("fleet complete at loss zero", `Quick, test_beacon_fleet_complete_at_loss_zero);
    ("fleet accounts lost probes", `Quick, test_beacon_fleet_accounts_lost_probes);
    ("fleet lost in registration order", `Quick, test_beacon_lost_in_registration_order);
    ("campaign loss zero complete", `Quick, test_campaign_loss_zero_complete);
    ("campaign jobs invariant", `Quick, test_campaign_jobs_invariant);
    ("campaign seed determinism", `Quick, test_campaign_seed_determinism);
    ("campaign churn loses probes", `Quick, test_campaign_churn_loses_probes);
    ("campaign rejects bad params", `Quick, test_campaign_rejects_bad_params);
    ("campaign telemetry series", `Quick, test_campaign_telemetry_series);
    ("verdict clean", `Quick, test_verdict_clean);
    ("verdict conservation", `Quick, test_verdict_conservation);
    ("verdict duplicates", `Quick, test_verdict_duplicates);
    ("verdict complete after heal", `Quick, test_verdict_complete_after_heal);
    ("campaign matrix matches the reference", `Quick, test_campaign_matrix_matches_reference);
    ("campaign recorder-off allocation", `Quick, test_campaign_recorder_off_allocation);
  ]
