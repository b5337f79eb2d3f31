(* Tests for the Kampai allocation scheme, the §6 related-work baseline
   models, and the §3 incongruent-topology (M-RIB) requirement. *)

let check = Alcotest.check

(* --- Kampai blocks -------------------------------------------------------- *)

let blk s = Kampai.block_of_prefix (Prefix.of_string s)

(* The addresses a block covers, read off its mask: [2^(free bits)] of
   them, every [a] with [a land mask = value]. *)
let size (b : Kampai.block) =
  let rec fixed x acc = if x = 0 then acc else fixed (x lsr 1) (acc + (x land 1)) in
  1 lsl (32 - fixed b.Kampai.mask 0)

let mem a (b : Kampai.block) = a land b.Kampai.mask = b.Kampai.value

let test_kampai_block_of_prefix () =
  let b = blk "224.1.0.0/24" in
  check Alcotest.int "size" 256 (size b);
  check Alcotest.bool "member" true (mem (Ipv4.of_string "224.1.0.77") b);
  check Alcotest.bool "non member" false (mem (Ipv4.of_string "224.1.1.0") b);
  Alcotest.check_raises "outside 224/4" (Invalid_argument "Kampai.block_of_prefix: outside 224/4")
    (fun () -> ignore (Kampai.block_of_prefix (Prefix.of_string "10.0.0.0/24")))

let test_kampai_disjoint () =
  check Alcotest.bool "disjoint prefixes disjoint" true
    (Kampai.disjoint (blk "224.1.0.0/24") (blk "224.2.0.0/24"));
  check Alcotest.bool "nested not disjoint" false
    (Kampai.disjoint (blk "224.1.0.0/24") (blk "224.1.0.0/16"));
  check Alcotest.bool "same block not disjoint" false
    (Kampai.disjoint (blk "224.1.0.0/24") (blk "224.1.0.0/24"))

let test_kampai_grow_noncontiguous () =
  (* Block the contiguous buddy; growth must still succeed by releasing
     a different (non-contiguous) bit. *)
  let mine = blk "224.1.0.0/24" in
  let buddy = blk "224.1.1.0/24" in
  match Kampai.grow mine ~others:[ buddy ] with
  | None -> Alcotest.fail "expected non-contiguous growth"
  | Some grown ->
      check Alcotest.int "doubled" 512 (size grown);
      check Alcotest.bool "still disjoint from the buddy owner" true
        (Kampai.disjoint grown buddy);
      check Alcotest.bool "covers the original space" true
        (mem (Ipv4.of_string "224.1.0.5") grown)

let test_kampai_grow_exhaustion () =
  (* With every flip of every free bit colliding, growth fails:
     surround a /24 block by claims covering both settings of each bit.
     Simplest exhaustion: another block claims everything else. *)
  let mine = blk "224.0.0.0/24" in
  (* An adversary holding 224/4 entirely would overlap us; instead hold
     the complement implicitly: each single-bit flip of our block. *)
  let adversaries =
    List.init 20 (fun i ->
        let bit = 1 lsl (i + 8) in
        Kampai.block_of_prefix
          (Prefix.make (Prefix.base (Prefix.of_string "224.0.0.0/24") lxor bit) 24))
  in
  match Kampai.grow mine ~others:adversaries with
  | Some g ->
      (* Growth may still find bits 0-7 (inside our own /24's host part
         are already free) — those are already free bits, not in mask.
         The first 8 bits are free already; mask bits start at 8, all of
         which collide, so growth must fail. *)
      Alcotest.failf "unexpected growth to %d" (size g)
  | None -> ()

let test_kampai_shrink_roundtrip () =
  let b = blk "224.1.0.0/24" in
  match Kampai.grow b ~others:[] with
  | None -> Alcotest.fail "grow failed"
  | Some g -> (
      match Kampai.shrink g with
      | None -> Alcotest.fail "shrink failed"
      | Some s ->
          check Alcotest.int "back to original size" (size b) (size s);
          check Alcotest.bool "covers the base address" true
            (mem (Ipv4.of_string "224.1.0.0") s))

let test_kampai_sim_comparison () =
  let p =
    {
      Kampai.Sim.domains = 30;
      horizon = Time.days 150.0;
      seed = 11;
    }
  in
  let r = Kampai.Sim.run p in
  check Alcotest.int "contiguous: no failures" 0 r.Kampai.Sim.contiguous.Kampai.Sim.failures;
  check Alcotest.int "kampai: no failures" 0 r.Kampai.Sim.kampai.Kampai.Sim.failures;
  check Alcotest.int "kampai never renumbers" 0 r.Kampai.Sim.kampai.Kampai.Sim.renumberings;
  check Alcotest.bool "kampai utilization at least matches contiguous" true
    (r.Kampai.Sim.kampai.Kampai.Sim.utilization
    >= r.Kampai.Sim.contiguous.Kampai.Sim.utilization -. 0.05);
  check Alcotest.bool "kampai: one table entry per domain" true
    (r.Kampai.Sim.kampai.Kampai.Sim.table_entries = 30.0);
  check Alcotest.bool "contiguous needs at least as many entries" true
    (r.Kampai.Sim.contiguous.Kampai.Sim.table_entries >= 30.0)

let prop_kampai_grow_preserves_disjointness =
  QCheck.Test.make ~name:"kampai growth keeps all blocks pairwise disjoint" ~count:50
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let blocks =
        ref
          (List.init 12 (fun i ->
               Kampai.block_of_prefix (Prefix.make (0xE0000000 lor (i lsl 10)) 24)))
      in
      (* Grow random blocks repeatedly. *)
      for _ = 1 to 30 do
        let i = Rng.int rng 12 in
        let b = List.nth !blocks i in
        let others = List.filteri (fun j _ -> j <> i) !blocks in
        match Kampai.grow b ~others with
        | Some g -> blocks := List.mapi (fun j x -> if j = i then g else x) !blocks
        | None -> ()
      done;
      let rec pairwise = function
        | [] -> true
        | x :: rest -> List.for_all (Kampai.disjoint x) rest && pairwise rest
      in
      pairwise !blocks)

(* --- HPIM / HDVMRP -------------------------------------------------------- *)

let test_hpim_paths_at_least_spt () =
  let rng = Rng.create 3 in
  let topo = Gen.power_law ~rng ~n:200 ~m:2 in
  let source = 5 in
  let receivers = [| 20; 40; 60; 80 |] in
  let spt = Spf.bfs topo source in
  let rps = Array.init 3 (fun _ -> Rng.int rng (Topo.domain_count topo)) in
  let paths = Baselines.hpim_paths (Spf.make_cache topo) topo ~rps ~source ~receivers in
  Array.iteri
    (fun i r ->
      check Alcotest.bool "hpim no shorter than spt" true (paths.(i) >= Spf.dist spt r))
    receivers

let test_hpim_single_level_is_unidirectionalish () =
  (* One RP level: receivers join a single random RP — sanity: paths are
     finite and positive. *)
  let rng = Rng.create 9 in
  let topo = Gen.transit_stub ~rng ~backbones:2 ~regionals_per_backbone:2 ~stubs_per_regional:3 in
  let receivers = [| 3; 7; 11 |] in
  let rps = [| Rng.int rng (Topo.domain_count topo) |] in
  let paths = Baselines.hpim_paths (Spf.make_cache topo) topo ~rps ~source:1 ~receivers in
  Array.iter (fun p -> check Alcotest.bool "finite path" true (p >= 0 && p < 100)) paths

let test_hpim_rejects_zero_levels () =
  let topo = Topo_fixtures.line ~n:4 in
  Alcotest.check_raises "zero levels"
    (Invalid_argument "Baselines.hpim_paths: need at least one RP level") (fun () ->
      ignore (Baselines.hpim_paths (Spf.make_cache topo) topo ~rps:[||] ~source:0 ~receivers:[| 1 |]))

let test_hdvmrp_costs () =
  let topo = Topo_fixtures.line ~n:50 in
  let c = Baselines.hdvmrp_costs topo ~senders:2 ~groups:10 ~members:5 in
  check Alcotest.int "floods touch every domain" (2 * 10 * 50) c.Baselines.flood_deliveries;
  check Alcotest.int "prunes from non-members" (2 * 10 * 45) c.Baselines.prune_messages;
  check Alcotest.int "per-router S,G state" 20 c.Baselines.per_router_state;
  Alcotest.check_raises "members bound"
    (Invalid_argument "Baselines.hdvmrp_costs: more members than domains") (fun () ->
      ignore (Baselines.hdvmrp_costs topo ~senders:1 ~groups:1 ~members:51))

let test_compare_hpim_shape () =
  let points = Baselines.compare_hpim ~nodes:300 ~trials:5 ~seed:21 () in
  check Alcotest.int "two points" 2 (List.length points);
  List.iter
    (fun (pt : Baselines.comparison_point) ->
      check Alcotest.bool "ratios sane" true
        (pt.Baselines.hpim_avg >= 1.0 && pt.Baselines.bgmp_hybrid_avg >= 1.0))
    points

(* --- §3: incongruent multicast / unicast topologies ----------------------- *)

let test_incongruent_topologies () =
  (* Unicast topology: a line 0-1-2-3.  Multicast-capable topology: the
     same domains but with an extra multicast-only shortcut 0-3, and the
     1-2 link NOT multicast capable.  BGMP must run entirely over the
     multicast topology (the M-RIB), and delivery must use the shortcut
     — impossible paths over the unicast-only link must never be used. *)
  let mtopo = Topo.create () in
  let d0 = Topo.add_domain mtopo ~name:"d0" ~kind:Domain.Backbone in
  let d1 = Topo.add_domain mtopo ~name:"d1" ~kind:Domain.Stub in
  let d2 = Topo.add_domain mtopo ~name:"d2" ~kind:Domain.Stub in
  let d3 = Topo.add_domain mtopo ~name:"d3" ~kind:Domain.Regional in
  Topo.add_link mtopo d0 d1 Topo.Provider_customer;
  (* no multicast-capable 1-2 link *)
  Topo.add_link mtopo d2 d3 Topo.Peer;
  Topo.add_link mtopo d0 d3 Topo.Peer (* multicast-only shortcut *);
  let engine = Engine.create () in
  let g = Ipv4.of_string "224.5.0.1" in
  (* Root at d0; routes per the M-RIB (paths over mtopo). *)
  let paths = Spf.bfs mtopo d0 in
  let route_to_root d _ =
    if d = d0 then Bgmp_fabric.Root_here
    else
      match Spf.next_hop_toward mtopo paths d with
      | Some nh -> Bgmp_fabric.Via nh
      | None -> Bgmp_fabric.Unroutable
  in
  let fabric = Bgmp_fabric.create ~engine ~topo:mtopo ~route_to_root () in
  Bgmp_fabric.host_join fabric ~host:(Host_ref.make d2 0) ~group:g;
  Engine.run_until_idle engine;
  let p = Bgmp_fabric.send fabric ~source:(Host_ref.make d1 0) ~group:g in
  Engine.run_until_idle engine;
  (match Bgmp_fabric.deliveries fabric ~payload:p with
  | [ (h, hops) ] ->
      check Alcotest.int "delivered to d2" d2 h.Host_ref.host_domain;
      (* d1 -> d0 -> d3 -> d2 over multicast-capable links only. *)
      check Alcotest.int "via the multicast shortcut (3 hops)" 3 hops
  | other -> Alcotest.failf "expected one delivery, got %d" (List.length other));
  check Alcotest.int "no duplicates" 0 (Bgmp_fabric.duplicate_deliveries fabric)

let suite =
  [
    ("kampai block of prefix", `Quick, test_kampai_block_of_prefix);
    ("kampai disjoint", `Quick, test_kampai_disjoint);
    ("kampai grows past a blocked buddy", `Quick, test_kampai_grow_noncontiguous);
    ("kampai growth exhaustion", `Quick, test_kampai_grow_exhaustion);
    ("kampai shrink roundtrip", `Quick, test_kampai_shrink_roundtrip);
    ("kampai sim comparison", `Slow, test_kampai_sim_comparison);
    QCheck_alcotest.to_alcotest prop_kampai_grow_preserves_disjointness;
    ("hpim paths at least spt", `Quick, test_hpim_paths_at_least_spt);
    ("hpim single level", `Quick, test_hpim_single_level_is_unidirectionalish);
    ("hpim rejects zero levels", `Quick, test_hpim_rejects_zero_levels);
    ("hdvmrp costs", `Quick, test_hdvmrp_costs);
    ("compare hpim shape", `Quick, test_compare_hpim_shape);
    ("incongruent multicast topology (M-RIB)", `Quick, test_incongruent_topologies);
  ]
