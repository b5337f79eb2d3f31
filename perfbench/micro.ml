(* Kernel timings for the traced run: the hot operations each workload
   leans on, timed in isolation so a layer change shows up without the
   noise of a whole workload.  Fixtures are built on first use, never
   at module initialisation, so workload processes do not pay for them
   in their set-up time. *)

let now = Unix.gettimeofday

(* Median ns per call over five batches, each batch sized to >= 20 ms. *)
let ns_per_call f =
  let batch k =
    let t0 = now () in
    for _ = 1 to k do
      f ()
    done;
    now () -. t0
  in
  let rec calibrate k = if batch k >= 0.02 then k else calibrate (k * 2) in
  let k = calibrate 1 in
  (Spread.of_list (List.init 5 (fun _ -> batch k *. 1e9 /. float_of_int k))).median

type fixtures = {
  rng : Rng.t;
  trie : int Prefix_trie.t;  (** a G-RIB-like trie, 1000 routes of mixed length *)
  space : Address_space.t;  (** 224/4 with ~100 claimed /22s *)
  graph : Topo.t;  (** the paper-scale 3326-node power-law graph *)
  members : Domain.id list;  (** 1000 of its nodes *)
}

let fixtures =
  lazy
    (let rng = Rng.create 42 in
     let trie = Prefix_trie.create () in
     for i = 0 to 999 do
       let base = 0xE0000000 lor (Rng.int rng 0x0FFFFFFF land 0x0FFFFF00) in
       Prefix_trie.add trie (Prefix.make base (16 + (i mod 12))) i
     done;
     let space = Address_space.create () in
     Address_space.add_cover space Prefix.class_d;
     for i = 0 to 99 do
       let base = 0xE0000000 lor (Rng.int rng 0x0FFFFFFF land 0x0FFFF000) in
       let candidate = Prefix.make base 22 in
       if Address_space.is_free space candidate then Address_space.register space ~owner:i candidate
     done;
     let graph = Gen.power_law ~rng:(Rng.create 7) ~n:3326 ~m:2 in
     let members = Array.to_list (Rng.sample_without_replacement (Rng.create 9) 1000 3326) in
     { rng; trie; space; graph; members })

(* BGMP over the paper's Figure-3 topology, rooted at B. *)
let fig3_fabric () =
  let topo = Gen.figure3 () in
  let engine = Engine.create () in
  let b = Option.get (Topo.find_by_name topo "B") in
  let paths = Spf.bfs topo b in
  let route_to_root d _g =
    if d = b then Bgmp_fabric.Root_here
    else
      match Spf.next_hop_toward topo paths d with
      | Some nh -> Bgmp_fabric.Via nh
      | None -> Bgmp_fabric.Unroutable
  in
  let fabric = Bgmp_fabric.create ~engine ~topo ~route_to_root () in
  let host n = Host_ref.make (Option.get (Topo.find_by_name topo n)) 0 in
  (engine, fabric, host)

let group = Ipv4.of_string "224.0.128.1"

let kernels =
  [
    ( "micro.trie_lookup_ns",
      fun fx () ->
        ignore (Prefix_trie.longest_match fx.trie (0xE0000000 lor Rng.int fx.rng 0x0FFFFFFF)) );
    ( "micro.choose_claim_ns",
      fun fx () -> ignore (Address_space.choose_claim fx.space ~rng:fx.rng ~want_len:24) );
    ( "micro.claim_decide_ns",
      fun fx () ->
        let claim =
          { Claim_policy.prefix = Prefix.of_string "224.0.0.0/22"; active = true; used = 1024 }
        in
        ignore
          (Claim_policy.decide ~params:Claim_policy.default_params ~space:fx.space ~claims:[ claim ]
             ~need:256) );
    ("micro.bfs_3326_ns", fun fx () -> ignore (Spf.bfs fx.graph (Rng.int fx.rng 3326)));
    ( "micro.shared_tree_1000_ns",
      fun fx () -> ignore (Shared_tree.build fx.graph ~root:0 ~members:fx.members) );
    ( "micro.path_eval_100_ns",
      fun fx () ->
        let receivers = Rng.sample_without_replacement fx.rng 100 3326 in
        ignore
          (Path_eval.evaluate fx.graph
             { Path_eval.source = Rng.int fx.rng 3326; root = receivers.(0); receivers }) );
    ( "micro.bgmp_join_leave_ns",
      fun _ () ->
        let engine, fabric, host = fig3_fabric () in
        let hosts = List.map host [ "C"; "D"; "F"; "H" ] in
        List.iter (fun host -> Bgmp_fabric.host_join fabric ~host ~group) hosts;
        Engine.run_until_idle engine;
        List.iter (fun host -> Bgmp_fabric.host_leave fabric ~host ~group) hosts;
        Engine.run_until_idle engine );
    ( "micro.bgmp_data_fanout_ns",
      fun _ () ->
        let engine, fabric, host = fig3_fabric () in
        List.iter
          (fun n -> Bgmp_fabric.host_join fabric ~host:(host n) ~group)
          [ "B"; "C"; "D"; "F"; "H" ];
        Engine.run_until_idle engine;
        ignore (Bgmp_fabric.send fabric ~source:(host "E") ~group);
        Engine.run_until_idle engine );
  ]

let names = List.map fst kernels

let run () =
  let fx = Lazy.force fixtures in
  List.map (fun (name, k) -> (name, ns_per_call (k fx))) kernels
