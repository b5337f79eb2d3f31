(* The [lo, hi) time range faults are injected into: after the stack
   starts claiming but before the settle phase. *)
let fault_window ~horizon =
  let lo = Time.minutes 5.0 in
  (lo, max (Time.minutes 10.0) horizon)

(* Whole-second injection times keep canonical schedule strings tidy
   and give the shrinker's time-coarsening quanta something to bite. *)
let rand_time rng ~lo ~hi =
  Time.seconds (float_of_int (Rng.int_in rng (int_of_float lo) (int_of_float hi)))

(* Injection times for the enumerated permanent faults: one while the
   first claims are still in flight (the §4.4 start-up partition — the
   known-violation canary when it cuts the top-level peering), one
   after allocation has settled. *)
let canonical_times = [ Time.minutes 30.0; Time.hours 2.0 ]

let enumerate ~topo =
  let links = Topo.links topo in
  List.concat_map
    (fun (l : Topo.link) ->
      List.concat_map
        (fun at ->
          [
            [ { Schedule.at; fault = Schedule.Partition (l.Topo.a, l.Topo.b) } ];
            [ { Schedule.at; fault = Schedule.Link_down (l.Topo.a, l.Topo.b) } ];
          ])
        canonical_times)
    links
  |> List.map Schedule.make

let sample rng ~topo ~max_faults ~horizon =
  let lo, hi = fault_window ~horizon in
  let lo = Time.to_seconds lo and hi = Time.to_seconds hi in
  let links = Array.of_list (Topo.links topo) in
  let episode () =
    let l = Rng.pick rng links in
    let a = l.Topo.a and b = l.Topo.b in
    let t1 = rand_time rng ~lo ~hi in
    match Rng.int rng 5 with
    | 0 -> [ { Schedule.at = t1; fault = Schedule.Link_down (a, b) } ]
    | 1 -> [ { Schedule.at = t1; fault = Schedule.Partition (a, b) } ]
    | 2 ->
        let t2 = rand_time rng ~lo:(Time.to_seconds t1) ~hi in
        [
          { Schedule.at = t1; fault = Schedule.Link_down (a, b) };
          { Schedule.at = t2; fault = Schedule.Link_up (a, b) };
        ]
    | 3 ->
        let t2 = rand_time rng ~lo:(Time.to_seconds t1) ~hi in
        [
          { Schedule.at = t1; fault = Schedule.Partition (a, b) };
          { Schedule.at = t2; fault = Schedule.Heal (a, b) };
        ]
    | _ ->
        let r = 0.01 +. Rng.float rng 0.24 in
        let r = Float.of_int (int_of_float (r *. 100.0)) /. 100.0 in
        let t2 = rand_time rng ~lo:(Time.to_seconds t1) ~hi in
        [
          { Schedule.at = t1; fault = Schedule.Set_loss r };
          { Schedule.at = t2; fault = Schedule.Set_loss 0.0 };
        ]
  in
  let want = 1 + Rng.int rng (max 1 max_faults) in
  let rec fill acc n =
    if n >= want then acc
    else
      let steps = episode () in
      if n + List.length steps > max max_faults want then if n = 0 then steps else acc
      else fill (acc @ steps) (n + List.length steps)
  in
  Schedule.make (fill [] 0)

let generate ~topo ~budget ~max_faults ~seed ~horizon =
  let enumerated = enumerate ~topo in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let head = take budget enumerated in
  let remaining = budget - List.length head in
  let rng = Rng.create seed in
  let sampled = List.init (max 0 remaining) (fun _ -> sample rng ~topo ~max_faults ~horizon) in
  head @ sampled
