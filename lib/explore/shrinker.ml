type result = { shrunk : Schedule.t; steps : int }

let remove_nth n l = List.filteri (fun i _ -> i <> n) l

(* Largest-first, so a fault at 93784 s tries 86400, then 21600, ... *)
let quanta = [ Time.days 1.0; Time.hours 6.0; Time.hours 1.0; Time.minutes 1.0 ]

let snap_down at q =
  let s = Time.to_seconds at and q = Time.to_seconds q in
  Time.seconds (Float.of_int (int_of_float (s /. q)) *. q)

let shrink ~still_fails schedule =
  (* Verdicts keyed by the schedule itself, not its codec, whose
     rounded times could merge distinct schedules. *)
  let steps = ref 0 in
  let verdicts = Hashtbl.create 64 in
  let fails (s : Schedule.t) =
    incr steps;
    match Hashtbl.find_opt verdicts s with
    | Some verdict -> verdict
    | None ->
        let verdict = still_fails s in
        Hashtbl.add verdicts s verdict;
        verdict
  in
  (* Pass 1: greedy removal, restarting after every success. *)
  let rec drop (sched : Schedule.t) n =
    if n >= List.length sched then sched
    else
      let candidate = remove_nth n sched in
      if fails candidate then drop candidate 0
      else drop sched (n + 1)
  in
  (* Pass 2: per-step time coarsening (the schedule stays sorted:
     snapping only moves times down, and [Schedule.make] re-sorts). *)
  let coarsen_step (sched : Schedule.t) n =
    let s = List.nth sched n in
    let try_quantum acc q =
      match acc with
      | Some _ -> acc
      | None ->
          let at = snap_down s.Schedule.at q in
          if at = s.Schedule.at then None
          else
            let candidate =
              Schedule.make
                (List.mapi (fun i x -> if i = n then { x with Schedule.at } else x) sched)
            in
            if fails candidate then Some candidate else None
    in
    List.fold_left try_quantum None quanta
  in
  let rec coarsen sched n =
    if n >= List.length sched then sched
    else
      match coarsen_step sched n with
      | Some sched' -> coarsen sched' n
      | None -> coarsen sched (n + 1)
  in
  let rec fixpoint sched =
    let sched' = coarsen (drop sched 0) 0 in
    if sched' = sched then sched else fixpoint sched'
  in
  let shrunk = fixpoint schedule in
  { shrunk; steps = !steps }
