type verdict = Pass | Violation | Non_convergence

let verdict_to_string = function
  | Pass -> "pass"
  | Violation -> "violation"
  | Non_convergence -> "non-convergence"

let verdict_of_string = function
  | "pass" -> Some Pass
  | "violation" -> Some Violation
  | "non-convergence" -> Some Non_convergence
  | _ -> None

type arena = { tops : int; children_per_top : int }

let default_arena = { tops = 2; children_per_top = 2 }

type outcome = {
  verdict : verdict;
  violations : Invariant.violation list;
  transient : int;
  converged_at : Time.t option;
  deadline : Time.t;
  horizon : Time.t;
}

let verdict_of ~converged_at ~deadline ~violations =
  if violations <> [] then Violation
  else
    match converged_at with
    | Some t when t > deadline -> Non_convergence
    | _ -> Pass

(* Shrink renewals from 30 days to 1 so the post-heal collision duel
   (§4.4: fought at the next renewal announce) fits inside one run. *)
let claim_lifetime = Time.days 1.0

let config ~seed =
  {
    Internet.quick_config with
    Internet.seed;
    masc =
      {
        Internet.quick_config.Internet.masc with
        Masc_node.claim_lifetime;
        renew_margin = Time.hours 2.0;
      };
  }

let apply inet fault =
  match fault with
  | Schedule.Link_down (a, b) -> Internet.fail_link inet a b
  | Schedule.Link_up (a, b) -> Internet.restore_link inet a b
  | Schedule.Partition (a, b) -> Masc_network.partition (Internet.masc_network inet) a b
  | Schedule.Heal (a, b) -> Masc_network.heal (Internet.masc_network inet) a b
  | Schedule.Set_loss r -> Net.set_loss_rate (Internet.net inet) r

let validate topo (s : Schedule.step) =
  let link a b =
    if Topo.link_between topo a b = None then
      invalid_arg (Printf.sprintf "Oracle.run: no link %d-%d in the arena" a b)
  in
  match s.Schedule.fault with
  | Schedule.Link_down (a, b) | Schedule.Link_up (a, b) -> link a b
  | Schedule.Partition (a, b) | Schedule.Heal (a, b) -> link a b
  | Schedule.Set_loss _ -> ()

let run ?(arena = default_arena) ?(conv_grace = Time.hours 2.0) ?(monitor = true) ~seed schedule =
  let topo = Gen.masc_hierarchy ~tops:arena.tops ~children_per_top:arena.children_per_top in
  List.iter (validate topo) schedule;
  let inet = Internet.create ~config:(config ~seed) topo in
  let eng = Internet.engine inet in
  List.iter
    (fun (s : Schedule.step) ->
      ignore
        (Engine.schedule_at ~label:"explore.fault" eng s.Schedule.at (fun () ->
             apply inet s.Schedule.fault)))
    schedule;
  (* Cadence oracle: the transient-tolerant invariants, all run long.
     This goes through the registry, not [Internet.check_invariants],
     so a violation that persists for days does not spam the
     recording with one record per cadence tick — the end-state check below
     records the blamed chain exactly once.  The quiescent hook is
     deliberately ignored: quiescent-only predicates are unsound while
     the schedule holds links down. *)
  let transient = ref 0 in
  if monitor then
    Engine.set_monitor eng ~cadence:(Time.minutes 30.0) (fun ~quiescent ->
        if not quiescent then
          transient :=
            !transient + List.length (Invariant.check ~quiescent:false (Internet.invariants inet)));
  (* Fixed workload: demand-driven allocation at every top (this is
     what makes partitioned tops claim out of 224/4 blind to each
     other), then every stub joins every allocated group so BGMP trees
     cross the peer mesh. *)
  Internet.start inet;
  Internet.run_for inet (Time.hours 1.0);
  let tops = List.init arena.tops (fun i -> i) in
  let stubs =
    List.concat_map
      (fun i ->
        List.init arena.children_per_top (fun c -> arena.tops + (i * arena.children_per_top) + c))
      tops
  in
  let groups =
    List.filter_map
      (fun d ->
        Option.map
          (fun a -> a.Maas.address)
          (Internet.request_address_retry inet d ~every:(Time.minutes 30.0) ~attempts:9))
      tops
    (* Partitioned tops can allocate the *same* address (that is the
       collision the oracle exists to catch) — join each group once. *)
    |> List.sort_uniq compare
  in
  List.iter
    (fun g ->
      List.iter (fun s -> Internet.join inet ~host:(Host_ref.make s 0) ~group:g) stubs)
    groups;
  Internet.run_for inet (Time.hours 1.0);
  let workload_end = Engine.now eng in
  (* Repair deadline: three full renewal cycles past the last fault
     (or the workload, whichever is later) plus grace.  Post-heal
     resolution is not one duel: the first renewal fights the
     collision, the loser's replacement claim can collide again, and
     the aftershock settles on the third cycle — measured 65.5 h after
     a heal with 24 h lifetimes.  The run itself is bounded (no
     run-until-quiescent): a flapping stack must not hang the oracle,
     it must be convicted by its watermark. *)
  let deadline =
    max workload_end (Schedule.last_at schedule) +. (3.0 *. claim_lifetime) +. conv_grace
  in
  let horizon = deadline +. conv_grace in
  Internet.run_for inet (horizon -. Engine.now eng);
  let violations = Internet.check_invariants ~quiescent:(Schedule.ends_all_up schedule) inet in
  Engine.clear_monitor eng;
  let converged_at = Engine.converged_at eng in
  let outcome =
    {
      verdict = verdict_of ~converged_at ~deadline ~violations;
      violations;
      transient = !transient;
      converged_at;
      deadline;
      horizon;
    }
  in
  (outcome, inet)
