type verdict = Pass | Violation | Non_convergence

let verdict_to_string = function
  | Pass -> "pass"
  | Violation -> "violation"
  | Non_convergence -> "non-convergence"

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

(* Pads the convergence deadline, and the horizon past it. *)
let conv_grace = Time.hours 2.0

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

let topology arena = Gen.masc_hierarchy ~tops:arena.tops ~children_per_top:arena.children_per_top

(* The internet is built by the first run on the stack and rewound in
   place by every later one. *)
type stack = { s_arena : arena; mutable s_inet : Internet.t option }

let stack arena = { s_arena = arena; s_inet = None }

let setup stack ~seed schedule =
  match stack.s_inet with
  | None ->
      let topo = topology stack.s_arena in
      List.iter (validate topo) schedule;
      let inet = Internet.create ~config:(config ~seed) topo in
      stack.s_inet <- Some inet;
      inet
  | Some inet ->
      List.iter (validate (Internet.topo inet)) schedule;
      Internet.reset inet ~seed;
      inet

let run_oracle ~stack ~on_check ~seed schedule =
  let arena = stack.s_arena in
  let inet =
    if Prof.is_enabled () then
      Prof.span "explore.oracle.setup" (fun () -> setup stack ~seed schedule)
    else setup stack ~seed schedule
  in
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
  let check () =
    let vs = Invariant.check ~quiescent:false (Internet.invariants inet) in
    transient := !transient + List.length vs;
    match on_check with Some f -> f inet vs | None -> ()
  in
  Engine.set_monitor eng ~cadence:(Time.minutes 30.0) (fun ~quiescent ->
      if not quiescent then
        if Prof.is_enabled () then Prof.span "explore.monitor" check else check ());
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
  let quiescent = Schedule.ends_all_up schedule in
  let violations =
    if Prof.is_enabled () then
      Prof.span "explore.oracle.check" (fun () -> Internet.check_invariants ~quiescent inet)
    else Internet.check_invariants ~quiescent inet
  in
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

(* Under the profiler the whole run is one span, so the engine loop and
   the workload's direct calls (time no event or check span covers)
   land in its self time. *)
let run ?on_check ?(stack = stack default_arena) ~seed schedule =
  if Prof.is_enabled () then
    Prof.span "explore.oracle" (fun () -> run_oracle ~stack ~on_check ~seed schedule)
  else run_oracle ~stack ~on_check ~seed schedule
