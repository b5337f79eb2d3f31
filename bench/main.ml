(* Allocation gate.

   A table of CI-sized runs, each one public entry point at jobs 1 with
   pinned parameters.  Every row runs once to warm lazily built state,
   then once more while the bytes the OCaml GC allocates are counted;
   the count must stay within the row's budget in
   bench/perf_budget.json.  Allocated bytes are a function of the input,
   so unlike a wall-clock budget the gate does not flake on a busy host,
   and it trips on what multiplies bytes: an arena reverting to
   per-entry boxing, per-delivery accounting turning quadratic, the
   flight recorder working while it is off.  Wall clock is printed for
   reference only; timing is the workload benchmark's job (perfbench/),
   and jobs-invariance is pinned by the golden tests.  Budgets are
   measured in the release profile.

     dune exec --profile release bench/main.exe -- [--profile] [--write-budget]

   --profile       after measuring, run each row once more under the
                   profiler inside a smoke.<row> span and write
                   profile.jsonl, which says where a row's bytes went
                   (read it with `main.exe report --profile`)
   --write-budget  rewrite bench/perf_budget.json as [headroom] times
                   the measured bytes, after a deliberate change

   Exit status: 0 within budget, 1 over budget or a row and the budget
   file disagree, 2 on a usage error or an unreadable budget file. *)

type row = { name : string; run : unit -> unit }

let row name f = { name; run = (fun () -> ignore (f ())) }

let rows =
  [
    row "fig2-smoke" (fun () ->
        Allocation_sim.run
          {
            Allocation_sim.default_params with
            Allocation_sim.tops = 10;
            children_per_top = 10;
            horizon = Time.days 120.0;
          });
    row "fig4-smoke" (fun () ->
        Tree_experiment.run
          { Tree_experiment.default_params with Tree_experiment.nodes = 1000; trials = 5; jobs = 1 });
    row "fig4-modern-smoke" (fun () ->
        Modern_experiment.run { Modern_experiment.default_params with Modern_experiment.jobs = 1 });
    row "beacon-smoke" (fun () ->
        Beacon_campaign.run ~jobs:1
          {
            Beacon_campaign.default_params with
            Beacon_campaign.domains = 56;
            per_domain = 2;
            probes = 5;
            loss = 0.05;
            churn = true;
          });
    row "explore-smoke" (fun () ->
        let ledger = Filename.temp_file "bench-explore" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove ledger)
          (fun () ->
            Explore.run_campaign
              { Explore.default_config with Explore.budget = 25; seed = 7; jobs = Some 1; ledger }));
  ]

let budget_file = "bench/perf_budget.json"

(* Budgets sit this far above the measured bytes.  Bytes do not jitter
   and CI builds with the same compiler, so the headroom only absorbs
   small growth; more than that calls for a deliberate --write-budget. *)
let headroom = 1.25

(* Allocated bytes and wall seconds of one run, after a warm-up run has
   built any lazily initialised state.  A minor collection on either
   side brings the GC's counters up to date, so the byte count is exact:
   the same in every process, whatever ran before. *)
let measure r =
  r.run ();
  Gc.minor ();
  let t0 = Unix.gettimeofday () and b0 = Gc.allocated_bytes () in
  r.run ();
  Gc.minor ();
  (Gc.allocated_bytes () -. b0, Unix.gettimeofday () -. t0)

let die fmt = Format.kasprintf (fun m -> Format.eprintf "bench: %s@." m; exit 2) fmt

(* name -> budget bytes. *)
let load_budgets () =
  let text =
    try In_channel.with_open_bin budget_file In_channel.input_all
    with Sys_error e -> die "%s (create it with --write-budget)" e
  in
  let budget v =
    match (Jsonl.field "name" Jsonl.to_string v, Jsonl.field "budget_bytes" Jsonl.to_float v) with
    | Some n, Some b -> Some (n, b)
    | _ -> None
  in
  match Option.bind (Jsonl.parse text) (Jsonl.field "budgets" (Jsonl.to_list budget)) with
  | Some l -> l
  | None -> die "%s: not a budget file" budget_file

let write_budgets measured =
  Out_channel.with_open_bin budget_file (fun oc ->
      Printf.fprintf oc "{\n  \"headroom\": %.2f,\n  \"budgets\": [\n" headroom;
      List.iteri
        (fun i (name, bytes, _) ->
          Printf.fprintf oc
            "    {\"name\": %S, \"budget_bytes\": %.0f, \"measured_bytes\": %.0f}%s\n" name
            (bytes *. headroom) bytes
            (if i = List.length measured - 1 then "" else ","))
        measured;
      Printf.fprintf oc "  ]\n}\n");
  Format.printf "bench: wrote %s (budgets = %.2fx measured bytes)@." budget_file headroom

(* Verdict lines for every row and every budget; true when all pass. *)
let gate measured budgets =
  let ok = ref true in
  let fail fmt = Format.kasprintf (fun m -> ok := false; Format.printf "%s@." m) fmt in
  List.iter
    (fun (name, bytes, wall) ->
      match List.assoc_opt name budgets with
      | None -> fail "%-18s %12.0f bytes, no budget  FAIL" name bytes
      | Some budget ->
          let line =
            Format.asprintf "%-18s %12.0f bytes / %12.0f budget (%4.2fx)  %7.3f s" name bytes
              budget (bytes /. budget) wall
          in
          if bytes > budget then fail "%s  FAIL" line else Format.printf "%s  ok@." line)
    measured;
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (n, _, _) -> n = name) measured) then
        fail "%-18s budget for a row that no longer exists  FAIL" name)
    budgets;
  !ok

let profile () =
  Prof.enable ();
  List.iter (fun r -> Prof.span ("smoke." ^ r.name) r.run) rows;
  Prof.write_jsonl "profile.jsonl";
  Prof.disable ();
  Format.printf "bench: wrote profile.jsonl@."

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun a ->
      if not (List.mem a [ "--profile"; "--write-budget" ]) then
        die "unknown argument %s (usage: main.exe [--profile] [--write-budget])" a)
    args;
  let measured =
    List.map
      (fun r ->
        let bytes, wall = measure r in
        (r.name, bytes, wall))
      rows
  in
  if List.mem "--profile" args then profile ();
  if List.mem "--write-budget" args then write_budgets measured
  else if not (gate measured (load_budgets ())) then begin
    Format.eprintf
      "bench: allocation gate failed (rerun with --write-budget after a deliberate change)@.";
    exit 1
  end
