type violation = { inv : string; detail : string; trace_id : string option }

type check = unit -> (string * string option) list

(* Counter handles are resolved once, on first use, and cached here.
   Resolving them at register time would put zero-valued keys into the
   metrics snapshot of every run that never checks. *)
type pred = {
  name : string;
  quiescent_only : bool;
  run : check;
  mutable violations_of : Metrics.counter option;  (** [invariant.violations.<name>] *)
}

(* Bounded retention of violations returned by [check]: the first
   [seen_cap] survive, later ones only bump the counters.  Keeping the
   head (not a sliding tail) means the *first* violation — the one a
   caller wants to blame after a run — is always recoverable. *)
let seen_cap = 64

type t = {
  registry : Metrics.registry;
  mutable checks : Metrics.counter option;
  mutable violations : Metrics.counter option;
  mutable preds : pred list;
  mutable seen : violation list;  (** first [seen_cap] violations, newest first *)
  mutable n_seen : int;
}

let create ?registry () =
  let registry = match registry with Some r -> r | None -> Metrics.current () in
  { registry; checks = None; violations = None; preds = []; seen = []; n_seen = 0 }

let register ?(quiescent_only = false) t ~name run =
  if List.exists (fun p -> p.name = name) t.preds then
    invalid_arg (Printf.sprintf "Invariant.register: duplicate %S" name);
  t.preds <- t.preds @ [ { name; quiescent_only; run; violations_of = None } ]

let names t = List.map (fun p -> p.name) t.preds

let checks_counter t =
  match t.checks with
  | Some c -> c
  | None ->
      let c = Metrics.counter ~registry:t.registry "invariant.checks" in
      t.checks <- Some c;
      c

let violations_counter t =
  match t.violations with
  | Some c -> c
  | None ->
      let c = Metrics.counter ~registry:t.registry "invariant.violations" in
      t.violations <- Some c;
      c

let pred_counter t p =
  match p.violations_of with
  | Some c -> c
  | None ->
      let c = Metrics.counter ~registry:t.registry ("invariant.violations." ^ p.name) in
      p.violations_of <- Some c;
      c

(* Top-level recursions rather than closures, so a check whose
   predicates all hold allocates nothing here. *)
let rec run_preds t ~quiescent = function
  | [] -> []
  | p :: rest -> (
      if p.quiescent_only && not quiescent then run_preds t ~quiescent rest
      else
        match p.run () with
        | [] -> run_preds t ~quiescent rest
        | vs ->
            let n = List.length vs in
            Metrics.add (violations_counter t) n;
            Metrics.add (pred_counter t p) n;
            let mine = List.map (fun (detail, trace_id) -> { inv = p.name; detail; trace_id }) vs in
            mine @ run_preds t ~quiescent rest)

let rec retain t = function
  | v :: rest when t.n_seen < seen_cap ->
      t.seen <- v :: t.seen;
      t.n_seen <- t.n_seen + 1;
      retain t rest
  | _ -> ()

let check ?(quiescent = true) t =
  Metrics.incr (checks_counter t);
  let vs = run_preds t ~quiescent t.preds in
  retain t vs;
  vs

let violations_seen t = List.rev t.seen

let pp_violation ppf v =
  match v.trace_id with
  | None -> Format.fprintf ppf "invariant %s violated: %s" v.inv v.detail
  | Some id -> Format.fprintf ppf "invariant %s violated [%s]: %s" v.inv id v.detail
