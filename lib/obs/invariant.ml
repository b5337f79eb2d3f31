type violation = { inv : string; detail : string; trace_id : string option }

type check = unit -> (string * string option) list

(* A predicate registered with [~depends]. *)
type gate = {
  depends : unit -> int;
  mutable clean : bool;  (** the last run returned no violation *)
  mutable clean_at : int;  (** [depends ()] read before that run *)
}

(* Counter handles are made on first use, so no key is in a snapshot
   before its first update; a handle follows whatever registry is
   current, so a monitor counts where it checks and a reused one needs
   no rebinding. *)
type pred = {
  name : string;
  violations_of : Metrics.counter Lazy.t;  (** [invariant.violations.<name>] *)
  quiescent_only : bool;
  run : check;
  gate : gate option;  (** [None]: runs at every check *)
}

type t = {
  checks : Metrics.counter Lazy.t;
  violations : Metrics.counter Lazy.t;
  skipped : Metrics.counter Lazy.t;
  mutable preds : pred list;
}

let reset t =
  List.iter
    (fun p ->
      match p.gate with
      | Some g ->
          g.clean <- false;
          g.clean_at <- 0
      | None -> ())
    t.preds

let create () =
  {
    checks = lazy (Metrics.counter "invariant.checks");
    violations = lazy (Metrics.counter "invariant.violations");
    skipped = lazy (Metrics.counter "invariant.skipped");
    preds = [];
  }

let register ?(quiescent_only = false) ?depends t ~name run =
  if List.exists (fun p -> p.name = name) t.preds then
    invalid_arg (Printf.sprintf "Invariant.register: duplicate %S" name);
  let gate = Option.map (fun depends -> { depends; clean = false; clean_at = 0 }) depends in
  let violations_of = lazy (Metrics.counter ("invariant.violations." ^ name)) in
  t.preds <- t.preds @ [ { name; violations_of; quiescent_only; run; gate } ]

let names t = List.map (fun p -> p.name) t.preds

(* Whether a check runs a predicate that applies.  A gated one is
   skipped when its dependency reads what it read before its last run
   and that run was clean: its state has not moved, so neither has its
   verdict.  Otherwise the value is kept for the run about to happen. *)
let due t p =
  match p.gate with
  | None -> true
  | Some g ->
      let version = g.depends () in
      if g.clean && version = g.clean_at then begin
        Metrics.incr (Lazy.force t.skipped);
        false
      end
      else begin
        g.clean_at <- version;
        true
      end

let set_clean p clean = match p.gate with Some g -> g.clean <- clean | None -> ()

(* Top-level recursions rather than closures, so a check whose
   predicates all hold allocates nothing here. *)
let rec run_preds t ~quiescent = function
  | [] -> []
  | p :: rest -> (
      if (p.quiescent_only && not quiescent) || not (due t p) then run_preds t ~quiescent rest
      else
        match p.run () with
        | [] ->
            set_clean p true;
            run_preds t ~quiescent rest
        | vs ->
            set_clean p false;
            let n = List.length vs in
            Metrics.add (Lazy.force t.violations) n;
            Metrics.add (Lazy.force p.violations_of) n;
            let mine = List.map (fun (detail, trace_id) -> { inv = p.name; detail; trace_id }) vs in
            mine @ run_preds t ~quiescent rest)

let check ?(quiescent = true) ?only t =
  Metrics.incr (Lazy.force t.checks);
  match only with
  | None -> run_preds t ~quiescent t.preds
  | Some name -> run_preds t ~quiescent:true (List.filter (fun p -> p.name = name) t.preds)

let pp_violation ppf v =
  match v.trace_id with
  | None -> Format.fprintf ppf "invariant %s violated: %s" v.inv v.detail
  | Some id -> Format.fprintf ppf "invariant %s violated [%s]: %s" v.inv id v.detail
