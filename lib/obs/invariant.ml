type violation = { inv : string; detail : string; trace_id : string option }

type check = unit -> (string * string option) list

(* A predicate registered with [~depends]. *)
type gate = {
  depends : unit -> int;
  mutable cached : bool;  (** [last] holds the verdict of a run *)
  mutable last_at : int;  (** [depends ()] read before that run *)
  mutable last : violation list;  (** that run's violations *)
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
          g.cached <- false;
          g.last_at <- 0;
          g.last <- []
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
  let gate =
    Option.map (fun depends -> { depends; cached = false; last_at = 0; last = [] }) depends
  in
  let violations_of = lazy (Metrics.counter ("invariant.violations." ^ name)) in
  t.preds <- t.preds @ [ { name; violations_of; quiescent_only; run; gate } ]

let names t = List.map (fun p -> p.name) t.preds

(* One run of [p]'s predicate, its pairs made violations of [p]. *)
let evaluate p =
  match p.run () with
  | [] -> []
  | vs -> List.map (fun (detail, trace_id) -> { inv = p.name; detail; trace_id }) vs

(* A predicate's violations at this check.  A gated one is skipped when
   its dependency reads what it read before its last run: its state has
   not moved, so neither has its verdict, and that run's violations are
   returned again.  Otherwise the predicate runs and its verdict is kept
   with the value read. *)
let verdict t p =
  match p.gate with
  | None -> evaluate p
  | Some g ->
      let version = g.depends () in
      if g.cached && version = g.last_at then begin
        Metrics.incr (Lazy.force t.skipped);
        g.last
      end
      else begin
        let vs = evaluate p in
        g.cached <- true;
        g.last_at <- version;
        g.last <- vs;
        vs
      end

(* Top-level recursions rather than closures, so a check whose
   predicates all hold allocates nothing here. *)
let rec run_preds t ~quiescent = function
  | [] -> []
  | p :: rest -> (
      if p.quiescent_only && not quiescent then run_preds t ~quiescent rest
      else
        match verdict t p with
        | [] -> run_preds t ~quiescent rest
        | mine ->
            let n = List.length mine in
            Metrics.add (Lazy.force t.violations) n;
            Metrics.add (Lazy.force p.violations_of) n;
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
