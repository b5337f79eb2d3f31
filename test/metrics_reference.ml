(* The name-keyed metrics registry, as a reference for [Metrics]: one
   hashtable of cells per registry, and handles that re-resolve their
   cell by name whenever the registry current at an update is not the
   one they last bound to.  A capture makes a fresh registry current
   and a merge folds it into the current one, as [Obs.capture] and
   [Obs.merge] do; this model runs on one domain, so "current" is a
   plain reference.  Snapshots come out as [Metrics.snapshot] values, so
   the two can be compared directly. *)

type ccell = { mutable c : int }

type gcell = { mutable g : float }

type hcell = { limits : float array; buckets : int array; mutable hstats : Stats.t }

type instrument = Counter of ccell | Gauge of gcell | Histogram of hcell

type registry = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 1 }

let current = ref (create ())

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let mismatch kind name i =
  invalid_arg
    (Printf.sprintf "Metrics_reference.%s: %s is already registered as a %s" kind name
       (kind_name i))

type 'cell handle = {
  hname : string;
  cell_of : registry -> string -> 'cell;
  mutable bound : registry * 'cell;
}

type counter = ccell handle

type gauge = gcell handle

type histogram = hcell handle

let counter_cell registry name =
  match Hashtbl.find registry.tbl name with
  | Counter c -> c
  | (Gauge _ | Histogram _) as i -> mismatch "counter" name i
  | exception Not_found ->
      let c = { c = 0 } in
      Hashtbl.replace registry.tbl name (Counter c);
      c

let gauge_cell registry name =
  match Hashtbl.find registry.tbl name with
  | Gauge g -> g
  | (Counter _ | Histogram _) as i -> mismatch "gauge" name i
  | exception Not_found ->
      let g = { g = 0.0 } in
      Hashtbl.replace registry.tbl name (Gauge g);
      g

let default_limits =
  [| 0.001; 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0; 10000.0; 100000.0; 1000000.0 |]

let histogram_cell ?(limits = default_limits) registry name =
  Array.iteri
    (fun i l ->
      if i > 0 && l <= limits.(i - 1) then
        invalid_arg "Metrics_reference.histogram: limits must be strictly increasing")
    limits;
  match Hashtbl.find registry.tbl name with
  | Histogram h -> h
  | (Counter _ | Gauge _) as i -> mismatch "histogram" name i
  | exception Not_found ->
      let h =
        {
          limits = Array.copy limits;
          buckets = Array.make (Array.length limits + 1) 0;
          hstats = Stats.create ();
        }
      in
      Hashtbl.replace registry.tbl name (Histogram h);
      h

let handle cell_of name = { hname = name; cell_of; bound = (!current, cell_of !current name) }

let counter name = handle counter_cell name

let gauge name = handle gauge_cell name

let histogram ?limits name = handle (fun r n -> histogram_cell ?limits r n) name

let cell h =
  let r, cell = h.bound in
  if r == !current then cell
  else begin
    let cell = h.cell_of !current h.hname in
    h.bound <- (!current, cell);
    cell
  end

let add c n =
  let c = cell c in
  c.c <- c.c + n

let incr c = add c 1

let count c = (cell c).c

let set g v = (cell g).g <- v

let set_max g v =
  let g = cell g in
  if v > g.g then g.g <- v

let value g = (cell g).g

let observe h x =
  let h = cell h in
  Stats.add h.hstats x;
  let n = Array.length h.limits in
  let i = ref 0 in
  while !i < n && x > h.limits.(!i) do
    Stdlib.incr i
  done;
  h.buckets.(!i) <- h.buckets.(!i) + 1

let reset registry =
  Hashtbl.iter
    (fun _ i ->
      match i with
      | Counter c -> c.c <- 0
      | Gauge g -> g.g <- 0.0
      | Histogram h ->
          Array.fill h.buckets 0 (Array.length h.buckets) 0;
          h.hstats <- Stats.create ())
    registry.tbl

let merge_into ~into src =
  if into != src then
    Hashtbl.iter
      (fun name i ->
        match i with
        | Counter c ->
            let d = counter_cell into name in
            d.c <- d.c + c.c
        | Gauge g ->
            let d = gauge_cell into name in
            if g.g > d.g then d.g <- g.g
        | Histogram h ->
            let d = histogram_cell ~limits:h.limits into name in
            if Array.length d.buckets <> Array.length h.buckets || d.limits <> h.limits then
              invalid_arg
                (Printf.sprintf "Metrics_reference.merge_into: histogram %s has mismatched limits"
                   name);
            Array.iteri (fun k n -> d.buckets.(k) <- d.buckets.(k) + n) h.buckets;
            d.hstats <- Stats.merge d.hstats h.hstats)
      src.tbl

(* Run [f] with a fresh registry current and return it beside the
   result; [merge] folds it into the registry current then. *)
let capture f =
  let prev = !current in
  let r = create () in
  current := r;
  Fun.protect ~finally:(fun () -> current := prev) (fun () -> (f (), r))

let merge r = merge_into ~into:!current r

let view_of_histogram h =
  let n = Stats.count h.hstats in
  let mean = Stats.mean h.hstats in
  {
    Metrics.hcount = n;
    hsum = mean *. float_of_int n;
    hmean = mean;
    hstddev = Stats.stddev h.hstats;
    hmin = (if n = 0 then 0.0 else Stats.min h.hstats);
    hmax = (if n = 0 then 0.0 else Stats.max h.hstats);
    hbuckets =
      List.init
        (Array.length h.buckets)
        (fun i ->
          let bound = if i < Array.length h.limits then h.limits.(i) else infinity in
          (bound, h.buckets.(i)));
  }

let snapshot registry : Metrics.snapshot =
  Hashtbl.fold
    (fun name i acc ->
      let v =
        match i with
        | Counter c -> Metrics.Counter_v c.c
        | Gauge g -> Metrics.Gauge_v g.g
        | Histogram h -> Metrics.Histogram_v (view_of_histogram h)
      in
      (name, v) :: acc)
    registry.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
