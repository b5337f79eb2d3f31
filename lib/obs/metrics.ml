open Obs_ctx

type registry = Obs_ctx.registry

let create = Obs_ctx.registry

let default = Obs_ctx.main.metrics

(* Every metric update reads this: one domain-local read and one field
   load, spelled out so that no call is left between them. *)
let current () = (Domain.DLS.get Obs_ctx.key).metrics

let with_current r f =
  let ctx = Obs_ctx.get () in
  let prev = ctx.metrics in
  ctx.metrics <- r;
  Fun.protect ~finally:(fun () -> ctx.metrics <- prev) f

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let mismatch kind name i =
  invalid_arg
    (Printf.sprintf "Metrics.%s: %s is already registered as a %s" kind name (kind_name i))

(* A handle follows the current registry of whichever domain uses it:
   the cell is re-resolved by name whenever the cached binding's
   registry is not this domain's current one.  The cached
   [(registry, cell)] pair is immutable and replaced whole, so a racing
   reader on another domain sees either binding, verifies the registry
   against its own current, and rebinds on mismatch — an update can
   never land in a registry that is not current on the updating domain.
   [cell_of] finds or creates the cell in a registry; a histogram's
   carries its creation limits, so a shard recreates the same buckets. *)
type 'cell handle = {
  hname : string;
  cell_of : registry -> string -> 'cell;
  mutable bound : registry * 'cell;
}

type counter = ccell handle

type gauge = gcell handle

type histogram = hcell handle

(* Find or create a named cell.  A hit allocates nothing. *)
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
        invalid_arg "Metrics.histogram: limits must be strictly increasing")
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

let handle cell_of name =
  let r = current () in
  { hname = name; cell_of; bound = (r, cell_of r name) }

let counter name = handle counter_cell name

let gauge name = handle gauge_cell name

let histogram ?limits name = handle (fun r n -> histogram_cell ?limits r n) name

let cell h =
  let r, cell = h.bound in
  let cur = current () in
  if r == cur then cell
  else begin
    let cell = h.cell_of cur h.hname in
    h.bound <- (cur, cell);
    cell
  end

let incr c =
  let c = cell c in
  c.c <- c.c + 1

let add c n =
  let c = cell c in
  c.c <- c.c + n

let count c = (cell c).c

let set g v = (cell g).g <- v

let set_max g v =
  let g = cell g in
  if v > g.g then g.g <- v

let set_int g n = (cell g).g <- float_of_int n

let set_max_int g n =
  let g = cell g in
  let v = float_of_int n in
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

(* ------------------------------------------------------------------ *)
(* Shard merge                                                         *)
(* ------------------------------------------------------------------ *)

(* Fold a shard registry into [into]: counters and histogram buckets
   add, histogram moment accumulators combine via [Stats.merge], gauges
   keep the maximum (the cross-shard reading of [set_max] high-water
   marks; plain last-value gauges from concurrent shards have no
   sequential order to preserve).  Counter/bucket merging is exact and
   order-independent; merging shards in a deterministic order (Par does
   item order) makes the float fields deterministic too. *)
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
                (Printf.sprintf "Metrics.merge_into: histogram %s has mismatched limits" name);
            Array.iteri (fun k n -> d.buckets.(k) <- d.buckets.(k) + n) h.buckets;
            d.hstats <- Stats.merge d.hstats h.hstats)
      src.tbl

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type hist_view = {
  hcount : int;
  hsum : float;
  hmean : float;
  hstddev : float;
  hmin : float;
  hmax : float;
  hbuckets : (float * int) list;
}

type value = Counter_v of int | Gauge_v of float | Histogram_v of hist_view

type snapshot = (string * value) list

let view_of_histogram h =
  let n = Stats.count h.hstats in
  let mean = Stats.mean h.hstats in
  {
    hcount = n;
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

(* Prometheus-style bucket interpolation: find the bucket where the
   cumulative count reaches rank p% of the total, then interpolate
   linearly between its lower and upper bound.  The first bucket's lower
   bound is the histogram's observed minimum and the overflow bucket's
   upper bound its observed maximum, so the estimate never leaves the
   observed range. *)
let percentile_of_view v p =
  if p < 0.0 || p > 100.0 then invalid_arg "Metrics.percentile_of_view: p outside [0, 100]";
  if v.hcount = 0 then invalid_arg "Metrics.percentile_of_view: empty histogram";
  let rank = p /. 100.0 *. float_of_int v.hcount in
  let rec walk lower cum = function
    | [] -> v.hmax
    | (bound, c) :: rest ->
        let cum' = cum +. float_of_int c in
        if c > 0 && cum' >= rank then begin
          let hi = if bound = infinity then v.hmax else Float.min bound v.hmax in
          let lo = Float.max lower v.hmin in
          if hi <= lo then hi
          else lo +. ((hi -. lo) *. (Float.max 0.0 (rank -. cum) /. float_of_int c))
        end
        else walk bound cum' rest
  in
  walk neg_infinity 0.0 v.hbuckets

let snapshot registry =
  Hashtbl.fold
    (fun name i acc ->
      let v =
        match i with
        | Counter c -> Counter_v c.c
        | Gauge g -> Gauge_v g.g
        | Histogram h -> Histogram_v (view_of_histogram h)
      in
      (name, v) :: acc)
    registry.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find snap name = List.assoc_opt name snap

let diff ~before ~after =
  List.map
    (fun (name, v) ->
      let v' =
        match (v, find before name) with
        | Counter_v a, Some (Counter_v b) -> Counter_v (a - b)
        | Histogram_v a, Some (Histogram_v b) ->
            Histogram_v
              {
                a with
                hcount = a.hcount - b.hcount;
                hsum = a.hsum -. b.hsum;
                hbuckets =
                  List.map2
                    (fun (bound, ca) (_, cb) -> (bound, ca - cb))
                    a.hbuckets b.hbuckets;
              }
        | (Counter_v _ | Gauge_v _ | Histogram_v _), _ -> v
      in
      (name, v'))
    after

let pp_float ppf f =
  if Float.is_integer f && Float.abs f < 1e15 then Format.fprintf ppf "%.0f" f
  else Format.fprintf ppf "%g" f

let pp ppf snap =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter_v c -> Format.fprintf ppf "%-36s %d@." name c
      | Gauge_v g -> Format.fprintf ppf "%-36s %a@." name pp_float g
      | Histogram_v h ->
          Format.fprintf ppf "%-36s count=%d mean=%a min=%a max=%a@." name h.hcount pp_float
            h.hmean pp_float h.hmin pp_float h.hmax)
    snap

(* Deterministic, dependency-free JSON. *)

let json_float f =
  if Float.is_nan f then "null"
  else if f = infinity then "\"+inf\""
  else if f = neg_infinity then "\"-inf\""
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_json snap =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"metrics\": [\n";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ",\n";
      (match v with
      | Counter_v c ->
          Buffer.add_string b
            (Printf.sprintf "    {\"name\": \"%s\", \"kind\": \"counter\", \"value\": %d}"
               (Jsonl.json_escape name) c)
      | Gauge_v g ->
          Buffer.add_string b
            (Printf.sprintf "    {\"name\": \"%s\", \"kind\": \"gauge\", \"value\": %s}"
               (Jsonl.json_escape name) (json_float g))
      | Histogram_v h ->
          Buffer.add_string b
            (Printf.sprintf
               "    {\"name\": \"%s\", \"kind\": \"histogram\", \"count\": %d, \"sum\": %s, \
                \"mean\": %s, \"stddev\": %s, \"min\": %s, \"max\": %s, \"buckets\": [%s]}"
               (Jsonl.json_escape name) h.hcount (json_float h.hsum) (json_float h.hmean)
               (json_float h.hstddev) (json_float h.hmin) (json_float h.hmax)
               (String.concat ", "
                  (List.map
                     (fun (bound, c) ->
                       Printf.sprintf "{\"le\": %s, \"count\": %d}" (json_float bound) c)
                     h.hbuckets)))))
    snap;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
