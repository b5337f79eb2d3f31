type ccell = { mutable c : int }

type gcell = { mutable g : float }

type hcell = {
  limits : float array;
  buckets : int array;  (** length = Array.length limits + 1 (overflow) *)
  mutable hstats : Stats.t;
}

type instrument = Counter of ccell | Gauge of gcell | Histogram of hcell

type registry = { tbl : (string, instrument) Hashtbl.t }

(* The table starts at one bucket and grows as instruments register, so
   a shard registry that records little costs a few words. *)
let create () = { tbl = Hashtbl.create 1 }

let default = create ()

(* Each domain records into its own *current* registry, so shard-local
   collection (Par tasks) needs no locks: a registry is only ever
   mutated by the domain it is current on.  The main domain's current
   registry is [default]; a freshly spawned domain starts on a private
   scratch registry until [set_current] installs its shard. *)
let current_key : registry Domain.DLS.key = Domain.DLS.new_key (fun () -> create ())

let () = Domain.DLS.set current_key default

let current () = Domain.DLS.get current_key

let set_current r = Domain.DLS.set current_key r

let with_current r f =
  let prev = current () in
  set_current r;
  Fun.protect ~finally:(fun () -> set_current prev) f

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let find_or_create registry name ~kind ~make ~cast =
  match Hashtbl.find_opt registry.tbl name with
  | Some i -> (
      match cast i with
      | Some x -> x
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics.%s: %s is already registered as a %s" kind name
               (kind_name i)))
  | None ->
      let x, i = make () in
      Hashtbl.replace registry.tbl name i;
      x

(* A handle created with an explicit registry is pinned to one cell for
   its lifetime (the historical behaviour).  A handle created without
   one follows the *current* registry of whichever domain uses it: the
   cell is re-resolved by name whenever the cached binding's registry is
   not this domain's current registry.  The cached [(registry, cell)]
   pair is immutable and replaced whole, so a racing reader on another
   domain sees either binding, verifies the registry against its own
   current, and rebinds on mismatch — increments can never land in a
   registry that is not current on the incrementing domain. *)
type 'cell binding = { bname : string; mutable bound : registry * 'cell }

type counter = Pinned_c of ccell | Dyn_c of ccell binding

type gauge = Pinned_g of gcell | Dyn_g of gcell binding

(* The dynamic histogram handle must remember its creation limits:
   re-resolving in a fresh registry (a Par shard) has to recreate the
   cell with the *same* buckets, or the shard merge would reject it as
   mismatched. *)
type histogram = Pinned_h of hcell | Dyn_h of { blimits : float array option; hb : hcell binding }

let counter_cell registry name =
  find_or_create registry name ~kind:"counter"
    ~make:(fun () ->
      let c = { c = 0 } in
      (c, Counter c))
    ~cast:(function Counter c -> Some c | Gauge _ | Histogram _ -> None)

let gauge_cell registry name =
  find_or_create registry name ~kind:"gauge"
    ~make:(fun () ->
      let g = { g = 0.0 } in
      (g, Gauge g))
    ~cast:(function Gauge g -> Some g | Counter _ | Histogram _ -> None)

let default_limits =
  [| 0.001; 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0; 10000.0; 100000.0; 1000000.0 |]

let histogram_cell ?(limits = default_limits) registry name =
  Array.iteri
    (fun i l ->
      if i > 0 && l <= limits.(i - 1) then
        invalid_arg "Metrics.histogram: limits must be strictly increasing")
    limits;
  find_or_create registry name ~kind:"histogram"
    ~make:(fun () ->
      let h =
        {
          limits = Array.copy limits;
          buckets = Array.make (Array.length limits + 1) 0;
          hstats = Stats.create ();
        }
      in
      (h, Histogram h))
    ~cast:(function Histogram h -> Some h | Counter _ | Gauge _ -> None)

let counter ?registry name =
  match registry with
  | Some r -> Pinned_c (counter_cell r name)
  | None ->
      let r = current () in
      Dyn_c { bname = name; bound = (r, counter_cell r name) }

let gauge ?registry name =
  match registry with
  | Some r -> Pinned_g (gauge_cell r name)
  | None ->
      let r = current () in
      Dyn_g { bname = name; bound = (r, gauge_cell r name) }

let histogram ?registry ?limits name =
  match registry with
  | Some r -> Pinned_h (histogram_cell ?limits r name)
  | None ->
      let r = current () in
      Dyn_h { blimits = limits; hb = { bname = name; bound = (r, histogram_cell ?limits r name) } }

let resolve b cell_of =
  let r, cell = b.bound in
  let cur = current () in
  if r == cur then cell
  else begin
    let cell = cell_of cur b.bname in
    b.bound <- (cur, cell);
    cell
  end

let ccell = function Pinned_c c -> c | Dyn_c b -> resolve b counter_cell

let gcell = function Pinned_g g -> g | Dyn_g b -> resolve b gauge_cell

let hcell = function
  | Pinned_h h -> h
  | Dyn_h { blimits; hb } -> resolve hb (fun r n -> histogram_cell ?limits:blimits r n)

let incr c =
  let c = ccell c in
  c.c <- c.c + 1

let add c n =
  let c = ccell c in
  c.c <- c.c + n

let count c = (ccell c).c

let set g v = (gcell g).g <- v

let set_max g v =
  let g = gcell g in
  if v > g.g then g.g <- v

let set_int g n = (gcell g).g <- float_of_int n

let set_max_int g n =
  let g = gcell g in
  let v = float_of_int n in
  if v > g.g then g.g <- v

let value g = (gcell g).g

let observe h x =
  let h = hcell h in
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
