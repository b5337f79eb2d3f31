open Obs_ctx

type registry = Obs_ctx.registry

let default = Obs_ctx.main.metrics

let current () = (Obs_ctx.get ()).metrics

(* --- Slots ------------------------------------------------------------ *)

(* Handles may be made on any domain, so the name table takes a lock;
   it is read only when a handle is made, never by an update.  Nothing
   between the lock and the unlock raises but [Not_found], handled. *)
let slots : (string, slot) Hashtbl.t = Hashtbl.create 64

let slots_lock = Mutex.create ()

let slot name =
  Mutex.lock slots_lock;
  let s =
    match Hashtbl.find slots name with
    | s -> s
    | exception Not_found ->
        let s = { id = Hashtbl.length slots; name } in
        Hashtbl.add slots name s;
        s
  in
  Mutex.unlock slots_lock;
  s

(* --- Cell tables ------------------------------------------------------ *)

let slot_of = function
  | Counter { slot; _ } | Gauge { slot; _ } | Histogram { slot; _ } -> slot
  | Absent -> invalid_arg "Metrics.slot_of"

(* The entry holding [s]'s cell, or the [Absent] one where it belongs. *)
let rec index cells s i =
  match Array.unsafe_get cells i with
  | Absent -> i
  | c -> if slot_of c == s then i else index cells s ((i + 1) land (Array.length cells - 1))

let probe cells s = index cells s (s.id land (Array.length cells - 1))

(* The common case of [probe], spelled out so that an update that finds
   its cell at the first probe makes no call. *)
let[@inline] first cells s = Array.unsafe_get cells (s.id land (Array.length cells - 1))

let find r s = Array.unsafe_get r.cells (probe r.cells s)

let grow r =
  let old = r.cells in
  let cells = Array.make (max 4 (2 * Array.length old)) Absent in
  Array.iter (fun c -> if c != Absent then cells.(probe cells (slot_of c)) <- c) old;
  r.cells <- cells

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Absent -> "nothing"

(* Give [s] the cell [make s] in [r] unless [r] has a cell for it: one
   of [kind] is kept, one of another kind raises. *)
let register r s ~kind make =
  match find r s with
  | Absent ->
      if 2 * (r.count + 1) > Array.length r.cells then grow r;
      r.cells.(probe r.cells s) <- make s;
      r.count <- r.count + 1
  | c ->
      if kind_name c <> kind then
        invalid_arg
          (Printf.sprintf "Metrics.%s: %s is already registered as a %s" kind s.name (kind_name c))

(* --- Instrument handles ----------------------------------------------- *)

(* A handle is its name's slot, so it stays valid under any registry:
   an update finds the cell in whichever registry is current on its
   domain, and only a registry's first use of a slot registers it. *)
type counter = slot

type gauge = slot

(* A histogram's cell is made with the limits of the handle that first
   registers it in a registry, so a shard recreates the same buckets. *)
type histogram = { hslot : slot; hlimits : float array }

let new_counter slot = Counter { slot; c = 0 }

let new_gauge slot = Gauge { slot; gv = { g = 0.0 } }

let new_histogram limits slot =
  Histogram
    {
      slot;
      h =
        {
          limits = Array.copy limits;
          buckets = Array.make (Array.length limits + 1) 0;
          hstats = Stats.create ();
        };
    }

let counter name =
  let s = slot name in
  register (current ()) s ~kind:"counter" new_counter;
  s

let gauge name =
  let s = slot name in
  register (current ()) s ~kind:"gauge" new_gauge;
  s

let default_limits =
  [| 0.001; 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0; 10000.0; 100000.0; 1000000.0 |]

let histogram ?(limits = default_limits) name =
  Array.iteri
    (fun i l ->
      if i > 0 && l <= limits.(i - 1) then
        invalid_arg "Metrics.histogram: limits must be strictly increasing")
    limits;
  let h = { hslot = slot name; hlimits = limits } in
  register (current ()) h.hslot ~kind:"histogram" (new_histogram limits);
  h

(* Updates in a given registry: the first probe inline, then the slow
   path, which probes on and registers the slot if it is absent. *)
let rec add_slow r s n =
  match find r s with
  | Counter k -> k.c <- k.c + n
  | _ ->
      register r s ~kind:"counter" new_counter;
      add_slow r s n

let[@inline] add_in r s n =
  match first r.cells s with
  | Counter k when k.slot == s -> k.c <- k.c + n
  | _ -> add_slow r s n

let rec count_in r s =
  match find r s with
  | Counter k -> k.c
  | _ ->
      register r s ~kind:"counter" new_counter;
      count_in r s

let rec gcell_slow r s =
  match find r s with
  | Gauge k -> k.gv
  | _ ->
      register r s ~kind:"gauge" new_gauge;
      gcell_slow r s

let[@inline] gcell_in r s =
  match first r.cells s with Gauge k when k.slot == s -> k.gv | _ -> gcell_slow r s

let rec hcell_in r h =
  match find r h.hslot with
  | Histogram k -> k.h
  | _ ->
      register r h.hslot ~kind:"histogram" (new_histogram h.hlimits);
      hcell_in r h

let incr c = add_in (current ()) c 1

let add c n = add_in (current ()) c n

let count c = count_in (current ()) c

(* The gauge setters stay this small so that they inline at their call
   sites and no float crosses a call; the lookup is a call of its own. *)
let[@inline never] gcell g = gcell_in (current ()) g

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
  let h = hcell_in (current ()) h in
  Stats.add h.hstats x;
  let n = Array.length h.limits in
  let i = ref 0 in
  while !i < n && x > h.limits.(!i) do
    Stdlib.incr i
  done;
  h.buckets.(!i) <- h.buckets.(!i) + 1

let reset registry =
  Array.iter
    (function
      | Absent -> ()
      | Counter k -> k.c <- 0
      | Gauge k -> k.gv.g <- 0.0
      | Histogram { h; _ } ->
          Array.fill h.buckets 0 (Array.length h.buckets) 0;
          h.hstats <- Stats.create ())
    registry.cells

(* ------------------------------------------------------------------ *)
(* Shard merge                                                         *)
(* ------------------------------------------------------------------ *)

(* Fold a shard registry into [into]: counters and histogram buckets
   add, histogram moment accumulators combine via [Stats.merge], gauges
   keep the maximum (the cross-shard reading of [set_max] high-water
   marks; plain last-value gauges from concurrent shards have no
   sequential order to preserve).  Counter/bucket merging is exact and
   order-independent; merging shards in a deterministic order (Par does
   item order) makes the float fields deterministic too.  A loop, not
   an iterator, so an empty shard's merge allocates nothing. *)
let merge_into ~into src =
  if into != src then
    let cells = src.cells in
    for i = 0 to Array.length cells - 1 do
      match Array.unsafe_get cells i with
      | Absent -> ()
      | Counter k -> add_in into k.slot k.c
      | Gauge k ->
          let d = gcell_in into k.slot in
          if k.gv.g > d.g then d.g <- k.gv.g
      | Histogram { slot; h } ->
          let d = hcell_in into { hslot = slot; hlimits = h.limits } in
          if Array.length d.buckets <> Array.length h.buckets || d.limits <> h.limits then
            invalid_arg
              (Printf.sprintf "Metrics.merge_into: histogram %s has mismatched limits" slot.name);
          Array.iteri (fun k n -> d.buckets.(k) <- d.buckets.(k) + n) h.buckets;
          d.hstats <- Stats.merge d.hstats h.hstats
    done

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

let snapshot registry =
  Array.fold_left
    (fun acc -> function
      | Absent -> acc
      | Counter k -> (k.slot.name, Counter_v k.c) :: acc
      | Gauge k -> (k.slot.name, Gauge_v k.gv.g) :: acc
      | Histogram k -> (k.slot.name, Histogram_v (view_of_histogram k.h)) :: acc)
    [] registry.cells
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
