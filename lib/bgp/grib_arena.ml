type t = {
  n : int;
  map : Packed_map.t;  (* (group * n + node) -> next_hop + 1 *)
  counts : int array;  (* per-router entry count *)
}

let create ?(initial = 16) ~domains () =
  if domains < 1 then invalid_arg "Grib_arena.create: need at least one domain";
  { n = domains; map = Packed_map.create ~initial (); counts = Array.make domains 0 }

let domains t = t.n

let key t ~group ~node =
  if group < 0 then invalid_arg "Grib_arena: negative group id";
  if node < 0 || node >= t.n then invalid_arg "Grib_arena: unknown node id";
  (group * t.n) + node

let no_entry = -2

let find t ~group ~node =
  match Packed_map.find t.map (key t ~group ~node) with
  | -1 -> no_entry
  | v -> v - 1

let mem t ~group ~node = Packed_map.mem t.map (key t ~group ~node)

(* One probe per update: the map's length tells whether the key was
   new (or was there to remove). *)
let set t ~group ~node hop =
  if hop < -1 || hop >= t.n then invalid_arg "Grib_arena.set: bad next hop";
  let k = key t ~group ~node in
  let before = Packed_map.length t.map in
  Packed_map.set t.map k (hop + 1);
  if Packed_map.length t.map > before then t.counts.(node) <- t.counts.(node) + 1

let remove t ~group ~node =
  let k = key t ~group ~node in
  let before = Packed_map.length t.map in
  Packed_map.remove t.map k;
  if Packed_map.length t.map < before then t.counts.(node) <- t.counts.(node) - 1

let clear t =
  Packed_map.clear t.map;
  Array.fill t.counts 0 t.n 0

let entries t = Packed_map.length t.map

let node_entries t node =
  if node < 0 || node >= t.n then invalid_arg "Grib_arena: unknown node id";
  t.counts.(node)

let storage_words t = (2 * Packed_map.capacity t.map) + t.n
