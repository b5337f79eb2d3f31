type t = {
  n : int;
  mutable rows : int array array;
      (* group -> next hop per router ([no_entry] where none), or [||]
         before the group's first entry *)
  counts : int array;  (* per-router entry count *)
  mutable entries : int;
}

let no_entry = -2

let create ~domains () =
  if domains < 1 then invalid_arg "Grib_arena.create: need at least one domain";
  { n = domains; rows = [||]; counts = Array.make domains 0; entries = 0 }

let check t ~group ~node =
  if group < 0 then invalid_arg "Grib_arena: negative group id";
  if node < 0 || node >= t.n then invalid_arg "Grib_arena: unknown node id"

let row t group = if group < Array.length t.rows then t.rows.(group) else [||]

let find t ~group ~node =
  check t ~group ~node;
  let r = row t group in
  if Array.length r = 0 then no_entry else r.(node)

let mem t ~group ~node = find t ~group ~node <> no_entry

(* [group]'s row, made on its first entry. *)
let row_for t group =
  if group >= Array.length t.rows then begin
    let grown = Array.make (max (group + 1) (2 * Array.length t.rows)) [||] in
    Array.blit t.rows 0 grown 0 (Array.length t.rows);
    t.rows <- grown
  end;
  let r = t.rows.(group) in
  if Array.length r > 0 then r
  else begin
    let r = Array.make t.n no_entry in
    t.rows.(group) <- r;
    r
  end

let set t ~group ~node hop =
  if hop < -1 || hop >= t.n then invalid_arg "Grib_arena.set: bad next hop";
  check t ~group ~node;
  let r = row_for t group in
  if r.(node) = no_entry then begin
    t.counts.(node) <- t.counts.(node) + 1;
    t.entries <- t.entries + 1
  end;
  r.(node) <- hop

(* Rows are kept, emptied: a fresh arena answers [no_entry] alike. *)
let clear t =
  Array.iter (fun r -> Array.fill r 0 (Array.length r) no_entry) t.rows;
  Array.fill t.counts 0 t.n 0;
  t.entries <- 0

let entries t = t.entries

let node_entries t node =
  if node < 0 || node >= t.n then invalid_arg "Grib_arena: unknown node id";
  t.counts.(node)
