type handle = int

(* A handle packs a block offset (low 32 bits) with the generation the
   block had when the join was recorded.  [leave] bumps the block's
   generation, so a spent handle, or one whose block was recycled for a
   later join, no longer matches. *)
let offset_bits = 32
let offset_mask = (1 lsl offset_bits) - 1
let gen_mask = (1 lsl 30) - 1

(* A block's header word is [live_tag lor generation] while it holds a
   path and [free_tag lor generation] while it waits on a free list.
   Both tags are below -1, where no other pool word (group, len, node,
   free link) ever is, so a handle pointing into the middle of a block
   or at a free one never matches a header. *)
let live_tag = min_int
let free_tag = min_int lor (gen_mask + 1)

(* An entry slot packs the router id above its refcount; -1 is an
   empty slot. *)
let rc_bits = 31
let rc_mask = (1 lsl rc_bits) - 1

(* A group table at offset [o] of [tabs] is [mask; count; slots...]:
   [mask] is its capacity - 1 (a power of two, at least [2^min_log2]) and
   [count] its live entries, or, while the table is on a free list, the
   next free table of the same capacity. *)
let min_log2 = 3

(* Fixed odd multiplier (splitmix64's golden-gamma); the home slot is
   taken from the product's middle bits. *)
let mult = 0x2545F4914F6CDD1D

type t = {
  n : int;
  mutable dir : int array;  (* group -> its table's offset, or -1 *)
  mutable tabs : int array;  (* every group table *)
  mutable tabs_len : int;
  tab_free : int array;  (* log2 capacity -> first free table, or -1 *)
  mutable entries : int;
  counts : int array;  (* per-router live entry count *)
  mutable pool : int array;
      (* path blocks [header; group; len; nodes...]; a free block keeps
         its len and links to the next free block of that len in its
         group slot *)
  mutable pool_len : int;
  mutable free : int array;  (* len -> first free block, or -1 *)
  mutable live : int;
}

let create ~domains () =
  if domains < 1 then invalid_arg "Tree_arena.create: need at least one domain";
  if domains > rc_mask then invalid_arg "Tree_arena.create: too many domains";
  {
    n = domains;
    dir = [||];
    tabs = Array.make 1024 0;
    tabs_len = 0;
    tab_free = Array.make (rc_bits + 2) (-1);
    entries = 0;
    counts = Array.make domains 0;
    pool = Array.make 1024 0;
    pool_len = 0;
    free = [||];
    live = 0;
  }

(* Doubling growth of a flat pool holding [used] words so it fits
   [need]. *)
let grown_to a ~used ~need =
  let cap = ref (2 * Array.length a) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let b = Array.make !cap 0 in
  Array.blit a 0 b 0 used;
  b

let pool_reserve t extra =
  let need = t.pool_len + extra in
  if need > Array.length t.pool then begin
    if need > offset_mask then invalid_arg "Tree_arena: path pool exhausted";
    t.pool <- grown_to t.pool ~used:t.pool_len ~need
  end

(* A block of [len] nodes: the first free one of that length, else a
   fresh one at the end of the pool (generation 0). *)
let alloc_block t len =
  if len < Array.length t.free && t.free.(len) >= 0 then begin
    let b = t.free.(len) in
    t.free.(len) <- t.pool.(b + 1);
    t.pool.(b) <- live_tag lor (t.pool.(b) land gen_mask);
    b
  end
  else begin
    pool_reserve t (len + 3);
    let b = t.pool_len in
    t.pool.(b) <- live_tag;
    t.pool.(b + 2) <- len;
    t.pool_len <- t.pool_len + len + 3;
    b
  end

let free_block t b len =
  if len >= Array.length t.free then begin
    let grown = Array.make (max (len + 1) (2 * Array.length t.free)) (-1) in
    Array.blit t.free 0 grown 0 (Array.length t.free);
    t.free <- grown
  end;
  t.pool.(b) <- free_tag lor ((t.pool.(b) + 1) land gen_mask);
  t.pool.(b + 1) <- t.free.(len);
  t.free.(len) <- b

(* An empty table of capacity [2^k]: the first free one of that
   capacity (emptied slots are already -1), else a fresh one at the end
   of [tabs]. *)
let alloc_table t k =
  let o = t.tab_free.(k) in
  if o >= 0 then begin
    t.tab_free.(k) <- t.tabs.(o + 1);
    t.tabs.(o + 1) <- 0;
    o
  end
  else begin
    let cap = 1 lsl k in
    let need = t.tabs_len + cap + 2 in
    if need > Array.length t.tabs then t.tabs <- grown_to t.tabs ~used:t.tabs_len ~need;
    let o = t.tabs_len in
    t.tabs.(o) <- cap - 1;
    t.tabs.(o + 1) <- 0;
    Array.fill t.tabs (o + 2) cap (-1);
    t.tabs_len <- need;
    o
  end

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* Only an empty table is freed, so its slots are all -1 again. *)
let free_table t o =
  let k = log2 (t.tabs.(o) + 1) in
  t.tabs.(o + 1) <- t.tab_free.(k);
  t.tab_free.(k) <- o

let home node mask = (node * mult) lsr 32 land mask

(* The slot (an index into [tabs]) holding [node] in the table at [o],
   or the empty slot that ends its probe run (the load factor keeps
   one). *)
let locate tabs o node =
  let mask = Array.unsafe_get tabs o in
  let base = o + 2 in
  let i = ref (home node mask) in
  while
    let s = Array.unsafe_get tabs (base + !i) in
    s >= 0 && s lsr rc_bits <> node
  do
    i := (!i + 1) land mask
  done;
  base + !i

(* The table at [o] rehashed into one of twice the capacity, which
   replaces it as [group]'s; the old one, emptied, is freed. *)
let grow_table t group o =
  let mask = t.tabs.(o) in
  let o' = alloc_table t (log2 (2 * (mask + 1))) in
  let tabs = t.tabs in
  for i = o + 2 to o + 2 + mask do
    let s = tabs.(i) in
    if s >= 0 then begin
      tabs.(locate tabs o' (s lsr rc_bits)) <- s;
      tabs.(i) <- -1
    end
  done;
  tabs.(o' + 1) <- tabs.(o + 1);
  tabs.(o + 1) <- 0;
  free_table t o;
  t.dir.(group) <- o';
  o'

(* [group]'s table, made on its first entry. *)
let table_for t group =
  if group >= Array.length t.dir then begin
    let grown = Array.make (max (group + 1) (2 * Array.length t.dir)) (-1) in
    Array.blit t.dir 0 grown 0 (Array.length t.dir);
    t.dir <- grown
  end;
  let o = t.dir.(group) in
  if o >= 0 then o
  else begin
    let o = alloc_table t min_log2 in
    t.dir.(group) <- o;
    o
  end

(* A first reference to [node], which [group]'s table at [o] lacks, in
   the empty slot [i] ending its probe run.  The table doubles first when
   the insert would take it past 3/4 load; the result is the table's
   offset, which then moves. *)
let insert t group o i node =
  let count = t.tabs.(o + 1) + 1 in
  let grows = 4 * count > 3 * (t.tabs.(o) + 1) in
  let o = if grows then grow_table t group o else o in
  let i = if grows then locate t.tabs o node else i in
  t.tabs.(i) <- (node lsl rc_bits) lor 1;
  t.tabs.(o + 1) <- count;
  t.entries <- t.entries + 1;
  t.counts.(node) <- t.counts.(node) + 1;
  o

(* Backward-shift deletion of the entry in slot [i] of the table at
   [o]: walk the probe cluster after the hole; any entry whose home lies
   at or before the hole (cyclically) moves into it, re-opening the
   hole further down. *)
let delete_at t o i node =
  let tabs = t.tabs in
  let mask = tabs.(o) and base = o + 2 in
  let hole = ref (i - base) in
  let j = ref ((!hole + 1) land mask) in
  let scanning = ref true in
  while !scanning do
    let s = tabs.(base + !j) in
    if s < 0 then scanning := false
    else begin
      let h = home (s lsr rc_bits) mask in
      if (!j - h) land mask >= (!j - !hole) land mask then begin
        tabs.(base + !hole) <- s;
        hole := !j
      end;
      j := (!j + 1) land mask
    end
  done;
  tabs.(base + !hole) <- -1;
  tabs.(o + 1) <- tabs.(o + 1) - 1;
  t.entries <- t.entries - 1;
  t.counts.(node) <- t.counts.(node) - 1

(* The hot loops of [join] and [leave] probe inline: one directory read,
   then each path node is a probe of the group's few table lines, and
   only a first or last reference leaves the loop. *)
let join t ~group ~path ~len =
  if group < 0 then invalid_arg "Tree_arena.join: negative group";
  if len <= 0 then invalid_arg "Tree_arena.join: empty path";
  if len > Array.length path then invalid_arg "Tree_arena.join: len exceeds path";
  for i = 0 to len - 1 do
    let v = path.(i) in
    if v < 0 || v >= t.n then invalid_arg "Tree_arena.join: node out of range"
  done;
  let b = alloc_block t len in
  let pool = t.pool in
  pool.(b + 1) <- group;
  let o = ref (table_for t group) in
  for i = 0 to len - 1 do
    let node = Array.unsafe_get path i in
    Array.unsafe_set pool (b + 3 + i) node;
    let tabs = t.tabs in
    let i = locate tabs !o node in
    let s = Array.unsafe_get tabs i in
    if s >= 0 then Array.unsafe_set tabs i (s + 1) else o := insert t group !o i node
  done;
  t.live <- t.live + 1;
  ((pool.(b) land gen_mask) lsl offset_bits) lor b

(* A live block of [group] means the group's table exists; the leave
   that empties it frees it for the next group that needs one. *)
let leave t ~group (h : handle) =
  let b = h land offset_mask in
  let pool = t.pool in
  if h < 0 || b + 3 > t.pool_len then invalid_arg "Tree_arena.leave: bad handle";
  if pool.(b) <> live_tag lor (h lsr offset_bits) || pool.(b + 1) <> group then
    invalid_arg "Tree_arena.leave: handle spent or group mismatch";
  let len = pool.(b + 2) in
  let o = t.dir.(group) in
  let tabs = t.tabs in
  for k = b + 3 to b + 2 + len do
    let node = Array.unsafe_get pool k in
    let i = locate tabs o node in
    let s = Array.unsafe_get tabs i in
    if s land rc_mask > 1 then Array.unsafe_set tabs i (s - 1) else delete_at t o i node
  done;
  if tabs.(o + 1) = 0 then begin
    free_table t o;
    t.dir.(group) <- -1
  end;
  free_block t b len;
  t.live <- t.live - 1

(* Both pools restart empty, so blocks, tables and handles come out at
   the same offsets and generation 0 as in a fresh arena; the arrays
   keep their capacity. *)
let clear t =
  Array.fill t.dir 0 (Array.length t.dir) (-1);
  t.tabs_len <- 0;
  Array.fill t.tab_free 0 (Array.length t.tab_free) (-1);
  t.entries <- 0;
  Array.fill t.counts 0 t.n 0;
  t.pool_len <- 0;
  Array.fill t.free 0 (Array.length t.free) (-1);
  t.live <- 0

let entries t = t.entries

let live_paths t = t.live

let node_entries t node =
  if node < 0 || node >= t.n then invalid_arg "Tree_arena: unknown node id";
  t.counts.(node)

let refs t ~group ~node =
  if group < 0 then invalid_arg "Tree_arena.refs: negative group";
  if node < 0 || node >= t.n then invalid_arg "Tree_arena: unknown node id";
  let o = if group < Array.length t.dir then t.dir.(group) else -1 in
  if o < 0 then 0
  else
    let s = t.tabs.(locate t.tabs o node) in
    if s < 0 then 0 else s land rc_mask

let storage_words t =
  Array.length t.dir + Array.length t.tabs + Array.length t.tab_free + t.n
  + Array.length t.pool + Array.length t.free
