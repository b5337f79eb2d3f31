(* [Tree_arena] in its global-table form, kept as the differential
   oracle for the per-group tables: every (group, node) refcount lives
   in one hash table keyed [group * n + node], and a refcount change
   is a lookup followed by a [replace] (or a [remove] at zero).  The path
   pool, its free lists and the handle encoding are the arena's own,
   so handles, errors and answers must agree exactly. *)

type handle = int

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

type t = {
  n : int;
  refs : (int, int) Hashtbl.t;  (* (group * n + node) -> refcount *)
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
  {
    n = domains;
    refs = Hashtbl.create 64;
    counts = Array.make domains 0;
    pool = Array.make 1024 0;
    pool_len = 0;
    free = [||];
    live = 0;
  }

let key t group node = (group * t.n) + node

let pool_reserve t extra =
  let need = t.pool_len + extra in
  if need > Array.length t.pool then begin
    if need > offset_mask then invalid_arg "Tree_arena: path pool exhausted";
    let cap = ref (2 * Array.length t.pool) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let grown = Array.make !cap 0 in
    Array.blit t.pool 0 grown 0 t.pool_len;
    t.pool <- grown
  end

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

let incr_ref t group node =
  let k = key t group node in
  match Hashtbl.find_opt t.refs k with
  | None ->
      Hashtbl.replace t.refs k 1;
      t.counts.(node) <- t.counts.(node) + 1
  | Some r -> Hashtbl.replace t.refs k (r + 1)

let decr_ref t group node =
  let k = key t group node in
  match Hashtbl.find t.refs k with
  | 1 ->
      Hashtbl.remove t.refs k;
      t.counts.(node) <- t.counts.(node) - 1
  | r -> Hashtbl.replace t.refs k (r - 1)

let join t ~group ~path ~len =
  if group < 0 then invalid_arg "Tree_arena.join: negative group";
  if len <= 0 then invalid_arg "Tree_arena.join: empty path";
  if len > Array.length path then invalid_arg "Tree_arena.join: len exceeds path";
  for i = 0 to len - 1 do
    let v = path.(i) in
    if v < 0 || v >= t.n then invalid_arg "Tree_arena.join: node out of range"
  done;
  let b = alloc_block t len in
  t.pool.(b + 1) <- group;
  Array.blit path 0 t.pool (b + 3) len;
  for i = 0 to len - 1 do
    incr_ref t group path.(i)
  done;
  t.live <- t.live + 1;
  ((t.pool.(b) land gen_mask) lsl offset_bits) lor b

let leave t ~group (h : handle) =
  let b = h land offset_mask in
  if h < 0 || b + 3 > t.pool_len then invalid_arg "Tree_arena.leave: bad handle";
  if t.pool.(b) <> live_tag lor (h lsr offset_bits) || t.pool.(b + 1) <> group then
    invalid_arg "Tree_arena.leave: handle spent or group mismatch";
  let len = t.pool.(b + 2) in
  for i = 0 to len - 1 do
    decr_ref t group t.pool.(b + 3 + i)
  done;
  free_block t b len;
  t.live <- t.live - 1

let clear t =
  Hashtbl.reset t.refs;
  Array.fill t.counts 0 t.n 0;
  t.pool_len <- 0;
  Array.fill t.free 0 (Array.length t.free) (-1);
  t.live <- 0

let entries t = Hashtbl.length t.refs

let live_paths t = t.live

let node_entries t node =
  if node < 0 || node >= t.n then invalid_arg "Tree_arena: unknown node id";
  t.counts.(node)

let refs t ~group ~node =
  if group < 0 then invalid_arg "Tree_arena.refs: negative group";
  if node < 0 || node >= t.n then invalid_arg "Tree_arena: unknown node id";
  Option.value (Hashtbl.find_opt t.refs (key t group node)) ~default:0
