(* Slot [i] is the pair [slots.(2i)] (key, [-1] when empty) and
   [slots.(2i+1)] (value), so one probe reads one cache line. *)
type t = {
  mutable slots : int array;
  mutable len : int;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable shift : int;  (* 62 - log2 capacity, for multiply-shift *)
}

(* Fixed odd multiplier (splitmix64's golden-gamma); the home slot is
   the high bits of [k * mult], which mixes far better than the low
   bits for near-sequential packed keys. *)
let mult = 0x2545F4914F6CDD1D

let home t k = (k * mult) lsr t.shift land t.mask

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create () =
  let cap = 16 in
  { slots = Array.make (2 * cap) (-1); len = 0; mask = cap - 1; shift = 62 - log2 cap }

(* The one probe loop: the slot holding the nonnegative key [k], or the
   empty slot that ends its probe run (the load factor keeps one). *)
let locate t k =
  let s = t.slots in
  let i = ref (home t k) in
  while
    let kk = s.(2 * !i) in
    kk <> k && kk <> -1
  do
    i := (!i + 1) land t.mask
  done;
  !i

let find t k =
  if k < 0 then -1
  else
    let i = locate t k in
    if t.slots.(2 * i) = k then t.slots.((2 * i) + 1) else -1

(* Doubling re-inserts the old slots in slot order, so the layout is a
   function of the insertion history alone. *)
let grow t =
  let old = t.slots in
  let cap = 2 * (t.mask + 1) in
  t.slots <- Array.make (2 * cap) (-1);
  t.mask <- cap - 1;
  t.shift <- 62 - log2 cap;
  for s = 0 to (Array.length old / 2) - 1 do
    let k = old.(2 * s) in
    if k >= 0 then begin
      let i = locate t k in
      t.slots.(2 * i) <- k;
      t.slots.((2 * i) + 1) <- old.((2 * s) + 1)
    end
  done

let set t k v =
  if k < 0 || v < 0 then invalid_arg "Packed_map.set: negative key or value";
  if (t.len + 1) * 10 > (t.mask + 1) * 7 then grow t;
  let i = locate t k in
  if t.slots.(2 * i) <> k then begin
    t.slots.(2 * i) <- k;
    t.len <- t.len + 1
  end;
  t.slots.((2 * i) + 1) <- v

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  t.len <- 0
