(* The SplitMix64 counter lives unboxed in 8 bytes: reading and writing
   it through [Bytes.get_int64_le]/[set_int64_le] keeps the int64 in a
   register, so a draw allocates nothing.  [int64], [float] and
   [float_in] are [@inline] because without flambda a non-inlined int64
   or float return is boxed. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let reseed t seed = Bytes.set_int64_le t 0 (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function: advance the counter by the golden-ratio
   increment, then scramble with two xor-shift-multiply rounds. *)
let[@inline] int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (int64 t)

let split_into t dst = Bytes.set_int64_le dst 0 (int64 t)

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

(* 30 uniform bits for bounds up to 2^30, 62 above. *)
let[@inline] draw_for t ~small =
  if small then bits t else Int64.to_int (Int64.shift_right_logical (int64 t) 2)

(* Rejection sampling to avoid modulo bias: redraw while [r] falls in
   the incomplete last block of [bound] values. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let small = bound <= 1 lsl 30 in
  let r = ref (draw_for t ~small) in
  let v = ref (!r mod bound) in
  while !r - !v + (bound - 1) < 0 do
    r := draw_for t ~small;
    v := !r mod bound
  done;
  !v

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  (* 53 uniform bits into the mantissa. *)
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  r /. 9007199254740992.0 *. bound

let[@inline] float_in t lo hi = lo +. float t (hi -. lo)

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

(* Per-domain scratch for [sample_into], grown to the largest [n] seen
   and never cleared.  Sparse branch: [v] was drawn in the current call
   iff [stamps.(v) = generation].  Dense branch: [perm] holds the
   identity permutation of [\[0, n)] that the call shuffles. *)
type scratch = { mutable stamps : int array; mutable generation : int; mutable perm : int array }

let scratch_key : scratch Stdlib.Domain.DLS.key =
  Stdlib.Domain.DLS.new_key (fun () -> { stamps = [||]; generation = 0; perm = [||] })

let sample_into t k n dst =
  if k < 0 || k > n || Array.length dst < k then invalid_arg "Rng.sample_into";
  let s = Stdlib.Domain.DLS.get scratch_key in
  (* For small k relative to n draw until k distinct values are stamped;
     otherwise shuffle a full index array.  Both are O(k) expected beyond
     the O(n) shuffle. *)
  if 2 * k >= n then begin
    if Array.length s.perm < n then s.perm <- Array.make n 0;
    let perm = s.perm in
    for i = 0 to n - 1 do
      perm.(i) <- i
    done;
    (* Fisher-Yates over [perm.(0 .. n - 1)]. *)
    for i = n - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- tmp
    done;
    Array.blit perm 0 dst 0 k
  end
  else begin
    if Array.length s.stamps < n then s.stamps <- Array.make n 0;
    s.generation <- s.generation + 1;
    let generation = s.generation and stamps = s.stamps in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if stamps.(v) <> generation then begin
        stamps.(v) <- generation;
        dst.(!filled) <- v;
        incr filled
      end
    done
  end

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  let out = Array.make k 0 in
  sample_into t k n out;
  out
