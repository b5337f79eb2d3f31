type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 output function: advance the counter by the golden-ratio
   increment, then scramble with two xor-shift-multiply rounds. *)
let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = int64 t in
  { state = seed }

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound <= 1 lsl 30 then begin
    (* Rejection sampling to avoid modulo bias. *)
    let rec draw () =
      let r = bits t in
      let v = r mod bound in
      if r - v + (bound - 1) < 0 then draw () else v
    in
    draw ()
  end else begin
    let rec draw () =
      let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
      let v = r mod bound in
      if r - v + (bound - 1) < 0 then draw () else v
    in
    draw ()
  end

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform bits into the mantissa. *)
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  r /. 9007199254740992.0 *. bound

let float_in t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t ~mean =
  let rec positive () =
    let u = float t 1.0 in
    if u > 0.0 then u else positive ()
  in
  -. mean *. log (positive ())

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ :: _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Membership stamps for the sparse branch of [sample_without_replacement]:
   [v] was drawn in the current call iff [stamps.(v) = generation].  One
   array per runtime domain, grown to the largest [n] seen and never
   cleared, so a call allocates only its result. *)
type stamps = { mutable stamps : int array; mutable generation : int }

let stamps_key : stamps Stdlib.Domain.DLS.key =
  Stdlib.Domain.DLS.new_key (fun () -> { stamps = [||]; generation = 0 })

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* For small k relative to n draw until k distinct values are stamped;
     otherwise shuffle a full index array.  Both are O(k) expected beyond
     the O(n) shuffle. *)
  if 2 * k >= n then begin
    let a = Array.init n (fun i -> i) in
    shuffle t a;
    Array.sub a 0 k
  end else begin
    let s = Stdlib.Domain.DLS.get stamps_key in
    if Array.length s.stamps < n then s.stamps <- Array.make n 0;
    s.generation <- s.generation + 1;
    let generation = s.generation and stamps = s.stamps in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if stamps.(v) <> generation then begin
        stamps.(v) <- generation;
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
