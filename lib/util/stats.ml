(* Every field is a float, so the record is stored flat and updates
   box nothing.  [n] counts observations exactly (below 2^53). *)
type t = {
  mutable n : float;
  mutable mean_acc : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () = { n = 0.0; mean_acc = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity }

let[@inline] add t x =
  t.n <- t.n +. 1.0;
  let delta = x -. t.mean_acc in
  t.mean_acc <- t.mean_acc +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean_acc));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = int_of_float t.n

let mean t = if t.n = 0.0 then 0.0 else t.mean_acc

let variance t = if t.n < 2.0 then 0.0 else t.m2 /. (t.n -. 1.0)

let stddev t = sqrt (variance t)

let min t = if t.n = 0.0 then invalid_arg "Stats.min: empty" else t.min_v

let max t = if t.n = 0.0 then invalid_arg "Stats.max: empty" else t.max_v

let merge a b =
  if a.n = 0.0 then { b with n = b.n }
  else if b.n = 0.0 then { a with n = a.n }
  else begin
    let n = a.n +. b.n in
    let delta = b.mean_acc -. a.mean_acc in
    let mean_acc = a.mean_acc +. (delta *. b.n /. n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
    {
      n;
      mean_acc;
      m2;
      min_v = Stdlib.min a.min_v b.min_v;
      max_v = Stdlib.max a.max_v b.max_v;
    }
  end

let mean_of a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

type series = { label : string; points : (float * float) array }

let pp_series ppf s =
  Format.fprintf ppf "# %s@." s.label;
  Array.iter (fun (x, y) -> Format.fprintf ppf "%g %g@." x y) s.points
