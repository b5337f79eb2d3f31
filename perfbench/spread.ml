(* Order statistics of a run's repetitions.  Quartiles follow Python's
   statistics.quantiles(values, n=4) (the default 'exclusive' method),
   so the numbers printed here are the ones an outside reader computes
   from the same samples. *)

type t = { median : float; q1 : float; q3 : float; min : float; max : float; n : int }

let of_list values =
  let a = Array.of_list values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Spread.of_list: no samples";
  Array.sort Float.compare a;
  let median = if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0 in
  let quartile i =
    if n = 1 then a.(0)
    else
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  { median; q1 = quartile 1; q3 = quartile 3; min = a.(0); max = a.(n - 1); n }

(* Interquartile range as a share of the median. *)
let iqr_share s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median
