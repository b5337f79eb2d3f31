type t = { base : Ipv4.t; len : int }

let mask_of_len len = if len = 0 then 0 else 0xFFFFFFFF lsl (32 - len) land 0xFFFFFFFF

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of range";
  { base = addr land mask_of_len len; len }

let make_exact addr len =
  let p = make addr len in
  if p.base <> addr then invalid_arg "Prefix.make_exact: host bits set";
  p

let of_string_opt s =
  match String.index_opt s '/' with
  | None -> Option.map (fun a -> { base = a; len = 32 }) (Ipv4.of_string_opt s)
  | Some i -> (
      let addr_part = String.sub s 0 i in
      let len_part = String.sub s (i + 1) (String.length s - i - 1) in
      match (Ipv4.of_string_opt addr_part, int_of_string_opt len_part) with
      | Some a, Some l when l >= 0 && l <= 32 -> Some (make a l)
      | _, _ -> None)

let of_string s =
  match of_string_opt s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string: %S" s)

let to_string p = Printf.sprintf "%s/%d" (Ipv4.to_string p.base) p.len

let pp ppf p = Format.pp_print_string ppf (to_string p)

let compare a b =
  let c = Int.compare a.base b.base in
  if c <> 0 then c else Int.compare a.len b.len

let equal a b = a.base = b.base && a.len = b.len

let base p = p.base

let len p = p.len

let size p = 1 lsl (32 - p.len)

let last p = p.base lor (size p - 1)

let mem addr p = addr land mask_of_len p.len = p.base

let subsumes p q = q.len >= p.len && q.base land mask_of_len p.len = p.base

let overlaps a b = subsumes a b || subsumes b a

let buddy p =
  if p.len = 0 then invalid_arg "Prefix.buddy: /0 has no buddy";
  { p with base = p.base lxor (1 lsl (32 - p.len)) }

let parent p =
  if p.len = 0 then invalid_arg "Prefix.parent: /0 has no parent";
  make p.base (p.len - 1)

let double = parent

let first_subprefix p l =
  if l < p.len || l > 32 then invalid_arg "Prefix.first_subprefix: bad length";
  { base = p.base; len = l }

let subprefix_count p l =
  if l < p.len || l > 32 then invalid_arg "Prefix.subprefix_count: bad length";
  1 lsl (l - p.len)

let nth_subprefix p l i =
  let n = subprefix_count p l in
  if i < 0 || i >= n then invalid_arg "Prefix.nth_subprefix: index out of range";
  { base = p.base lor (i lsl (32 - l)); len = l }

let aggregate2 a b =
  if a.len = b.len && a.len > 0 && buddy a = b then Some (parent a) else None

(* Minimal CIDR cover: sort, drop subsumed prefixes, then repeatedly merge
   adjacent buddies.  Each merge can enable another merge at a shorter
   length, so we loop to a fixpoint; total work is O(n log n * 32). *)
let aggregate prefixes =
  let drop_subsumed sorted =
    let rec loop acc = function
      | [] -> List.rev acc
      | p :: rest -> (
          match acc with
          | covering :: _ when subsumes covering p -> loop acc rest
          | _ :: _ | [] -> loop (p :: acc) rest)
    in
    loop [] sorted
  in
  let merge_pass sorted =
    let changed = ref false in
    let rec loop acc = function
      | a :: b :: rest -> (
          match aggregate2 a b with
          | Some merged ->
              changed := true;
              loop acc (merged :: rest)
          | None -> loop (a :: acc) (b :: rest))
      | [ x ] -> List.rev (x :: acc)
      | [] -> List.rev acc
    in
    let merged = loop [] sorted in
    (merged, !changed)
  in
  let rec fix l =
    let l = drop_subsumed (List.sort_uniq compare l) in
    let merged, changed = merge_pass l in
    if changed then fix merged else merged
  in
  fix prefixes

let mask_for_count n =
  if n <= 0 then invalid_arg "Prefix.mask_for_count: non-positive count";
  if n > 1 lsl 32 then invalid_arg "Prefix.mask_for_count: count exceeds address space";
  let rec loop l = if 1 lsl (32 - l) >= n then l else loop (l - 1) in
  loop 32

let class_d = make (Ipv4.of_octets 224 0 0 0) 4
