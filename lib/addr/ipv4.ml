type t = int

let of_octets a b c d =
  let check o = if o < 0 || o > 255 then invalid_arg "Ipv4.of_octets: octet out of range" in
  check a;
  check b;
  check c;
  check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let to_octets t = ((t lsr 24) land 0xFF, (t lsr 16) land 0xFF, (t lsr 8) land 0xFF, t land 0xFF)

let of_string_opt s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 && String.length x > 0 -> Some v
        | Some _ | None -> None
      in
      match (octet a, octet b, octet c, octet d) with
      | Some a, Some b, Some c, Some d -> Some (of_octets a b c d)
      | _, _, _, _ -> None)
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Ipv4.of_string: %S" s)

let to_string t =
  let a, b, c, d = to_octets t in
  Printf.sprintf "%d.%d.%d.%d" a b c d

let pp ppf t = Format.pp_print_string ppf (to_string t)

let equal = Int.equal

