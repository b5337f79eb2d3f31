type t = { host_domain : Domain.id; host_index : int }

let make host_domain host_index = { host_domain; host_index }

let compare a b =
  let c = Int.compare a.host_domain b.host_domain in
  if c <> 0 then c else Int.compare a.host_index b.host_index

let equal a b = compare a b = 0

let key_bits = 31

let key t =
  if t.host_domain lsr key_bits <> 0 || t.host_index lsr key_bits <> 0 then
    invalid_arg "Host_ref.key: domain or index out of range";
  (t.host_domain lsl key_bits) lor t.host_index

let of_key k = { host_domain = k lsr key_bits; host_index = k land ((1 lsl key_bits) - 1) }

let pp ppf t = Format.fprintf ppf "h%d.%d" t.host_domain t.host_index
