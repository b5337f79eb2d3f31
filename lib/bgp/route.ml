type t = {
  prefix : Prefix.t;
  origin : Domain.id;
  as_path : Domain.id list;
  lifetime_end : Time.t option;
  span : Span.t option;
}

let originate ?lifetime_end ?span origin prefix =
  { prefix; origin; as_path = []; lifetime_end; span }

let through r d = { r with as_path = d :: r.as_path }

let path_length r = List.length r.as_path

let contains_loop r d = List.exists (Int.equal d) r.as_path || r.origin = d

let next_hop r =
  match r.as_path with
  | [] -> None
  | hop :: _ -> Some hop

let compare a b =
  let c = Int.compare (path_length a) (path_length b) in
  if c <> 0 then c
  else begin
    let c = Int.compare a.origin b.origin in
    if c <> 0 then c
    else
      match (a.as_path, b.as_path) with
      | [], [] -> Prefix.compare a.prefix b.prefix
      | [], _ :: _ -> -1
      | _ :: _, [] -> 1
      | ha :: _, hb :: _ ->
          let c = Int.compare ha hb in
          if c <> 0 then c else Prefix.compare a.prefix b.prefix
  end

let prefer a b = if compare a b <= 0 then a else b

let equal a b =
  Prefix.equal a.prefix b.prefix
  && a.origin = b.origin
  && List.equal Int.equal a.as_path b.as_path
