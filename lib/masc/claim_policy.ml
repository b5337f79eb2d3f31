type claim = { prefix : Prefix.t; active : bool; used : int }

type decision =
  | Assign of Prefix.t
  | Double of Prefix.t
  | Claim_new of int
  | Consolidate of int
  | Blocked

type params = { threshold : float; max_prefixes : int }

let default_params = { threshold = 0.75; max_prefixes = 2 }

let pp_decision ppf = function
  | Assign p -> Format.fprintf ppf "assign within %a" Prefix.pp p
  | Double p -> Format.fprintf ppf "double %a" Prefix.pp p
  | Claim_new l -> Format.fprintf ppf "claim new /%d" l
  | Consolidate l -> Format.fprintf ppf "consolidate into /%d" l
  | Blocked -> Format.fprintf ppf "blocked"

(* Best-fit assignment: the fullest active prefix that still has room,
   keeping utilization dense so draining prefixes empty faster.  Ties go
   to the earliest such claim. *)
let rec best_fit ~need best best_slack = function
  | [] -> best
  | c :: rest ->
      let slack = Prefix.size c.prefix - c.used in
      if c.active && slack >= need && slack < best_slack then
        best_fit ~need (Some c.prefix) slack rest
      else best_fit ~need best best_slack rest

let decide ~params ~space ~claims ~need =
  if need <= 0 then invalid_arg "Claim_policy.decide: non-positive need";
  match best_fit ~need None max_int claims with
  | Some p -> Assign p
  | None ->
      let active = List.filter (fun c -> c.active) claims in
      let total_size = List.fold_left (fun acc c -> acc + Prefix.size c.prefix) 0 claims in
      let total_used = need + List.fold_left (fun acc c -> acc + c.used) 0 claims in
      let doubling_candidates =
        List.filter
          (fun c -> need <= Prefix.size c.prefix && Address_space.can_double space c.prefix)
          active
        |> List.sort (fun a b -> compare (Prefix.size a.prefix) (Prefix.size b.prefix))
      in
      let meets_threshold c =
        float_of_int total_used
        >= params.threshold *. float_of_int (total_size + Prefix.size c.prefix)
      in
      let preferred = List.filter meets_threshold doubling_candidates in
      (match preferred with
      | c :: _ -> Double c.prefix
      | [] ->
          if List.length active < params.max_prefixes then Claim_new (Prefix.mask_for_count need)
          else begin
            match doubling_candidates with
            | c :: _ -> Double c.prefix
            | [] -> (
                (* Consolidation target: one prefix holding everything in
                   live use plus the new demand. *)
                let want = Prefix.mask_for_count total_used in
                let fits_somewhere =
                  List.exists
                    (fun cover -> Prefix.len cover <= want)
                    (Address_space.covers space)
                in
                if fits_somewhere then Consolidate want else Blocked)
          end)
