type claim = { prefix : Prefix.t; active : bool; used : int }

type 'c decision =
  | Assign of 'c
  | Double of 'c
  | Claim_new of int
  | Consolidate of int
  | Blocked

type params = { threshold : float; max_prefixes : int }

let default_params = { threshold = 0.75; max_prefixes = 2 }

module type CLAIM = sig
  type t

  val prefix : t -> Prefix.t
  val active : t -> bool
  val used : t -> int
end

module Make (C : CLAIM) = struct
  (* Everything that reads a claim is defined here, once per instance,
     not inside [decide]: a decision builds no closure. *)
  let size c = Prefix.size (C.prefix c)
  let add_size acc c = acc + size c
  let add_used acc c = acc + C.used c
  let count_active n c = if C.active c then n + 1 else n
  let smaller a b = compare (size a) (size b)

  (* Best-fit assignment: the fullest active prefix that still has room,
     keeping utilization dense so draining prefixes empty faster.  Ties
     go to the earliest such claim.  [best] is the suffix of the claim
     list headed by the best claim so far ([] for none), so the scan
     allocates nothing. *)
  let rec best_fit ~need best best_slack = function
    | [] -> best
    | c :: rest as here ->
        let slack = size c - C.used c in
        if C.active c && slack >= need && slack < best_slack then best_fit ~need here slack rest
        else best_fit ~need best best_slack rest

  (* The active claims of at least [need] addresses whose buddy is
     free, in list order. *)
  let rec doublable ~space ~need = function
    | [] -> []
    | c :: rest ->
        if C.active c && need <= size c && Address_space.can_double space (C.prefix c) then
          c :: doublable ~space ~need rest
        else doublable ~space ~need rest

  (* The suffix headed by the first candidate whose doubling keeps
     utilization at or above the threshold. *)
  let rec first_dense ~params ~total_size ~total_used = function
    | [] -> []
    | c :: rest as here ->
        if float_of_int total_used >= params.threshold *. float_of_int (total_size + size c) then
          here
        else first_dense ~params ~total_size ~total_used rest

  let decide ~params ~space ~claims ~need =
    if need <= 0 then invalid_arg "Claim_policy.decide: non-positive need";
    match best_fit ~need [] max_int claims with
    | c :: _ -> Assign c
    | [] -> (
        let total_size = List.fold_left add_size 0 claims in
        let total_used = need + List.fold_left add_used 0 claims in
        let doubling_candidates = List.sort smaller (doublable ~space ~need claims) in
        match first_dense ~params ~total_size ~total_used doubling_candidates with
        | c :: _ -> Double c
        | [] ->
            if List.fold_left count_active 0 claims < params.max_prefixes then
              Claim_new (Prefix.mask_for_count need)
            else begin
              match doubling_candidates with
              | c :: _ -> Double c
              | [] ->
                  (* Consolidation target: one prefix holding everything in
                     live use plus the new demand. *)
                  let want = Prefix.mask_for_count total_used in
                  if List.exists (fun cover -> Prefix.len cover <= want) (Address_space.covers space)
                  then Consolidate want
                  else Blocked
            end)
end

include Make (struct
  type t = claim

  let prefix c = c.prefix
  let active c = c.active
  let used c = c.used
end)
