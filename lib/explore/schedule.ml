type fault =
  | Link_down of Domain.id * Domain.id
  | Link_up of Domain.id * Domain.id
  | Partition of Domain.id * Domain.id
  | Heal of Domain.id * Domain.id
  | Set_loss of float

type step = { at : Time.t; fault : fault }

type t = step list

let make steps = List.stable_sort (fun a b -> compare a.at b.at) steps

let faults = List.length

let last_at = function
  | [] -> Time.zero
  | steps -> List.fold_left (fun acc s -> max acc s.at) Time.zero steps

let ends_all_up t =
  (* Replay link state symbolically: both fault families act on the
     same transport link, so a down of either kind needs an up of
     either kind to count as repaired. *)
  let down = Hashtbl.create 8 in
  let key a b = if a <= b then (a, b) else (b, a) in
  let loss = ref 0.0 in
  List.iter
    (fun s ->
      match s.fault with
      | Link_down (a, b) | Partition (a, b) -> Hashtbl.replace down (key a b) true
      | Link_up (a, b) | Heal (a, b) -> Hashtbl.replace down (key a b) false
      | Set_loss r -> loss := r)
    t;
  !loss = 0.0 && not (Hashtbl.fold (fun _ d acc -> acc || d) down false)

(* Seconds without trailing zeros ("3600", "3600.5"); avoids %g's
   scientific notation on long horizons. *)
let float_to_string f =
  let s = Printf.sprintf "%.6f" f in
  let s =
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = '0' do
      decr n
    done;
    if !n > 0 && s.[!n - 1] = '.' then decr n;
    String.sub s 0 !n
  in
  if s = "" then "0" else s

let pair a b = if a <= b then (a, b) else (b, a)

let step_to_string s =
  let at = float_to_string (Time.to_seconds s.at) in
  match s.fault with
  | Link_down (a, b) ->
      let a, b = pair a b in
      Printf.sprintf "down:%d-%d@%s" a b at
  | Link_up (a, b) ->
      let a, b = pair a b in
      Printf.sprintf "up:%d-%d@%s" a b at
  | Partition (a, b) ->
      let a, b = pair a b in
      Printf.sprintf "part:%d-%d@%s" a b at
  | Heal (a, b) ->
      let a, b = pair a b in
      Printf.sprintf "heal:%d-%d@%s" a b at
  | Set_loss r -> Printf.sprintf "loss:%s@%s" (float_to_string r) at

let to_string t = String.concat "," (List.map step_to_string t)

let step_of_string str =
  match String.index_opt str ':' with
  | None -> Error (Printf.sprintf "malformed step %S: missing ':'" str)
  | Some i -> (
      let kind = String.sub str 0 i in
      let rest = String.sub str (i + 1) (String.length str - i - 1) in
      match String.index_opt rest '@' with
      | None -> Error (Printf.sprintf "malformed step %S: missing '@'" str)
      | Some j -> (
          let arg = String.sub rest 0 j in
          let at_s = String.sub rest (j + 1) (String.length rest - j - 1) in
          match float_of_string_opt at_s with
          | None -> Error (Printf.sprintf "malformed step %S: bad time %S" str at_s)
          | Some at -> (
              let at = Time.seconds at in
              let link mk =
                match String.index_opt arg '-' with
                | None -> Error (Printf.sprintf "malformed step %S: bad link %S" str arg)
                | Some k -> (
                    let a = String.sub arg 0 k
                    and b = String.sub arg (k + 1) (String.length arg - k - 1) in
                    match (int_of_string_opt a, int_of_string_opt b) with
                    | Some a, Some b -> Ok { at; fault = mk a b }
                    | _ -> Error (Printf.sprintf "malformed step %S: bad link %S" str arg))
              in
              match kind with
              | "down" -> link (fun a b -> Link_down (a, b))
              | "up" -> link (fun a b -> Link_up (a, b))
              | "part" -> link (fun a b -> Partition (a, b))
              | "heal" -> link (fun a b -> Heal (a, b))
              | "loss" -> (
                  match float_of_string_opt arg with
                  | Some r -> Ok { at; fault = Set_loss r }
                  | None -> Error (Printf.sprintf "malformed step %S: bad rate %S" str arg))
              | _ -> Error (Printf.sprintf "malformed step %S: unknown kind %S" str kind))))

let of_string str =
  if String.trim str = "" then Ok []
  else
    let parts = String.split_on_char ',' str in
    let rec go acc = function
      | [] -> Ok (make (List.rev acc))
      | p :: rest -> (
          match step_of_string (String.trim p) with
          | Ok s -> go (s :: acc) rest
          | Error _ as e -> e)
    in
    go [] parts

(* FNV-1a/64, the same construction the flight recorder uses for run
   fingerprints. *)
let fingerprint t =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    (to_string t);
  Printf.sprintf "%016Lx" !h
